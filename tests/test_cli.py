"""CLI contract: JSON reports, exit codes, determinism."""

import json
import math

import pytest

from adqc.cli import main
from adqc.patterns import CircuitDescription, CircuitGate
from adqc.protocol import MAX_GRID


@pytest.fixture
def circuit_file(tmp_path):
    c = CircuitDescription(
        1, (CircuitGate("H", (0,)), CircuitGate("Rz", (0,), math.pi / 4))
    )
    path = tmp_path / "c.json"
    path.write_text(c.to_json())
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyTables:
    def test_all_rows_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify-tables", "--negatives", "100")
        report = json.loads(out)
        assert code == 0 and report["pass"]
        assert all(r["status"] == "pass" for r in report["rows"].values())
        assert report["false_positives"] == 0
        assert report["schema"] == {"name": "verify-tables", "version": 1}


class TestSweep:
    def test_small_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--points", "200", "--seed", "3")
        report = json.loads(out)
        assert code == 0 and report["pass"]
        assert report["agreement_rate"] == 1.0

    def test_thread_cap_does_not_change_output(self, capsys, monkeypatch):
        monkeypatch.setenv("ADQC_THREADS", "1")
        _, out1, _ = run_cli(capsys, "sweep", "--points", "120", "--seed", "4")
        monkeypatch.setenv("ADQC_THREADS", "3")
        _, out2, _ = run_cli(capsys, "sweep", "--points", "120", "--seed", "4")
        assert out1 == out2

    @pytest.mark.parametrize("points", ["0", "-5"])
    def test_non_positive_point_count_rejected(self, capsys, points):
        code, out, err = run_cli(capsys, "sweep", "--points", points)
        assert code == 2
        assert out == ""
        assert "--points" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-patterns", "--circuits", "-3"),
            ("verify-patterns", "--circuits", "-1"),
            ("verify-tables", "--negatives", "-4"),
            ("verify-tables", "--negatives", "-1"),
        ],
    )
    def test_negative_counts_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert argv[1] in json.loads(err)["error"]


class TestDelegate:
    def test_fidelity_one(self, capsys, circuit_file):
        code, out, _ = run_cli(capsys, "delegate", "--circuit", circuit_file, "--seed", "42")
        report = json.loads(out)
        assert code == 0 and report["pass"]
        assert abs(report["fidelity"] - 1.0) < 1e-9

    def test_byte_identical_reports(self, capsys, circuit_file):
        args = ("delegate", "--circuit", circuit_file, "--seed", "7", "--variant", "single")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_missing_circuit_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "delegate", "--circuit", str(tmp_path / "nope.json"), "--seed", "1"
        )
        assert code == 2
        assert out == ""
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("grid", ["0", "-4", "5"])
    def test_invalid_grid_rejected(self, capsys, circuit_file, grid):
        code, out, err = run_cli(
            capsys, "delegate", "--circuit", circuit_file, "--seed", "1", "--grid", grid
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == f"grid size must be an even integer >= 4, got {grid}"

    @pytest.mark.parametrize("command", ["delegate", "audit"])
    def test_grid_above_the_bound_rejected(self, capsys, circuit_file, command):
        argv = ["delegate", "--circuit", circuit_file, "--seed", "1"] if command == "delegate" else ["audit"]
        code, out, err = run_cli(capsys, *argv, "--grid", "1000000000")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == f"grid size must be at most {MAX_GRID}, got 1000000000"

    def test_transcript_written(self, capsys, circuit_file, tmp_path):
        log = tmp_path / "t.jsonl"
        code, out, _ = run_cli(
            capsys,
            "delegate", "--circuit", circuit_file, "--seed", "1",
            "--transcript", str(log), "--view", "server",
        )
        assert code == 0
        lines = log.read_text().strip().splitlines()
        assert json.loads(lines[0]) == {"view": "server"}
        assert all("client_log" not in line for line in lines)


class TestAudit:
    def test_exact_zero_leak_metrics(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--grid", "8")
        report = json.loads(out)
        assert code == 0 and report["pass"]
        assert report["angle_tvd"] == 0.0
        assert report["ancilla_trace_distance"] <= 1e-12


class TestArgumentHandling:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_tolerance_range_enforced(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-tables", "--tol", "0.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["sweep", "--points", "abc"], "argument --points: invalid int value: 'abc'"),
            (["sweep", "--tol", "abc"], "argument --tol: tolerance must be a number, got 'abc'"),
            (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        ],
    )
    def test_argument_errors_are_json(self, capsys, argv, error):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"].startswith(error)

    def test_help_is_plain_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        captured = capsys.readouterr()
        assert exc.value.code == 0
        assert captured.out.startswith("usage: adqc sweep") and captured.err == ""

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "audit", "--out", str(path))
        assert code == 0
        assert json.loads(path.read_text()) == json.loads(out)


    def test_out_file_in_a_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "audit", "--out", str(path))
        assert code == 2
        assert out == ""
        assert "missing" in json.loads(err)["error"]
        assert not path.exists()


class TestMalformedCircuit:
    @pytest.mark.parametrize(
        "doc",
        [
            {"v": 1, "qubits": 1},
            {"v": 1, "gates": []},
            {"v": 1, "qubits": "1", "gates": []},
            {"v": 1, "qubits": 1.5, "gates": []},
            {"v": 1, "qubits": 1, "gates": {"kind": "H"}},
            {"v": 1, "qubits": 1, "gates": [{"kind": "H"}]},
            {"v": 1, "qubits": 1, "gates": [{"targets": [0]}]},
            {"v": 1, "qubits": 1, "gates": [{"kind": "H", "targets": [-1]}]},
            {"v": 1, "qubits": 1, "gates": [{"kind": "Rz", "targets": [0], "angle": "x"}]},
            [1, 2],
        ],
    )
    def test_delegate_rejects_with_json_error(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "delegate", "--circuit", str(path), "--seed", "1")
        assert code == 2
        assert out == ""
        assert "error" in json.loads(err)

    @pytest.mark.parametrize(
        "gate, message",
        [
            ({"kind": "H", "targets": [0], "angle": 0.5}, "H takes no angle"),
            ({"kind": "CZ", "targets": [0, 1], "angle": 1.0}, "CZ takes no angle"),
            ({"kind": "Rz", "targets": [0], "angle": float("nan")}, "Rz angle must be finite, got nan"),
            ({"kind": "Rx", "targets": [1], "angle": float("inf")}, "Rx angle must be finite, got inf"),
            ({"kind": "Rx", "targets": [1], "angle": float("-inf")}, "Rx angle must be finite, got -inf"),
        ],
    )
    def test_delegate_rejects_a_bad_gate_angle(self, capsys, tmp_path, gate, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"v": 1, "qubits": 2, "gates": [gate]}))  # NaN and inf as JSON extensions
        code, out, err = run_cli(capsys, "delegate", "--circuit", str(path), "--seed", "1")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == message

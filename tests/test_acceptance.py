"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import math

import numpy as np

from adqc.cli import main as cli_main
from adqc.conditions import TableCase, classify_parameters, unitarity_relation_sweep
from adqc.core import (
    AncillaSpec,
    MeasBasis,
    kraus_pair,
    preset,
    rotation,
)
from adqc.linalg import PAULIS, X, dagger, equal_up_to_global_phase
from adqc.patterns import CircuitDescription, CircuitGate, standard_pattern, verify_pattern
from adqc.protocol import ClientSecret, audit_blindness, run_delegation

PI = math.pi


def _verdict(number: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_1_kraus_formula_reproduction(self):
        """Hidden-angle branches equal Rx(g) and X Rx(-g) up to phase and a
        1/sqrt2 weight, within 1e-10, over 100 grid values."""
        e = preset("CZ_CANON")
        worst = 0.0
        for k in range(100):
            g = 2 * PI * k / 100
            pair = kraus_pair(e, AncillaSpec(g, 0.0), MeasBasis(0.0, 0.0))
            ok_p = equal_up_to_global_phase(
                math.sqrt(2) * pair.k_plus, rotation("x", g), 1e-10
            )
            ok_m = equal_up_to_global_phase(
                math.sqrt(2) * pair.k_minus, X @ rotation("x", -g), 1e-10
            )
            if not (ok_p and ok_m):
                worst = max(worst, 1.0)
        _verdict(1, "kraus-formula-reproduction", worst == 0.0)

    def test_2_table_reproduction(self):
        """All six parameter rows classify and their computed Kraus operators
        confirm within 1e-10; 1000 random non-matching points give NONE."""
        from adqc.conditions import ParamPoint, TableVerificationError

        rows = {
            TableCase.T1_IDENTITY: (0.0, 0.3, 0.0, 0.0),
            TableCase.T1_XROT: (0.0, 0.0, 1.1, 0.0),
            TableCase.T1_X_A: (PI, 0.0, 0.0, 0.0),
            TableCase.T1_X_B: (0.9, 0.4, PI / 2, 0.0),
            TableCase.T2_GENERAL_DELTA0: (1.0, 0.0, 2.2, 0.0),
            TableCase.T2_MATCHED: (0.8, 0.5, 0.8, 0.5),
        }
        ok = True
        for case, (g, d, t, f) in rows.items():
            p = ParamPoint(PI / 4, AncillaSpec(g, d), MeasBasis(t, f))
            got = classify_parameters(p, 1e-10)  # raises if confirmation fails
            ok = ok and got is case
        rng = np.random.default_rng(2024)
        false_pos = 0
        checked = 1000
        for _ in range(checked):  # every drawn point counts, with no prefilter
            g, d, t, f = rng.uniform(0.2, 2 * PI - 0.2, 4)
            p = ParamPoint(PI / 4, AncillaSpec(g, d), MeasBasis(t, f))
            try:
                false_pos += classify_parameters(p, 1e-9) is not TableCase.NONE
            except TableVerificationError:
                false_pos += 1
        _verdict(
            2,
            "table-reproduction",
            ok and false_pos == 0,
            f"negatives={checked} false_positives={false_pos}",
        )

    def test_3_unitarity_relation_sweep(self):
        """10^4 constraint-satisfying points: unitary-proportional branches
        track the constraint, the strength relation holds at an interaction
        strength iff it is the value the relation singles out, and the
        rotation-row family is one-step correctable iff the strength matches.
        Agreement rate must be exactly 1 at tol 1e-9, degenerate denominators
        excluded."""
        report = unitarity_relation_sweep(10_000, seed=7, tol=1e-9)
        ok = (
            report["agreement_rate"] == 1.0
            and report["relation_disagreements"] == 0
            and report["nonunitary_on_constraint"] == 0
            and report["violations_missed"] == 0
            and report["correctability_disagreements"] == 0
        )
        _verdict(
            3,
            "unitarity-relation-sweep",
            ok,
            f"points={report['points']} excluded={report['excluded_degenerate']} "
            f"rate={report['agreement_rate']}",
        )

    def test_4_blindness_audit_exact(self):
        """At grid 8: ancilla trace distance 0 within 1e-12, angle-message
        total-variation distance exactly 0 between two secret assignments, and
        the averaged post-step state matches the fixed diagonal within 1e-10
        and is identical across hidden values."""
        rep = audit_blindness(grid_n=8, theta_prime=PI / 4, theta_prime_alt=3 * PI / 2)
        ok = (
            rep.ancilla_trace_distance <= 1e-12
            and rep.angle_max_nonuniformity == 0.0
            and rep.angle_tvd == 0.0
            and rep.output_diag_error <= 1e-10
            and rep.output_gamma_spread <= 1e-10
        )
        _verdict(
            4,
            "blindness-audit-exact",
            ok,
            f"td={rep.ancilla_trace_distance:.1e} tvd={rep.angle_tvd}",
        )

    def test_5_delegation_correctness(self):
        """50 random circuits (1-2 qubits, at most 3 gate slots, grid angles):
        every enumerated branch reaches the direct-matrix reference with
        fidelity at least 1 - 1e-9."""
        rng = np.random.default_rng(99)
        grid = [2 * PI * k / 8 for k in range(8)]
        worst = 1.0
        for i in range(50):
            n = 1 if i < 30 else 2
            n_gates = int(rng.integers(1, 4))
            gates = []
            for _ in range(n_gates):
                kind = rng.choice(["H", "Rx", "Rz"] if n == 1 else ["H", "Rx", "Rz", "CZ"])
                if kind == "CZ":
                    gates.append(CircuitGate("CZ", (0, 1)))
                else:
                    q = int(rng.integers(n))
                    ang = float(rng.choice(grid))
                    gates.append(CircuitGate(kind, (q,), ang if kind != "H" else None))
            circuit = CircuitDescription(n, tuple(gates))
            variant = "single" if i % 2 else "two"
            secret = ClientSecret(circuit, variant, 8, seed=1000 + i)
            res = run_delegation(secret, seed=i, mode="enumerate")
            worst = min(worst, res.worst_branch_fidelity, res.fidelity)
        _verdict(5, "delegation-correctness", worst >= 1 - 1e-9, f"worst={worst:.3e}")

    def test_6_correctable_branching_depths(self):
        """Rotation slots are three-step correctable with one entangler kind
        and two-step correctable with two kinds: verify_pattern validates the
        slots at exactly those step counts."""
        j = standard_pattern("J", 0.7, "single")
        rx = standard_pattern("RX", 1.1, "two")
        rz = standard_pattern("RZ", 2.2, "two")
        ok = (
            len(j.steps) == 3
            and verify_pattern(j, 1e-9).valid
            and len(rx.steps) == 2
            and verify_pattern(rx, 1e-9).valid
            and len(rz.steps) == 2
            and verify_pattern(rz, 1e-9).valid
        )
        _verdict(6, "correctable-branching-depths", ok)

    def test_7_incompatibility_witness(self):
        """With a single entangler kind and no assistant slot, every reachable
        deterministic kernel over a 32-point angle grid fixes one Bloch
        coordinate within 1e-9, so generic rotations are out of reach."""
        grid = [2 * PI * k / 32 for k in range(32)]

        def bloch_matrix(u):
            r = np.zeros((3, 3))
            basis = [PAULIS["X"], PAULIS["Y"], PAULIS["Z"]]
            for a, pa in enumerate(basis):
                for b, pb in enumerate(basis):
                    r[a, b] = float(np.trace(pa @ u @ pb @ dagger(u)).real / 2)
            return r

        ok = True
        # family 1: bare interaction; no-assistant composites are X rotations
        kernels = [rotation("x", t) for t in grid]
        kernels += [k1 @ k2 for k1 in kernels[:6] for k2 in kernels[:6]]
        for k in kernels:
            r = bloch_matrix(k)
            ok = ok and np.abs(r @ np.array([1, 0, 0]) - np.array([1, 0, 0])).max() < 1e-9
        # family 2: Hadamard-conjugated kind; composites are Z rotations
        kernels = [rotation("z", t) for t in grid]
        for k in kernels:
            r = bloch_matrix(k)
            ok = ok and np.abs(r @ np.array([0, 0, 1]) - np.array([0, 0, 1])).max() < 1e-9
        # the witnessed sets really come from the machinery: 2-step slots
        for t in grid[:8]:
            pat = standard_pattern("RX", t, "two")
            ok = ok and equal_up_to_global_phase(pat.target, rotation("x", t), 1e-10)
        # a generic rotation stays unreachable for both families
        target = rotation("z", PI / 2) @ rotation("x", PI / 2) @ rotation("z", PI / 2)
        tb = bloch_matrix(target)
        reach_x = min(
            np.abs(bloch_matrix(rotation("x", t)) - tb).max() for t in grid
        )
        reach_z = min(
            np.abs(bloch_matrix(rotation("z", t)) - tb).max() for t in grid
        )
        ok = ok and reach_x > 0.1 and reach_z > 0.1
        # contrast: the assistant restores motion off the fixed plane
        j = standard_pattern("J", PI / 2, "single")
        rj = bloch_matrix(j.target)
        ok = ok and np.abs(rj @ np.array([1, 0, 0]) - np.array([1, 0, 0])).max() > 0.5
        _verdict(7, "incompatibility-witness", ok)

    def test_8_cli_determinism(self, tmp_path, capsys):
        """Identical arguments and seeds produce byte-identical reports."""
        circuit = CircuitDescription(
            1, (CircuitGate("H", (0,)), CircuitGate("Rz", (0,), PI / 4))
        )
        path = tmp_path / "c.json"
        path.write_text(circuit.to_json())
        outputs = []
        for _ in range(2):
            for argv in (
                ["delegate", "--circuit", str(path), "--seed", "11"],
                ["audit", "--grid", "8"],
                ["sweep", "--points", "64", "--seed", "5"],
            ):
                code = cli_main(argv)
                assert code == 0
                outputs.append(capsys.readouterr().out)
        ok = outputs[0] == outputs[3] and outputs[1] == outputs[4] and outputs[2] == outputs[5]
        _verdict(8, "cli-determinism", ok)

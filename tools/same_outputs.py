"""Check that two commits give the same CLI outputs.

    python3 tools/same_outputs.py --parent HEAD~1 --change HEAD

Each commit's files are exported with ``git archive`` into a fresh temporary
directory, as ``tools/bench_pairs.py`` exports them.  In each checkout every
command of COMMANDS runs as ``python -m adqc.cli`` in a fresh process, from
an empty work directory holding CIRCUIT as ``circuit.json``, so the paths in
the reports are the same on both sides: ``verify-patterns`` (the default and
``--circuits 40 --seed 5``), ``verify-tables``, ``sweep --points 2000``,
``audit``, ``audit --grid 256``, and ``delegate`` of CIRCUIT in both modes
and both variants, each writing its full transcript.  The two sides'
stdout, exit codes and transcript bytes are compared command by command.
Prints one JSON line, the commits, the commands run and those that
differ, and exits 1 when any differs.  Standard library only.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pairs import export  # noqa: E402

# three qubits, two CZ gates and every one-qubit gate kind, on the 8-point grid
CIRCUIT = {"v": 1, "qubits": 3, "gates": [
    {"kind": "H", "targets": [0]},
    {"kind": "CZ", "targets": [0, 1]},
    {"kind": "Rx", "targets": [2], "angle": 3 * math.pi / 4},
    {"kind": "CZ", "targets": [2, 1]},
    {"kind": "Rz", "targets": [1], "angle": math.pi / 4},
]}
TRANSCRIPT = "transcript.jsonl"
COMMANDS = (
    ("verify-patterns",),
    ("verify-patterns", "--circuits", "40", "--seed", "5"),
    ("verify-tables",),
    ("sweep", "--points", "2000"),
    ("audit",),
    ("audit", "--grid", "256"),
) + tuple(
    ("delegate", "--circuit", "circuit.json", "--seed", "3", "--mode", mode, "--variant", variant,
     "--transcript", TRANSCRIPT)
    for mode in ("sample", "enumerate") for variant in ("single", "two")
)


def outputs(checkout: Path) -> dict[str, dict]:
    """Each command's exit code, stdout and transcript (or None) in ``checkout``,
    keyed by the command line."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    results = {}
    for command in COMMANDS:
        with tempfile.TemporaryDirectory(prefix="same_outputs_") as work:
            (Path(work) / "circuit.json").write_text(json.dumps(CIRCUIT))
            proc = subprocess.run([sys.executable, "-m", "adqc.cli", *command], cwd=work, env=env,
                                  capture_output=True, text=True)
            transcript = Path(work) / TRANSCRIPT
            results[" ".join(command)] = {
                "exit": proc.returncode,
                "stdout": proc.stdout,
                "transcript": transcript.read_bytes() if transcript.exists() else None,
            }
    return results


def differences(parent: dict[str, dict], change: dict[str, dict]) -> list[str]:
    """The commands whose exit code, stdout or transcript differ, or that
    only one side ran."""
    return sorted(command for command in parent.keys() | change.keys() if parent.get(command) != change.get(command))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit before the change")
    parser.add_argument("--change", required=True, help="commit with the change")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        sides = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: export(getattr(args, side), path) for side, path in sides.items()}
        results = {side: outputs(path) for side, path in sides.items()}
    differ = differences(results["parent"], results["change"])
    print(json.dumps({**commits, "commands": len(COMMANDS), "differ": differ, "same": not differ}, sort_keys=True))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

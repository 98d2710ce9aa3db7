"""Command-line surface: verification sweeps, pattern checks, delegation, audits.

Every subcommand prints a single JSON document to stdout and exits 0 only when
all its checks pass.  Reports carry a schema tag and the resolved configuration
so runs can be diffed byte-for-byte; identical arguments and seeds produce
identical output.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache

import numpy as np

# The subcommand modules (conditions, patterns, protocol) are imported by the
# first subcommand that needs them, so ``import adqc.cli`` stays cheap; each
# subcommand calls them through module attributes.

SCHEMA_VERSION = 1


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
    if out_path:
        with open(out_path, "w") as f:
            f.write(text + "\n")
    print(text)


def _fail(message: str, code: int = 2) -> int:
    sys.stderr.write(json.dumps({"error": message}, sort_keys=True) + "\n")
    return code


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_TABLE_POINTS = {
    "T1_IDENTITY": (0.0, 0.3, 0.0, 0.0),
    "T1_XROT": (0.0, 0.0, 1.1, 0.0),
    "T1_X_A": (math.pi, 0.0, 0.0, 0.0),
    "T1_X_B": (0.9, 0.4, math.pi / 2, 0.0),
    "T2_GENERAL_DELTA0": (1.0, 0.0, 2.2, 0.0),
    "T2_MATCHED": (0.8, 0.5, 0.8, 0.5),
}


def _require_count(value: int, flag: str, least: int) -> None:
    if value < least:
        raise ValueError(f"{flag} must be at least {least}, got {value}")


def cmd_verify_tables(args) -> tuple[dict, bool]:
    from . import conditions

    _require_count(args.negatives, "--negatives", 0)
    rows = {}
    ok = True
    for name, (g, d, t, f) in _TABLE_POINTS.items():
        point = conditions.ParamPoint(math.pi / 4, conditions.AncillaSpec(g, d), conditions.MeasBasis(t, f))
        try:
            got = conditions.classify_parameters(point, args.tol)
            passed = got.value == name
        except Exception as exc:  # verification mismatch is a failure, not a crash
            got, passed = None, False
            rows[name] = {"status": "error", "detail": str(exc)}
            ok = False
            continue
        rows[name] = {"status": "pass" if passed else "fail", "classified_as": got.value}
        ok = ok and passed
    # every random point is a negative: a row match, or a match whose
    # branches fail to confirm, is a false positive
    rng = np.random.default_rng(args.seed)
    false_positives = 0
    for _ in range(args.negatives):
        g, d, t, f = rng.uniform(0.2, 2 * math.pi - 0.2, 4)
        point = conditions.ParamPoint(math.pi / 4, conditions.AncillaSpec(g, d), conditions.MeasBasis(t, f))
        try:
            false_positives += conditions.classify_parameters(point, args.tol) is not conditions.TableCase.NONE
        except conditions.TableVerificationError:
            false_positives += 1
    ok = ok and false_positives == 0
    return {
        "rows": rows,
        "random_negatives": args.negatives,
        "false_positives": false_positives,
    }, ok


def cmd_sweep(args) -> tuple[dict, bool]:
    from . import conditions

    _require_count(args.points, "--points", 1)
    report = conditions.unitarity_relation_sweep(args.points, args.seed, args.tol)
    return report, report["agreement_rate"] == 1.0


def _random_circuit(rng: np.random.Generator, grid_n: int):
    from . import patterns

    n = int(rng.integers(1, 3))
    gates = []
    depth = int(rng.integers(1, 5))
    for _ in range(depth):
        kind = rng.choice(["H", "Rx", "Rz", "CZ"] if n == 2 else ["H", "Rx", "Rz"])
        if kind == "CZ":
            gates.append(patterns.CircuitGate("CZ", (0, 1)))
        else:
            q = int(rng.integers(n))
            ang = float(rng.integers(grid_n)) * 2 * math.pi / grid_n
            gates.append(
                patterns.CircuitGate(kind, (q,), ang if kind in ("Rx", "Rz") else None)
            )
    return patterns.CircuitDescription(n, tuple(gates))


def cmd_verify_patterns(args) -> tuple[dict, bool]:
    from . import patterns

    _require_count(args.circuits, "--circuits", 0)
    results = {}
    ok = True
    named = [
        ("J", 0.7, "single"),
        ("ASSIST", None, "single"),
        ("CZ", None, "single"),
        ("RX", 1.1, "two"),
        ("RZ", 2.0, "two"),
        ("CZ", None, "two"),
    ]
    for kind, theta, variant in named:
        pat = patterns.standard_pattern(kind, theta, variant)
        rep = patterns.verify_pattern(pat, args.tol)
        key = f"{variant}:{kind}"
        results[key] = {
            "valid": rep.valid,
            "steps": len(pat.steps),
            "worst_error": rep.worst_branch_error,
        }
        ok = ok and rep.valid
    rng = np.random.default_rng(args.seed)
    compiled = []
    for i in range(args.circuits):
        circ = _random_circuit(rng, 8)
        variant = "single" if i % 2 else "two"
        rep = patterns.verify_pattern(patterns.compile_circuit(circ, variant), args.tol)
        compiled.append(
            {"qubits": circ.num_qubits, "gates": len(circ.gates), "variant": variant, "valid": rep.valid}
        )
        ok = ok and rep.valid
    results["compiled"] = compiled
    return results, ok


def cmd_delegate(args) -> tuple[dict, bool]:
    from . import patterns, protocol

    with open(args.circuit) as f:
        circuit = patterns.CircuitDescription.from_json(f.read())
    secret = protocol.ClientSecret(circuit, args.variant, args.grid, args.seed)
    result = protocol.run_delegation(secret, seed=args.seed, mode=args.mode)
    report = {
        "fidelity": result.fidelity,
        "qubits": circuit.num_qubits,
        "slots": len(secret.pattern.slots),
        "messages": len(result.transcript.messages),
    }
    if result.worst_branch_fidelity is not None:
        report["worst_branch_fidelity"] = result.worst_branch_fidelity
    if args.transcript:
        with open(args.transcript, "w") as f:
            f.write(result.transcript.to_jsonl(view=args.view))
        report["transcript"] = args.transcript
    # enumerate mode gates on its worst branch, not only on the carried one
    worst = result.fidelity if result.worst_branch_fidelity is None else result.worst_branch_fidelity
    return report, worst >= 1.0 - 1e-9


def cmd_audit(args) -> tuple[dict, bool]:
    from . import protocol

    rep = protocol.audit_blindness(grid_n=args.grid)
    return {
        "ancilla_trace_distance": rep.ancilla_trace_distance,
        "angle_max_nonuniformity": rep.angle_max_nonuniformity,
        "angle_tvd": rep.angle_tvd,
        "output_diag_error": rep.output_diag_error,
        "output_gamma_spread": rep.output_gamma_spread,
    }, rep.passed


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _tol(value: str) -> float:
    try:
        tol = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance must be a number, got {value!r}") from None
    if not (0.0 < tol <= 1e-3):
        raise argparse.ArgumentTypeError("tolerance must lie in (0, 1e-3]")
    return tol


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 2 with a JSON error on stderr, as every other bad
    input does; ``--help`` is unchanged."""

    def error(self, message):
        sys.exit(_fail(message))


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one.  It stores no handler: ``main`` looks up ``cmd_<subcommand>`` when
    it runs, so a handler wrapped or patched after the first call is the one
    that runs."""
    parser = _Parser(
        prog="adqc",
        description="measurement-driven gate simulation: verification and blind delegation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-tables", help="classify the admissible parameter rows")
    p.add_argument("--tol", type=_tol, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--negatives", type=int, default=1000)

    p = sub.add_parser("sweep", help="unitarity and strength-relation sweep")
    p.add_argument("--points", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_tol, default=1e-9)

    p = sub.add_parser("verify-patterns", help="validate standard and compiled patterns")
    p.add_argument("--tol", type=_tol, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--circuits", type=int, default=10)

    p = sub.add_parser("delegate", help="run a blind delegated circuit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--grid", type=int, default=8)
    p.add_argument("--variant", choices=["single", "two"], default="two")
    p.add_argument("--mode", choices=["sample", "enumerate"], default="sample")
    p.add_argument("--transcript", help="write the message log to this JSONL file")
    p.add_argument("--view", choices=["full", "server"], default="full")

    p = sub.add_parser("audit", help="exhaustive blindness audit")
    p.add_argument("--grid", type=int, default=8)

    for sp in sub.choices.values():
        sp.add_argument("--out", help="also write the JSON report to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = {k: v for k, v in sorted(vars(args).items()) if v is not None}
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        _require_count(getattr(args, "seed", 0), "--seed", 0)  # every subcommand that takes one
        body, ok = handler(args)
        report = {
            "schema": {"name": args.command, "version": SCHEMA_VERSION},
            "config": config,
            "pass": bool(ok),
            **body,
        }
        _emit(report, args.out)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs, ops, output checks and layer targets of the adqc benchmark.

Every op calls adqc through module attributes (``patterns.verify_pattern``,
not a name bound at import), so the traced run's wrappers see each call.
The seed chooses gate kinds, angles, targets, secrets and per-op seeds; the
circuit shapes (qubit count, variant, one-qubit gate count, CZ count) are
fixed lists, because they set an op's cost and the cost of an op set must not
depend on the seed.
"""
from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

from adqc import cli, patterns, protocol
from spans import Target

GRID = 8
FIDELITY_FLOOR = 1 - 1e-9
SWEEP_POINTS = 100
DELEGATE_OPS = 100
SWEEP_OPS = 40

# the six patterns `adqc verify-patterns` checks
STANDARD_PATTERNS = (
    ("J", 0.7, "single"),
    ("ASSIST", None, "single"),
    ("CZ", None, "single"),
    ("RX", 1.1, "two"),
    ("RZ", 2.0, "two"),
    ("CZ", None, "two"),
)

# (qubits, variant, one-qubit gates, CZ gates).  Variants alternate.  Patterns
# of at most 13 steps are verified by flat enumeration (2^steps branches per
# input) and longer ones slot by slot.  Flat shapes stay on one or two qubits:
# one flat 12-step pattern on three qubits takes about 8 s.
VERIFY_SHAPES = (
    (1, "two", 1, 0), (2, "single", 1, 1), (3, "two", 2, 1), (1, "single", 1, 0),
    (2, "two", 3, 0), (3, "single", 1, 1), (1, "two", 3, 0), (2, "single", 2, 1),
    (3, "two", 0, 2), (1, "single", 2, 0), (2, "two", 2, 1), (3, "single", 1, 1),
    (1, "two", 1, 0), (2, "single", 1, 1),
)
DELEGATE_SHAPES = (
    (1, "two", 2, 0), (2, "single", 1, 1), (3, "two", 2, 1), (1, "single", 2, 0),
    (2, "two", 3, 0), (3, "single", 1, 1), (1, "two", 3, 0), (2, "single", 2, 0),
    (3, "two", 0, 2), (1, "single", 1, 0), (2, "two", 2, 1), (3, "single", 2, 1),
)

WORKLOADS = ("verify", "delegate", "sweep")
# index mixed into the seed so the workloads draw independent streams
_STREAM = {w: i for i, w in enumerate(WORKLOADS)}


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.  ``run`` returns (output is correct, exact
    output bytes for the digest)."""

    label: str
    run: Callable[[], tuple[bool, bytes]]


def random_circuit(rng: np.random.Generator, qubits: int, n1q: int, ncz: int):
    kinds = ["CZ"] * ncz + [("H", "Rx", "Rz")[int(rng.integers(3))] for _ in range(n1q)]
    rng.shuffle(kinds)
    gates = []
    for kind in kinds:
        if kind == "CZ":
            a, b = rng.choice(qubits, 2, replace=False)
            gates.append(patterns.CircuitGate("CZ", (int(a), int(b))))
        else:
            q = int(rng.integers(qubits))
            angle = None if kind == "H" else float(rng.integers(GRID)) * 2 * math.pi / GRID
            gates.append(patterns.CircuitGate(kind, (q,), angle))
    return patterns.CircuitDescription(qubits, tuple(gates))


def _record(*fields) -> bytes:
    return repr(fields).encode()


def _verify_standard(kind, theta, variant):
    rep = patterns.verify_pattern(patterns.standard_pattern(kind, theta, variant))
    return rep.valid, _record(rep.valid, rep.mode, len(rep.branch_probabilities))


def _verify_circuit(circuit, variant):
    rep = patterns.verify_pattern(patterns.compile_circuit(circuit, variant))
    return rep.valid, _record(rep.valid, rep.mode, len(rep.branch_probabilities))


def _delegate(circuit, variant, secret_seed, run_seed, mode):
    secret = protocol.ClientSecret(circuit, variant, GRID, secret_seed)
    res = protocol.run_delegation(secret, seed=run_seed, mode=mode)
    if mode == "enumerate":
        ok = res.worst_branch_fidelity >= FIDELITY_FLOOR
        # the delegation result exposes no branch count; the transcript
        # length stands in for the size of the slot walk
        return ok, _record(ok, mode, len(res.transcript.messages))
    return res.fidelity >= FIDELITY_FLOOR, res.transcript.to_jsonl(view="server").encode()


def _sweep(seed):
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = cli.main(["sweep", "--points", str(SWEEP_POINTS), "--seed", str(seed)])
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code
    text = out.getvalue()
    ok = code == 0
    if ok:
        report = json.loads(text)
        ok = report["pass"] is True and report["agreement_rate"] == 1.0
    return ok, text.encode()


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def build_ops(workload: str, seed: int) -> list[Op]:
    """The workload's fixed op set for this seed."""
    rng = np.random.default_rng([seed, _STREAM[workload]])
    ops: list[Op] = []
    if workload == "verify":
        for kind, theta, variant in STANDARD_PATTERNS:
            ops.append(Op(f"standard:{variant}:{kind}",
                          lambda a=(kind, theta, variant): _verify_standard(*a)))
        for i, (n, variant, n1q, ncz) in enumerate(VERIFY_SHAPES):
            circuit = random_circuit(rng, n, n1q, ncz)
            ops.append(Op(f"verify:{i}", lambda c=circuit, v=variant: _verify_circuit(c, v)))
            args = (circuit, variant, _seed(rng), _seed(rng), "enumerate")
            ops.append(Op(f"enumerate:{i}", lambda a=args: _delegate(*a)))
    elif workload == "delegate":
        for i in range(DELEGATE_OPS):
            n, variant, n1q, ncz = DELEGATE_SHAPES[i % len(DELEGATE_SHAPES)]
            args = (random_circuit(rng, n, n1q, ncz), variant, _seed(rng), _seed(rng), "sample")
            ops.append(Op(f"sample:{i}", lambda a=args: _delegate(*a)))
    elif workload == "sweep":
        for i in range(SWEEP_OPS):
            ops.append(Op(f"sweep:{i}", lambda s=_seed(rng): _sweep(s)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def sweep_workers():
    """Worker count the sweep CLI resolves, or None if it has no pool."""
    resolve = getattr(cli, "_worker_count", None)
    return resolve() if resolve is not None else None


# ---------------------------------------------------------------------------
# layers traced in the per-layer run
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, key, default):
    return kwargs[key] if key in kwargs else args[index] if len(args) > index else default


def _on_run_pattern(tracer, args, kwargs, result):
    if _arg(args, kwargs, 2, "mode", "enumerate") == "enumerate":
        tracer.count("register.branches", len(result.branches))
        tracer.count("register.branch_space", 2 ** len(_arg(args, kwargs, 1, "pattern", None).steps))


def _on_verify_pattern(tracer, args, kwargs, result):
    # each verify op makes exactly one verify_pattern call
    if result.mode == "flat":
        tracer.count("patterns.verify_pattern.flat_ops")


def _on_run_delegation(tracer, args, kwargs, result):
    tracer.count("protocol.messages", len(result.transcript.messages))


def _on_sweep(tracer, args, kwargs, result):
    tracer.count("conditions.points", result["points"])


def _delegation_name(args, kwargs):
    return "protocol.run_delegation." + _arg(args, kwargs, 3, "mode", "sample")


LAYER_TARGETS = (
    Target("adqc.linalg", "PureState.__post_init__", "linalg.PureState"),
    Target("adqc.linalg", "tensor", "linalg.tensor"),
    Target("adqc.core", "assemble_entangler", "core.assemble_entangler"),
    Target("adqc.core", "kraus_pair", "core.kraus_pair"),
    Target("adqc.core", "branch_analysis", "core.branch_analysis"),
    Target("adqc.conditions", "unitarity_relation_sweep",
           "conditions.unitarity_relation_sweep", _on_sweep),
    Target("adqc.register", "step_branch_operators", "register.step_branch_operators"),
    Target("adqc.register", "run_pattern", "register.run_pattern", _on_run_pattern),
    Target("adqc.patterns", "compile_circuit", "patterns.compile_circuit"),
    Target("adqc.patterns", "verify_pattern", "patterns.verify_pattern", _on_verify_pattern),
    Target("adqc.protocol", "run_delegation", _delegation_name, _on_run_delegation),
    Target("adqc.protocol", "server_step", "protocol.server_step"),
    Target("adqc.protocol", "Server.__init__", "protocol.Server"),
    Target("adqc.protocol", "Client.prepare_ancilla", "protocol.Client.prepare_ancilla"),
    Target("adqc.protocol", "Client.angle_message", "protocol.Client.angle_message"),
    Target("adqc.cli", "main", "cli.main"),
    Target("adqc.cli", "cmd_sweep", "cli.cmd_sweep"),
)

# (span name, statistics reported for it)
_SPAN_METRICS = (
    ("linalg.PureState", ("calls", "self_s")),
    ("linalg.tensor", ("calls", "self_s")),
    ("core.assemble_entangler", ("calls", "self_s")),
    ("core.kraus_pair", ("calls", "self_s")),
    ("core.branch_analysis", ("calls", "self_s")),
    ("conditions.unitarity_relation_sweep", ("calls", "self_s")),
    ("register.step_branch_operators", ("calls", "self_s")),
    ("register.run_pattern", ("calls", "self_s")),
    ("patterns.compile_circuit", ("calls", "self_s")),
    ("patterns.verify_pattern", ("calls", "self_s")),
    ("protocol.run_delegation.sample", ("calls", "self_s")),
    ("protocol.run_delegation.enumerate", ("calls", "self_s")),
    ("protocol.server_step", ("calls", "self_s")),
    ("protocol.Server", ("calls",)),
    ("protocol.Client.prepare_ancilla", ("self_s",)),
    ("protocol.Client.angle_message", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("cli.cmd_sweep", ("self_s",)),
)
_UNITS = {"calls": "count", "self_s": "s"}

# every per-layer metric, in report order, with its unit
PER_LAYER = tuple(
    (f"{span}.{stat}", _UNITS[stat]) for span, stats in _SPAN_METRICS for stat in stats
) + (
    ("conditions.points_per_s", "1/s"),
    ("register.branches", "count"),
    ("register.branch_yield", "ratio"),
    ("register.branches_per_s", "1/s"),
    ("patterns.verify_pattern.flat_ops", "count"),
    ("protocol.messages", "count"),
    ("trace.overhead", "ratio"),
)

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, counters) -> dict[str, float]:
    """Per-layer values of one traced pass (``trace.overhead`` excluded).
    Spans that never ran report zero."""
    out = {}
    for span, stats in _SPAN_METRICS:
        row = summary.get(span, {})
        for stat in stats:
            out[f"{span}.{stat}"] = row.get(stat, 0)
    sweep_s = summary.get("conditions.unitarity_relation_sweep", {}).get("total_s", 0.0)
    run_s = summary.get("register.run_pattern", {}).get("total_s", 0.0)
    out["conditions.points_per_s"] = _ratio(counters["conditions.points"], sweep_s)
    out["register.branches"] = counters["register.branches"]
    out["register.branch_yield"] = _ratio(counters["register.branches"], counters["register.branch_space"])
    out["register.branches_per_s"] = _ratio(counters["register.branches"], run_s)
    out["patterns.verify_pattern.flat_ops"] = counters["patterns.verify_pattern.flat_ops"]
    out["protocol.messages"] = counters["protocol.messages"]
    return out

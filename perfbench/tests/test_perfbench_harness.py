"""Tests of the benchmark harness: span arithmetic, wrapper installation, and
that tracing changes no result."""
import json
import sys
import threading
import types
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402


def _span(name, start, end, parent=None, thread=1):
    return [name, start, end, parent, thread, 0]


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------


def test_self_time_of_nested_spans():
    s = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("b", 5.0, 7.0, parent=0),
    ]
    assert spans.self_times(s) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_with_children_overlapping_across_threads():
    # two pool threads under one parent, overlapping on [3, 4]
    s = [
        _span("parent", 0.0, 10.0, thread=1),
        _span("w1", 1.0, 4.0, parent=0, thread=2),
        _span("w2", 3.0, 6.0, parent=0, thread=3),
        _span("w1.next", 4.5, 5.5, parent=0, thread=2),
    ]
    # union of children is [1, 6]
    assert spans.self_times(s)[0] == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    s = [_span("parent", 0.0, 5.0), _span("late", 4.0, 7.0, parent=0)]
    assert spans.self_times(s) == pytest.approx([4.0, 3.0])


def test_summarize_sums_calls_and_self_time_per_name():
    s = [
        _span("f", 0.0, 4.0),
        _span("g", 1.0, 2.0, parent=0),
        _span("g", 2.5, 3.0, parent=0),
    ]
    out = spans.summarize(s)
    assert out["f"] == pytest.approx({"calls": 1, "self_s": 2.5, "total_s": 4.0})
    assert out["g"] == pytest.approx({"calls": 2, "self_s": 1.5, "total_s": 1.5})


# ---------------------------------------------------------------------------
# wrapper installation
# ---------------------------------------------------------------------------


@pytest.fixture
def fakepkg(monkeypatch):
    """A package whose function is referenced from two module namespaces and
    which runs part of its work on a thread pool."""
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")
    pkg = types.ModuleType("fakepkg")

    def leaf(x):
        return x + 1

    class Box:
        def method(self, x):
            return core.leaf(x) * 2

    def fan_out(xs):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(user.leaf, xs))

    core.leaf, core.Box, core.fan_out = leaf, Box, fan_out
    user.leaf = leaf
    pkg.core, pkg.user = core, user
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    targets = (
        spans.Target("fakepkg.core", "leaf", "leaf"),
        spans.Target("fakepkg.core", "Box.method", "Box.method"),
        spans.Target("fakepkg.core", "fan_out", "fan_out"),
        spans.Target("fakepkg.core", "absent", "absent"),
    )
    return core, user, targets


def test_install_replaces_every_reference_and_uninstall_restores(fakepkg):
    core, user, targets = fakepkg
    leaf, method = core.leaf, core.Box.method
    tracer = spans.Tracer()
    tracer.install(targets, "fakepkg")
    assert core.leaf is not leaf and user.leaf is core.leaf
    assert tracer.missing == ["fakepkg.core.absent"]
    with tracer.op(7):
        assert core.Box().method(1) == 4
        assert user.leaf(1) == 2
    tracer.uninstall()
    assert core.leaf is leaf and user.leaf is leaf and core.Box.method is method

    recorded, _ = tracer.take()
    assert [s[spans.NAME] for s in recorded] == ["Box.method", "leaf", "leaf"]
    assert recorded[1][spans.PARENT] == 0 and recorded[2][spans.PARENT] is None
    assert {s[spans.OP] for s in recorded} == {7}


def test_pool_thread_spans_nest_under_the_submitting_span(fakepkg):
    core, _, targets = fakepkg
    tracer = spans.Tracer()
    tracer.install(targets, "fakepkg")
    try:
        with tracer.op(0):
            assert core.fan_out([1, 2, 3, 4]) == [2, 3, 4, 5]
    finally:
        tracer.uninstall()
    recorded, _ = tracer.take()
    assert recorded[0][spans.NAME] == "fan_out"
    workers = recorded[1:]
    assert len(workers) == 4
    assert all(s[spans.PARENT] == 0 for s in workers)
    assert all(s[spans.THREAD] != threading.get_ident() for s in workers)


# ---------------------------------------------------------------------------
# the benchmark's ops
# ---------------------------------------------------------------------------


def _small_ops():
    """A few cheap ops of every workload (the flat single-variant CZ, which
    takes seconds, is left out)."""
    ops = [op for op in workloads.build_ops("verify", 3) if op.label != "standard:single:CZ"][:7]
    ops += workloads.build_ops("delegate", 3)[:3]
    ops += workloads.build_ops("sweep", 3)[:2]
    return ops


def test_tracing_changes_no_output():
    ops = _small_ops()
    _, _, untraced_failures, untraced = run.run_pass(ops, None, 0)
    tracer = spans.Tracer()
    tracer.install(workloads.LAYER_TARGETS, "adqc")
    try:
        _, _, traced_failures, traced = run.run_pass(ops, tracer, 0)
    finally:
        tracer.uninstall()
    assert untraced_failures == [] and traced_failures == []
    assert traced == untraced
    assert tracer.missing == []

    recorded, counters = tracer.take()
    metrics = workloads.layer_metrics(spans.summarize(recorded), counters)
    for name in (
        "patterns.verify_pattern.calls",
        "protocol.run_delegation.enumerate.calls",
        "protocol.run_delegation.sample.calls",
        "conditions.unitarity_relation_sweep.calls",
        "register.branches",
        "protocol.messages",
    ):
        assert metrics[name] > 0, name
    assert metrics["register.branch_yield"] == pytest.approx(1.0)


def test_same_seed_gives_the_same_outputs():
    first = run.run_pass(workloads.build_ops("delegate", 4)[:4], None, 0)[3]
    again = run.run_pass(workloads.build_ops("delegate", 4)[:4], None, 0)[3]
    other = run.run_pass(workloads.build_ops("delegate", 5)[:4], None, 0)[3]
    assert first == again != other


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(workloads.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    reported = set(workloads.layer_metrics({}, Counter())) | {"trace.overhead"}
    assert reported == {name for name, _ in workloads.PER_LAYER}

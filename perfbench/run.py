"""adqc benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 45 --trace 0

The load is a closed loop: one process, one client, each op starting when the
previous one ends.  The workload's seeded op set (one "pass") repeats until
``--seconds`` have elapsed and at least ``MIN_OPS`` ops have run.

``--trace 0`` reports the end-to-end metrics and installs no wrapper.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (medians over traced passes), plus the tracing
overhead: median traced pass time over median untraced pass time.  Its spans
are written to ``.perfbench_out/`` at the root of the checkout.

The last line of stdout is the result JSON; the line before it is an info
JSON with the environment, the output digest and the sample counts.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MIN_OPS = 100
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_process() -> None:
    """Pin BLAS to one thread and put this checkout's src/ first on the
    import path.  Call before numpy is imported."""
    if not (SRC / "adqc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no adqc package under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # Sweep ops run one worker.  With the CLI default of two workers on two
    # CPUs, the sweep's wall_s spread 0.24 (IQR/median) across five seeds.
    os.environ["ADQC_THREADS"] = "1"
    sys.path.insert(0, str(SRC))


def check_import() -> None:
    import adqc

    if not Path(adqc.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: adqc imported from {adqc.__file__}, not from {SRC}")


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to inputs ready, in fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed), repr(t0)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_pass(ops, tracer, first_op_id: int):
    """Run the op set once.  Returns (wall seconds, per-op seconds, failures,
    digest of the exact outputs)."""
    digest = hashlib.sha256()
    latencies, failures = [], []
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                ok, output = op.run()
            else:
                with tracer.op(first_op_id + i):
                    ok, output = op.run()
        except Exception as exc:  # a failing op is counted, never fatal
            ok, output = False, f"error: {type(exc).__name__}: {exc}".encode()
        latencies.append(time.perf_counter() - t0)
        if not ok:
            failures.append(f"{op.label}: {output[:200].decode(errors='replace')}")
        digest.update(len(output).to_bytes(8, "little") + output)
    return time.perf_counter() - t_pass, latencies, failures, digest.hexdigest()


def environment(workloads) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "adqc_threads_resolved": workloads.sweep_workers(),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "delegate", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    prepare_process()
    check_import()
    import spans
    import workloads

    ops = workloads.build_ops(args.workload, args.seed)
    setup = [] if args.trace else measure_setup(args.workload, args.seed)

    tracer = spans.Tracer() if args.trace else None
    walls = {False: [], True: []}  # keyed by "traced"
    latencies, failures, digests, traced_passes, per_pass = [], [], [], [], []
    t_start = time.perf_counter()
    n_pass = 0
    while True:
        traced = bool(args.trace) and n_pass % 2 == 1
        if traced:
            tracer.install(workloads.LAYER_TARGETS, "adqc")
        try:
            wall, lat, fail, digest = run_pass(ops, tracer if traced else None, n_pass * len(ops))
        finally:
            if traced:
                tracer.uninstall()
        n_pass += 1
        walls[traced].append(wall)
        latencies += lat
        failures += fail
        digests.append(digest)
        if traced:
            pass_spans, counters = tracer.take()
            traced_passes.append((n_pass, pass_spans))
            per_pass.append(workloads.layer_metrics(spans.summarize(pass_spans), counters))
        done = time.perf_counter() - t_start >= args.seconds
        if args.trace:
            if done and walls[True]:
                break
        elif done and len(latencies) >= MIN_OPS:
            break

    lat_ms = sorted(x * 1e3 for x in latencies)
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(workloads),
        "digest": digests[0],
        "digest_stable": len(set(digests)) == 1,
        "passes": n_pass,
        "ops_per_pass": len(ops),
        "ops": len(lat_ms),
        "samples_beyond_p90": sum(x > p90 for x in lat_ms),
        "pass_walls_s": [round(w, 4) for w in walls[False]],
        "failures": failures[:10],
    }
    if args.trace:
        overhead = statistics.median(walls[True]) / statistics.median(walls[False])
        metrics = {
            name: {"value": statistics.median(p[name] for p in per_pass), "unit": unit}
            for name, unit in workloads.PER_LAYER if name != "trace.overhead"
        }
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        span_file = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
        spans.write_spans(span_file, traced_passes)
        info.update({
            "traced_pass_walls_s": [round(w, 4) for w in walls[True]],
            "spans_file": str(span_file.relative_to(ROOT)),
            "missing_targets": tracer.missing,
        })
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": p90,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in workloads.END_TO_END}
        info["setup_probes_s"] = [round(s, 4) for s in setup]
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(lat_ms),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

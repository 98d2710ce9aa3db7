"""Time and memory of long circuits in the checkout this script sits in.

    python3 tools/scale_table.py 100 300 1000 3000

For each gate count it builds the circuit of that many H gates on one qubit
in variant ``two`` and prints one row of a Markdown table: the compile time
of ``compile_circuit``, the ``tracemalloc`` peak of that compile, the time
of one ``verify_pattern`` of the compiled pattern (which must be valid; the
slot checks are cached after the first of the runs, so the best run times
the keys and the final product), and the time of one ``run_delegation`` in
``enumerate`` mode on an 8-point grid (its secret, which compiles the
circuit again, is built before the clock starts), then the ``tracemalloc``
peak of one more such delegation.  The verify runs come last and check the
secret's pattern.  Each time is the best of REPEATS runs.  Standard library
and numpy only; it imports ``adqc`` from this checkout's ``src``.
"""
from __future__ import annotations

import argparse
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from adqc.patterns import CircuitDescription, CircuitGate, compile_circuit, verify_pattern  # noqa: E402
from adqc.protocol import ClientSecret, run_delegation  # noqa: E402

VARIANT, GRID, SEED, REPEATS = "two", 8, 1, 3


def best_time(run) -> float:
    """The least wall time of REPEATS calls of ``run``, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def traced_peak(run) -> int:
    """The ``tracemalloc`` peak, in bytes, of one call of ``run``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def row(gates: int) -> dict:
    """Compile time, compile memory peak, verify time, and enumerated-delegation
    time and memory peak at ``gates`` H gates; the pattern must verify and the
    delegation reach fidelity 1."""
    circuit = CircuitDescription(1, (CircuitGate("H", (0,)),) * gates)
    compile_s = best_time(lambda: compile_circuit(circuit, VARIANT))
    peak = traced_peak(lambda: compile_circuit(circuit, VARIANT))
    secret = ClientSecret(circuit, VARIANT, GRID, SEED)
    results = []
    enumerate_s = best_time(lambda: results.append(run_delegation(secret, seed=SEED, mode="enumerate")))
    enumerate_peak = traced_peak(lambda: results.append(run_delegation(secret, seed=SEED, mode="enumerate")))
    if min(res.worst_branch_fidelity for res in results) < 1 - 1e-9:
        raise RuntimeError(f"the enumerated delegation of {gates} gates lost fidelity")
    reports = []
    verify_s = best_time(lambda: reports.append(verify_pattern(secret.pattern)))
    if not all(rep.valid for rep in reports):
        raise RuntimeError(f"the pattern of {gates} gates was refused: {reports[0].detail}")
    return {"gates": gates, "compile_s": compile_s, "peak_mib": peak / 2**20, "verify_s": verify_s,
            "enumerate_s": enumerate_s, "enumerate_peak_mib": enumerate_peak / 2**20}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("gates", type=int, nargs="+", help="gate counts, one table row each")
    args = parser.parse_args(argv)
    if min(args.gates) < 1:
        parser.error("gate counts must be at least 1")
    print("| gates | compile | compile peak | verify | enumerated delegation | enumerate peak |")
    print("|---|---|---|---|---|---|")
    for gates in args.gates:
        r = row(gates)
        print(f"| {r['gates']:,} | {r['compile_s']:.3f} s | {r['peak_mib']:.1f} MiB | {r['verify_s']:.3f} s"
              f" | {r['enumerate_s']:.3f} s | {r['enumerate_peak_mib']:.1f} MiB |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

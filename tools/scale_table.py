"""Time and memory of long circuits in the checkout this script sits in.

    python3 tools/scale_table.py 100 300 1000 3000

For each gate count it builds the circuit of that many H gates on one qubit
in variant ``two`` and prints one row of a Markdown table: the compile time
of ``compile_circuit``, the ``tracemalloc`` peak of that compile, and the
time of one ``run_delegation`` in ``enumerate`` mode on an 8-point grid (its
secret, which compiles the circuit again, is built before the clock
starts).  Each time is the best of REPEATS runs.  Standard library and
numpy only; it imports ``adqc`` from this checkout's ``src``.
"""
from __future__ import annotations

import argparse
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from adqc.patterns import CircuitDescription, CircuitGate, compile_circuit  # noqa: E402
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


def row(gates: int) -> dict:
    """Compile time, compile memory peak and enumerated-delegation time at
    ``gates`` H gates; the delegation must reach fidelity 1."""
    circuit = CircuitDescription(1, (CircuitGate("H", (0,)),) * gates)
    compile_s = best_time(lambda: compile_circuit(circuit, VARIANT))
    tracemalloc.start()
    compile_circuit(circuit, VARIANT)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    secret = ClientSecret(circuit, VARIANT, GRID, SEED)
    results = []
    enumerate_s = best_time(lambda: results.append(run_delegation(secret, seed=SEED, mode="enumerate")))
    if min(res.worst_branch_fidelity for res in results) < 1 - 1e-9:
        raise RuntimeError(f"the enumerated delegation of {gates} gates lost fidelity")
    return {"gates": gates, "compile_s": compile_s, "peak_mib": peak / 2**20, "enumerate_s": enumerate_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("gates", type=int, nargs="+", help="gate counts, one table row each")
    args = parser.parse_args(argv)
    if min(args.gates) < 1:
        parser.error("gate counts must be at least 1")
    print("| gates | compile | compile peak | enumerated delegation |")
    print("|---|---|---|---|")
    for gates in args.gates:
        r = row(gates)
        print(f"| {r['gates']:,} | {r['compile_s']:.3f} s | {r['peak_mib']:.1f} MiB | {r['enumerate_s']:.3f} s |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

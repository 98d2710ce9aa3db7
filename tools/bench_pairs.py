"""Compare two commits on the benchmark and write ``BENCH_<n>.json``.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH_12.json
    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --out pairs.json --workload delegate

Each commit's files are exported with ``git archive`` into a fresh temporary
directory, so the working tree and the repository's refs stay as they are.

For every workload that ``BENCHMARK.json`` lists (or each ``--workload``
given, which may be one that ``perfbench/run.py`` runs but the file does not
list, such as ``delegate``), the unmodified
``perfbench/run.py`` of each checkout runs for ``run_seconds`` at seed 7919,
alternating parent and change and swapping which goes first on every other
pair, for 10 pairs.  The end-to-end metrics are read from the result line of
each run: this script takes no timings of its own.  Each output row is one
(workload, metric) with, for the parent and the change, the median, the
quartiles and the per-run ``values`` in pair order, so each pair can be read
back; then the number of pairs, in how many of them the change was
better, and ``claim_rule_met``: true when the change was better in at least
9 of the 10 pairs and its median is better than the parent's by more than
the parent's interquartile range (q3 - q1), the rule a claimed gain must
meet; and the metric's ``bound`` from the ``end_to_end`` entry of
``BENCHMARK.json`` with ``within_bound``: true when the change's median is
no worse than the parent's by more than ``bound`` times the parent's median,
the rule every metric must meet for the change to show no regression.  The
file also
records the seed, the run length, ``nproc`` and the Python and numpy versions
the runs report, whether both sides gave the same output digest, and per
workload and side the ops attempted and failed, summed over its runs, so the
shares of failed ops on the two sides can be compared, and each side's line
count of ``src/adqc/*.py`` as ``src_lines``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7919  # the benchmark's held-out seed
PAIRS = 10
CLAIM_WINS = 9  # pairs of PAIRS the change must win for a claimed gain


def export(ref: str, dest: Path) -> str:
    """Write the files of commit ``ref`` under ``dest``; return its hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def src_lines(checkout: Path) -> int:
    """Lines of the package's modules, ``src/adqc/*.py``, in ``checkout``."""
    return sum(len(path.read_text().splitlines()) for path in (checkout / "src" / "adqc").glob("*.py"))


def run_once(checkout: Path, workload: str, seconds: int) -> tuple[dict, dict]:
    """One benchmark run in ``checkout``: its (info, result) lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info_line)["info"], json.loads(result_line)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def claim_rule(parent: list[float], change: list[float], better: str) -> tuple[int, bool]:
    """The pairs in which the change was better, and whether it won at least
    CLAIM_WINS of them with a median better than the parent's by more than
    the parent's interquartile range."""
    sign = 1 if better == "lower" else -1  # a positive difference is a gain
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q = quartiles(parent)
    gain = sign * (q["median"] - quartiles(change)["median"])
    return wins, wins >= CLAIM_WINS and gain > q["q3"] - q["q1"]


def within_bound(parent: list[float], change: list[float], better: str, bound: float) -> bool:
    """Whether the change's median is no worse than the parent's by more
    than ``bound`` times the parent's median."""
    sign = 1 if better == "lower" else -1  # a positive difference is a regression
    before = quartiles(parent)["median"]
    return sign * (quartiles(change)["median"] - before) <= bound * abs(before)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit before the change")
    parser.add_argument("--change", required=True, help="commit with the change")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--workload", action="append", help="a workload to run (repeatable); default: BENCHMARK.json's")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    rows, envs, digests = [], set(), {}
    ops = {w: {side: {"attempted": 0, "failed": 0} for side in ("parent", "change")} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: export(getattr(args, side), path) for side, path in sides.items()}
        lines = {side: src_lines(path) for side, path in sides.items()}
        for workload in workloads:
            values = {side: {m: [] for m in metrics} for side in sides}
            for i in range(PAIRS):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    info, result = run_once(sides[side], workload, seconds)
                    env = info["env"]
                    envs.add((env["nproc"], env["python"], env["numpy"]))
                    digests.setdefault((workload, side), set()).add(info["digest"])
                    for count in ("attempted", "failed"):
                        ops[workload][side][count] += result[count]
                    for m in metrics:
                        values[side][m].append(result["metrics"][m]["value"])
                    print(f"{workload} pair {i + 1}/{PAIRS} {side}: "
                          + " ".join(f"{m}={values[side][m][-1]:.4g}" for m in metrics), file=sys.stderr)
            for m, entry in metrics.items():
                parent, change, better = values["parent"][m], values["change"][m], entry["better"]
                wins, met = claim_rule(parent, change, better)
                rows.append({
                    "workload": workload, "metric": m, "better": better, "pairs": PAIRS,
                    "parent": {**quartiles(parent), "values": parent},
                    "change": {**quartiles(change), "values": change},
                    "change_better_pairs": wins,
                    "claim_rule_met": met,
                    "bound": entry["bound"],
                    "within_bound": within_bound(parent, change, better, entry["bound"]),
                })

    (nproc, python, numpy), *others = sorted(envs)
    if others:
        raise SystemExit(f"bench_pairs: runs reported different environments: {sorted(envs)}")
    report = {
        "parent": commits["parent"],
        "change": commits["change"],
        "seed": SEED,
        "seconds": seconds,
        "nproc": nproc,
        "python": python,
        "numpy": numpy,
        "ops": ops,
        "src_lines": lines,
        "same_digest": {w: len(digests[w, "parent"] | digests[w, "change"]) == 1 for w in workloads},
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

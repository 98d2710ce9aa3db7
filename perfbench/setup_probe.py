"""Set up one workload in a fresh process and print the seconds elapsed since
the parent's ``time.monotonic()`` reading passed as the third argument.

    python3 perfbench/setup_probe.py <workload> <seed> <t0>

Set-up is what a run does before its first op: import adqc and generate the
seeded inputs.
"""
import sys
import time

from run import check_import, prepare_process


def main() -> None:
    workload, seed, t0 = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    prepare_process()
    check_import()
    import workloads

    workloads.build_ops(workload, seed)
    print(time.monotonic() - t0)


if __name__ == "__main__":
    main()

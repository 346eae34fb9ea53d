"""Time one benchmark set-up in a fresh interpreter, then the reference
task (calibrate.py); print both in seconds.

Set-up is: import csmulmod, build the workload's inputs from the seed and
finish one warm-up instance. The reference task's time is the median of
several runs right after the set-up. run.py starts this several times per
run, scales each set-up time by its reference task's time and reports the
median as ``setup_s``.

    python3 perfbench/setup_probe.py --workload NAME --seed N
"""

import argparse
import statistics
import sys
import time

import run
from calibrate import probe_s

PROBES = 5


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    run.load_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if not workload.warm_up(workload.build(args.seed)):
        sys.exit("perfbench: warm-up instance failed the oracle")
    setup_s = time.perf_counter() - start
    print(setup_s, statistics.median(probe_s() for _ in range(PROBES)))


if __name__ == "__main__":
    main()

"""Self-test of the benchmark's determinism and seeding.

    python3 perfbench/selftest.py [--workload NAME ...]

Checks, from the root of a checkout:

* the input generator gives the same inputs for one seed and different
  inputs for two seeds, for every workload;
* one seed run twice, each time in a fresh interpreter and traced, gives
  identical sim-time figures, output-check results and layer counts.

Exits 0 when every check passes.  Takes about two minutes for all three
workloads on a 2-CPU machine.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from run import run_child, sim_fingerprint  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    args = parser.parse_args()
    problems = []
    for name in args.workload or sorted(WORKLOADS):
        cls = WORKLOADS[name]
        if cls(1).specs != cls(1).specs:
            problems.append(f"{name}: seed 1 gave two different inputs")
        if cls(1).specs == cls(2).specs:
            problems.append(f"{name}: seeds 1 and 2 gave the same inputs")
        first, second = (sim_fingerprint(run_child(name, 1, trace=1))
                         for _ in range(2))
        diff = sorted(k for k in first.keys() | second.keys()
                      if first.get(k) != second.get(k))
        if diff:
            problems.append(f"{name}: seed 1 run twice differs in {diff}")
        print(f"{name}: checked {len(first)} figures", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

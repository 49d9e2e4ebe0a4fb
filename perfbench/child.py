"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this file once per repetition, so process-wide counters
in the program (data uids, flow, host and transfer ids) start from the
same state every time.  It prints one JSON object on its last line:
host times, the sim-time figures and, with ``--trace 1``, the layer split.

    PYTHONPATH=src python3 perfbench/child.py --workload churn --seed 1
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from typing import Any, Dict

from workloads import WORKLOADS, percentile


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed)

    start = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - start
    if tracer is not None:
        tracer.phase = "run"
    start = time.perf_counter()
    workload.run()
    run_s = time.perf_counter() - start
    if tracer is not None:
        tracer.stop()
    start = time.perf_counter()
    raw = workload.results()
    check_s = time.perf_counter() - start

    syncs = raw.pop("sync_latencies_s")
    fills = raw.pop("fill_times_s")
    out: Dict[str, Any] = {
        "setup_s": setup_s,
        "run_s": run_s,
        "check_s": check_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_sync_p50_ms": percentile(syncs, 50) * 1e3,
        "sim_sync_p99_ms": percentile(syncs, 99) * 1e3,
        "sync_samples": len(syncs),
        "sim_repair_p50_s": percentile(fills, 50),
        "sim_repair_p99_s": percentile(fills, 99),
        "repair_samples": len(fills),
        **raw,
    }
    if tracer is not None:
        out["layers"] = tracer.report(workload, setup_s, run_s)
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()

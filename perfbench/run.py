"""Benchmark entry point: repeat one workload for a fixed time, report medians.

    python3 perfbench/run.py --workload grid-storm --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  Each repetition runs ``child.py`` in a
fresh interpreter (one at a time), so no process-wide counter of the
program leaks from one repetition into the next.  Repetitions start while
the next one is expected to end within ``--seconds``; at least one runs.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` untraced and traced
repetitions alternate, and the metrics are the per-layer split of the
traced ones plus the tracing overhead.  Lines before it give the
provenance and one summary per repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 170

#: Fields of a repetition that measure the host, not the simulated system.
HOST_FIELDS = {"setup_s", "run_s", "check_s", "peak_rss_mb"}


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> Dict[str, Any]:
    """Where and on what a run was made; git fields are null outside git."""
    revision = dirty = None
    if _git("rev-parse", "--show-toplevel") == ROOT:
        revision = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain")
        dirty = bool(status) if status is not None else None
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"git_revision": revision, "git_dirty": dirty,
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "loadavg_start": list(os.getloadavg())}


def run_child(workload: str, seed: int, trace: int) -> Dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"repetition of {workload} failed "
                         f"(exit {done.returncode})")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def sim_fingerprint(rep: Dict[str, Any]) -> Dict[str, Any]:
    """Everything a repetition reports that must repeat exactly for a seed."""
    out = {k: v for k, v in rep.items()
           if k not in HOST_FIELDS and k not in ("wall_s", "layers")}
    for key, value in rep.get("layers", {}).items():
        if not key.endswith(("self_s", "_us", "overhead_frac")):
            out[f"layers.{key}"] = value
    return out


def declared_metrics() -> Dict[str, List[Dict[str, Any]]]:
    """The ``end_to_end`` and ``per_layer`` lists of the root BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {section: bench[section] for section in ("end_to_end", "per_layer")}


def with_units(values: Dict[str, float],
               declared: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Every declared metric with its declared unit; a missing one is a bug."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not produced: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def end_to_end(reps: List[Dict[str, Any]], attempted: int,
               failed: int) -> Dict[str, float]:
    first = reps[0]
    med = statistics.median
    return {
        "setup_s": med(r["setup_s"] for r in reps),
        "run_s": med(r["run_s"] for r in reps),
        "syncs_per_s": med(r["syncs"] / r["run_s"] for r in reps),
        "mb_per_s": med(r["mb"] / r["run_s"] for r in reps),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
        "ops_ok_frac": 1.0 - failed / attempted,
        **{name: first[name] for name in (
            "sim_makespan_s", "sim_sync_p50_ms", "sim_sync_p99_ms",
            "sim_repair_p50_s", "sim_repair_p99_s", "replica_ok_frac")},
    }


def per_layer(untraced: List[Dict[str, Any]],
              traced: List[Dict[str, Any]]) -> Dict[str, float]:
    # All layer figures come from one traced repetition, the one with the
    # median run_s, so its self times and sim.self_s add up to trace.run_s.
    rep = sorted(traced, key=lambda r: r["run_s"])[(len(traced) - 1) // 2]
    out = dict(rep["layers"])
    out["trace.run_s"] = rep["run_s"]
    out["trace.overhead_frac"] = (
        statistics.median(r["run_s"] for r in traced)
        / statistics.median(r["run_s"] for r in untraced)) - 1.0
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program sources under {os.path.join(ROOT, 'src')}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    declared = declared_metrics()

    info = provenance()
    print(json.dumps({"provenance": info}, sort_keys=True), flush=True)
    start = time.perf_counter()
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    batch = (0, 1) if args.trace else (0,)
    while True:
        batch_s = 0.0
        for trace in batch:
            rep = run_child(args.workload, args.seed, trace)
            (traced if trace else untraced).append(rep)
            batch_s += rep["wall_s"]
            print(json.dumps({"repetition": {
                k: rep[k] for k in ("setup_s", "run_s", "check_s", "wall_s",
                                    "ops", "ops_failed")}}), flush=True)
        if time.perf_counter() - start + batch_s > args.seconds:
            break

    reps = untraced + traced
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["ops_failed"] for r in reps)
    for message in reps[0]["check_failures"][:5]:
        print(f"check failed: {message}", file=sys.stderr)
    # Every repetition used the same seed: its sim figures and counts must
    # match the first one's exactly (layer counts only among traced ones).
    reference = sim_fingerprint(traced[0] if traced else reps[0])
    for rep in reps:
        fingerprint = sim_fingerprint(rep)
        diff = {k for k, v in fingerprint.items()
                if k in reference and reference[k] != v}
        if diff:
            failed += 1
            print(f"not deterministic for one seed: {sorted(diff)}",
                  file=sys.stderr)
    info["loadavg_end"] = list(os.getloadavg())
    print(json.dumps({"provenance": info, "repetitions": len(reps)},
                     sort_keys=True), flush=True)
    if args.trace:
        values, section = per_layer(untraced, traced), "per_layer"
    else:
        values, section = end_to_end(untraced, attempted, failed), "end_to_end"
    metrics = with_units(values, declared[section])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's seeded input generator.

Every input the workloads hand to the program is drawn here from the
``--seed`` argument: data sizes, replica targets, storm membership and
the churn trace.  The same seed gives the same inputs; the program
receives only these values.

Seed ``HELD_OUT_SEED`` is never used while the benchmark or a change is
being tuned.  A later claim of a gain is re-checked on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.sim.rng import RandomStreams
from repro.workloads.traces import ChurnEvent, availability_trace

HELD_OUT_SEED = 9173


@dataclass(frozen=True)
class DataSpec:
    """One datum to create: its name, size and replica target."""

    name: str
    size_mb: float
    replica: int


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash with SHA-512 inside ``random``: stable across runs
    # and interpreters, independent of PYTHONHASHSEED.
    return random.Random(f"perfbench:{workload}:{seed}")


def data_specs(workload: str, seed: int, count: int,
               size_mb: Sequence[float], replicas: Sequence[int]) -> List[DataSpec]:
    """``count`` data with sizes uniform in ``size_mb`` and replica targets
    drawn uniformly from ``replicas``."""
    rng = _rng(workload, seed)
    low, high = size_mb
    return [DataSpec(name=f"{workload}-{i:05d}",
                     size_mb=round(rng.uniform(low, high), 4),
                     replica=rng.choice(list(replicas)))
            for i in range(count)]


def exact_cover_specs(workload: str, seed: int, n_hosts: int,
                      sizes_mb: Sequence[float],
                      replicas: Sequence[int]) -> List[DataSpec]:
    """Data whose replica targets sum to exactly ``n_hosts``.

    Targets are drawn from ``replicas`` until the next one would overshoot;
    the last datum takes the remainder.  With one new datum per host and
    sync, every host then downloads exactly one replica.  Sizes come from
    the few classes in ``sizes_mb``, as files from one catalogue would.
    """
    rng = _rng(workload, seed)
    specs: List[DataSpec] = []
    remaining = n_hosts
    while remaining > 0:
        replica = min(rng.choice(list(replicas)), remaining)
        specs.append(DataSpec(name=f"{workload}-{len(specs):06d}",
                              size_mb=rng.choice(list(sizes_mb)),
                              replica=replica))
        remaining -= replica
    return specs


def storm_members(seed: int, host_names: Sequence[str], storms: int,
                  share: float) -> List[List[str]]:
    """For each storm, the hosts that are up and take part in it: each
    host independently with probability ``share``."""
    rng = _rng("storms", seed)
    return [[name for name in host_names if rng.random() < share]
            for _ in range(storms)]


def churn_trace(seed: int, host_names: Sequence[str], start_s: float,
                window_s: float, mean_up_s: float,
                mean_down_s: float) -> List[ChurnEvent]:
    """Weibull ON/OFF sessions over ``[start_s, start_s + window_s)``.

    Drawn by the program's own ``availability_trace`` from a stream seeded
    by ``seed``, then shifted so churn begins after the settle phase.
    """
    events = availability_trace(
        host_names, horizon_s=window_s, mean_availability_s=mean_up_s,
        mean_unavailability_s=mean_down_s, distribution="weibull",
        rng=RandomStreams(seed).spawn("perfbench:churn"))
    return [ChurnEvent(time_s=start_s + e.time_s, host_name=e.host_name,
                       action=e.action) for e in events]

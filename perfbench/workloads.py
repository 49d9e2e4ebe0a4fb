"""The three benchmark workloads, driven through the program's public API.

Each workload is a class with three steps, which ``child.py`` times apart:

* ``setup()`` builds the deployment, creates and schedules the data and
  attaches the hosts (DHT joins included) — this is ``setup_s``;
* ``run()`` is the timed phase — ``run_s``;
* ``results()`` checks the outputs and gathers the raw figures.

No workload passes a ``scheduler``, ``allocator`` or ``placement`` knob:
they measure the defaults a user gets.  Sizes below were chosen so one
repetition takes a few host-seconds on a 2-CPU machine and every p99 rests
on at least 1,000 samples.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.attributes import Attribute
from repro.core.data import Data
from repro.core.runtime import BitDewEnvironment
from repro.net.flows import Network
from repro.net.host import Host
from repro.net.topology import cluster_topology
from repro.services.data_scheduler import DataSchedulerService
from repro.services.heartbeat import FailureDetector
from repro.sim.kernel import Environment
from repro.storage.filesystem import FileContent
from repro.workloads.cohort import (
    build_cohorts,
    cohort_heartbeat_process,
    cohort_sync_process,
)
from repro.workloads.traces import ChurnScript

from inputs import (DataSpec, churn_trace, data_specs, exact_cover_specs,
                    storm_members)

#: replica_ok_frac sample points per timed phase
SAMPLES = 100


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def attribute_for(spec: DataSpec, fault_tolerance: bool = False) -> Attribute:
    return Attribute(name=f"bench-r{spec.replica}", replica=spec.replica,
                     fault_tolerance=fault_tolerance, protocol="http")


def sample_times(start: float, end: float) -> List[float]:
    step = (end - start) / SAMPLES
    return [start + step * (i + 1) for i in range(SAMPLES)]


def fill_times(confirms: List[Tuple[float, str, str]],
               targets: Dict[str, int]) -> Dict[str, float]:
    """Per datum, the sim time its replica target was first met."""
    seen: Dict[str, int] = {}
    full: Dict[str, float] = {}
    for when, _host, uid in confirms:
        seen[uid] = seen.get(uid, 0) + 1
        if seen[uid] == targets.get(uid) and uid not in full:
            full[uid] = when
    return full


def ok_fraction(full: Dict[str, float], n_data: int,
                times: List[float]) -> float:
    """Share of (datum, sample time) pairs whose target was met by then."""
    done = sorted(full.values())
    met = sum(bisect.bisect_right(done, t) for t in times)
    return met / (n_data * len(times))


class _RuntimeProbes:
    """Sim-time records taken at the runtime's public seams.

    Installed on instances only (the router and the Data Scheduler), so
    they see exactly the calls the hosts make.  They cost one Python call
    per RPC and read only ``env.now``.
    """

    def __init__(self, runtime: BitDewEnvironment,
                 on_confirm: Optional[Callable[[str], None]] = None):
        self.env = runtime.env
        #: (start, sim latency) of every completed synchronize call
        self.syncs: List[Tuple[float, float]] = []
        self.sync_errors = 0
        #: (time, host, uid) of every confirm_ownership
        self.confirms: List[Tuple[float, str, str]] = []
        router_invoke = runtime.router.invoke

        def invoke(channel, service, method, *args, **kwargs):
            call = router_invoke(channel, service, method, *args, **kwargs)
            if method != "synchronize":
                return call
            return self._timed_sync(call)

        runtime.router.invoke = invoke
        ds = runtime.data_scheduler
        confirm = ds.confirm_ownership

        def confirm_ownership(host_name, data_uid):
            self.confirms.append((self.env.now, host_name, data_uid))
            if on_confirm is not None:
                on_confirm(data_uid)
            return confirm(host_name, data_uid)

        ds.confirm_ownership = confirm_ownership

    def _timed_sync(self, call):
        start = self.env.now
        try:
            result = yield from call
        except Exception:
            self.sync_errors += 1
            raise
        self.syncs.append((start, self.env.now - start))
        return result


def _store_and_schedule(runtime: BitDewEnvironment, specs: List[DataSpec],
                        fault_tolerance: bool) -> List[Data]:
    repository = runtime.data_repository
    catalog = runtime.data_catalog
    scheduler = runtime.data_scheduler
    datas = []
    for spec in specs:
        content = FileContent.from_seed(spec.name, spec.size_mb)
        data = Data.from_content(content)
        catalog.add_locator_now(repository.store_now(data, content))
        scheduler.schedule(data, attribute_for(spec, fault_tolerance))
        datas.append(data)
    return datas


def _download_outcomes(runtime: BitDewEnvironment,
                       crashes: Dict[str, List[float]]) -> Tuple[int, int, int]:
    """(attempted, failed, interrupted) downloads, from the DT's records.

    A transfer whose receiver crashed after it was submitted was cut by the
    workload's own fault injection: it counts as interrupted, not failed.
    """
    attempted = failed = interrupted = 0
    for record in runtime.data_transfer.transfers.values():
        attempted += 1
        if not record.failed:
            continue
        host = record.destination.host.name
        if any(t >= record.submitted_at for t in crashes.get(host, ())):
            interrupted += 1
        else:
            failed += 1
    return attempted, failed, interrupted


def _runtime_parts(runtime: BitDewEnvironment) -> Dict[str, Any]:
    return {"env": runtime.env, "network": runtime.network,
            "scheduler": runtime.data_scheduler,
            "detector": runtime.container.failure_detector,
            "transfer": runtime.data_transfer, "ddc": runtime.ddc,
            "heartbeat_ticks": 0}


class GridStorm:
    """Cold placement storm through the full runtime (HostAgent → RPC →
    DS/DC/DR/DT → DDC publish → flows)."""

    name = "grid-storm"
    hosts = 250
    data = 1250
    size_mb = (0.1, 0.3)
    replicas = (1, 2, 3)
    #: MaxDataSchedule: new data per host and sync, so placement takes
    #: several storms (and every p99 gets > 1,000 sync samples)
    max_data_schedule = 2
    #: share of the hosts up for each storm, as on a desktop grid
    storm_share = 0.9
    max_storms = 30
    #: replica_ok_frac window: fixed, above the ~8 s placement makespan,
    #: so the figure rises only when placement gets faster
    ok_horizon_s = 12.0

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = data_specs(self.name, seed, self.data, self.size_mb,
                                self.replicas)

    def setup(self) -> None:
        self.env = Environment()
        topo = cluster_topology(self.env, n_workers=self.hosts,
                                server_link_mbps=1000.0)
        self.runtime = BitDewEnvironment(
            topo, sync_period_s=3600.0, heartbeat_period_s=3600.0,
            max_data_schedule=self.max_data_schedule)
        self.probes = _RuntimeProbes(self.runtime)
        self.datas = _store_and_schedule(self.runtime, self.specs, False)
        self.targets = {d.uid: min(s.replica, self.hosts)
                        for d, s in zip(self.datas, self.specs)}
        self.runtime.attach_all(auto_sync=False)
        by_name = {h.name: h for h in topo.worker_hosts}
        self.members = [[by_name[n] for n in storm] for storm in storm_members(
            self.seed, sorted(by_name), self.max_storms, self.storm_share)]

    def run(self) -> None:
        wanted = sum(self.targets.values())
        self.storms = 0
        while len(self.probes.confirms) < wanted and self.storms < self.max_storms:
            self.env.run(until=self.runtime.kick_sync(self.members[self.storms]))
            self.storms += 1

    def parts(self) -> Dict[str, Any]:
        """The program objects the tracer reads counters from."""
        return _runtime_parts(self.runtime)

    def results(self) -> Dict[str, Any]:
        runtime = self.runtime
        ds = runtime.data_scheduler
        failures: List[str] = []
        for data in self.datas:
            owners = ds.owners_of(data.uid)
            holders = {o for o in owners if runtime.agents[o].has_content(data.uid)}
            if len(holders) < self.targets[data.uid]:
                failures.append(f"{data.name}: {len(holders)} holders with "
                                f"content, target {self.targets[data.uid]}")
            elif not runtime.data_catalog.locators_for_now(data.uid):
                failures.append(f"{data.name}: no DC locator")
            elif not owners <= runtime.ddc.owners(data.uid):
                failures.append(f"{data.name}: DDC misses DS owners")
        full = fill_times(self.probes.confirms, self.targets)
        end = max(full.values()) if full else self.env.now
        downloads, failed_downloads, _ = _download_outcomes(runtime, {})
        return {
            "syncs": len(self.probes.syncs),
            "sync_latencies_s": [lat for _s, lat in self.probes.syncs],
            "fill_times_s": [t for t, _h, _u in self.probes.confirms],
            "sim_makespan_s": end,
            "replica_ok_frac": ok_fraction(
                full, len(self.datas), sample_times(0.0, self.ok_horizon_s)),
            "mb": runtime.network.total_mb_delivered,
            "ops": len(self.probes.syncs) + self.probes.sync_errors
            + downloads + len(self.datas),
            "ops_failed": self.probes.sync_errors + failed_downloads
            + len(failures),
            "check_failures": failures,
            "storms": self.storms,
        }


class Churn:
    """Steady-state pull with fault tolerance under Weibull ON/OFF churn."""

    name = "churn"
    hosts = 150
    data = 500
    size_mb = (0.5, 1.5)
    replicas = (3,)
    sync_period_s = 2.0
    heartbeat_period_s = 1.0
    settle_s = 30.0
    churn_s = 150.0
    mean_up_s = 240.0
    mean_down_s = 60.0

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = data_specs(self.name, seed, self.data, self.size_mb,
                                self.replicas)

    def setup(self) -> None:
        self.env = Environment()
        topo = cluster_topology(self.env, n_workers=self.hosts,
                                server_link_mbps=1000.0)
        self.runtime = BitDewEnvironment(
            topo, sync_period_s=self.sync_period_s,
            heartbeat_period_s=self.heartbeat_period_s, seed=self.seed)
        self.probes = _RuntimeProbes(self.runtime, self._on_confirm)
        self.datas = _store_and_schedule(self.runtime, self.specs, True)
        self.replica = {d.uid: s.replica for d, s in zip(self.datas, self.specs)}
        self.runtime.attach_all()
        timeout = self.runtime.container.failure_detector.timeout_s
        # Quiet tail: detection timeout + one sync period + download slack.
        self.tail_s = timeout + self.sync_period_s + 5.0
        trace = churn_trace(self.seed, [h.name for h in topo.worker_hosts],
                            self.settle_s, self.churn_s, self.mean_up_s,
                            self.mean_down_s)
        self.crashes: Dict[str, List[float]] = {}
        #: uid -> crash times of content holders not yet replaced
        self._open: Dict[str, List[float]] = {}
        self.repairs: List[float] = []
        crash_host = self.runtime.crash_host

        def crash(host: Host) -> None:
            now = self.env.now
            self.crashes.setdefault(host.name, []).append(now)
            agent = self.runtime.agents.get(host.name)
            if agent is not None and host.online:
                for uid in sorted(agent.cached_uids()):
                    if agent.has_content(uid) and uid in self.replica:
                        self._open.setdefault(uid, []).append(now)
            crash_host(host)

        self.runtime.crash_host = crash
        self.script = ChurnScript(self.runtime, trace)
        self.script.start()

    def _on_confirm(self, uid: str) -> None:
        pending = self._open.get(uid)
        if pending:
            self.repairs.append(self.env.now - pending.pop(0))

    def run(self) -> None:
        env = self.env
        start, end = self.settle_s, self.settle_s + self.churn_s
        env.run(until=start)
        ok = 0
        live_hosts = self.runtime.topology.worker_hosts
        for t in sample_times(start, end):
            env.run(until=t)
            live = sum(1 for h in live_hosts if h.online)
            counts = self._live_replicas()
            ok += sum(1 for uid, r in self.replica.items()
                      if counts.get(uid, 0) >= min(r, live))
        self.replica_ok_frac = ok / (len(self.replica) * SAMPLES)
        env.run(until=end + self.tail_s)

    def _live_replicas(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for agent in self.runtime.agents.values():
            if not agent.host.online:
                continue
            for uid in agent.cached_uids():
                if agent.has_content(uid):
                    counts[uid] = counts.get(uid, 0) + 1
        return counts

    def parts(self) -> Dict[str, Any]:
        """The program objects the tracer reads counters from."""
        return _runtime_parts(self.runtime)

    def results(self) -> Dict[str, Any]:
        counts = self._live_replicas()
        live = sum(1 for h in self.runtime.topology.worker_hosts if h.online)
        failures = [f"{uid}: {counts.get(uid, 0)} live replicas, target "
                    f"{min(r, live)}"
                    for uid, r in self.replica.items()
                    if counts.get(uid, 0) < min(r, live)]
        failures += [f"{uid}: {len(p)} crashed holders never replaced"
                     for uid, p in self._open.items() if p]
        targets = {uid: min(r, self.hosts) for uid, r in self.replica.items()}
        full = fill_times(self.probes.confirms, targets)
        first = min(s for s, _lat in self.probes.syncs)
        downloads, failed_downloads, interrupted = _download_outcomes(
            self.runtime, self.crashes)
        return {
            "syncs": len(self.probes.syncs),
            "sync_latencies_s": [lat for _s, lat in self.probes.syncs],
            "fill_times_s": self.repairs,
            "sim_makespan_s": max(full.values()) - first,
            "replica_ok_frac": self.replica_ok_frac,
            "mb": self.runtime.network.total_mb_delivered,
            "ops": len(self.probes.syncs) + self.probes.sync_errors
            + downloads + len(self.replica),
            "ops_failed": self.probes.sync_errors + failed_downloads
            + len(failures),
            "check_failures": failures,
            "crashes": sum(len(v) for v in self.crashes.values()),
            "interrupted_downloads": interrupted,
        }


class Cohort:
    """100k identical hosts in array-backed cohorts over one Data Scheduler.

    Every heartbeat tick reaches the real ``DataSchedulerService.heartbeat``
    and a started failure detector.  The horizon stays inside the
    heartbeat window, so no host is declared dead.
    """

    name = "cohort-100k"
    hosts = 100_000
    cohort_size = 1000
    size_mb = (0.25, 0.5, 0.75)
    replicas = (2, 3, 4, 5, 6)
    #: round 2 re-syncs every host after every cohort finished round 1, so
    #: it assigns nothing new and each host downloads exactly once
    #: a cohort's round-1 downloads (~500 MB through the 8 GB/s server)
    #: drain before the next cohort starts, so flows do not pile up
    rounds = 2
    stagger_s = 0.08
    sync_gap_s = 8.5
    #: detection timeout 12 s: the sweeps at 12.5 s and 15 s pop and
    #: re-arm the expiry heap, and every host still beats inside the window
    heartbeat_period_s = 4.0
    #: also the replica_ok_frac window, well above the ~8 s makespan
    horizon_s = 17.0

    def __init__(self, seed: int):
        self.specs = exact_cover_specs(self.name, seed, self.hosts,
                                       self.size_mb, self.replicas)

    def setup(self) -> None:
        self.env = env = Environment()
        self.network = Network(env, default_latency_s=0.0002)
        server = self.network.add_host(Host(
            "grid-service", uplink_mbps=8000.0, downlink_mbps=8000.0,
            stable=True))
        hosts = [self.network.add_host(Host(f"c{i:06d}", uplink_mbps=125.0,
                                            downlink_mbps=125.0))
                 for i in range(self.hosts)]
        self.detector = FailureDetector(
            env, heartbeat_period_s=self.heartbeat_period_s)
        self.detector.start()
        self.ds = ds = DataSchedulerService(env, failure_detector=self.detector,
                                            max_data_schedule=1)
        self.size_of: Dict[str, float] = {}
        self.targets: Dict[str, int] = {}
        for spec in self.specs:
            data = Data(name=spec.name, size_mb=spec.size_mb)
            ds.schedule(data, attribute_for(spec))
            self.size_of[data.uid] = spec.size_mb
            self.targets[data.uid] = spec.replica
        self.cohorts = build_cohorts(hosts, self.cohort_size)
        network = self.network
        size_of = self.size_of

        def transfer(host: Host, uid: str):
            return network.transfer(server, host, size_of[uid])

        def beat(cohort, index: int) -> None:
            ds.heartbeat(cohort.hosts[index].name)

        for cohort in self.cohorts:
            env.process(cohort_sync_process(
                env, cohort, ds.compute_schedule, transfer, size_of,
                rounds=self.rounds, stagger_s=self.stagger_s,
                sync_gap_s=self.sync_gap_s))
            env.process(cohort_heartbeat_process(
                env, cohort, period_s=self.heartbeat_period_s,
                duration_s=self.horizon_s, beat=beat))

    def run(self) -> None:
        self.env.run(until=self.horizon_s)

    def parts(self) -> Dict[str, Any]:
        """The program objects the tracer reads counters from."""
        return {"env": self.env, "network": self.network, "scheduler": self.ds,
                "detector": self.detector, "transfer": None, "ddc": None,
                "heartbeat_ticks": sum(c.heartbeats for c in self.cohorts)}

    def results(self) -> Dict[str, Any]:
        failures: List[str] = []
        ds = self.ds
        unplaced = sum(1 for uid, r in self.targets.items()
                       if len(ds.owners_of(uid)) < r)
        if unplaced:
            failures.append(f"{unplaced} data below their replica target")
        downloads = [int(n) for c in self.cohorts for n in c.downloads]
        off = sum(1 for n in downloads if n != 1)
        if off:
            failures.append(f"{off} hosts without exactly one download")
        mb = sum(c.total_bytes_mb for c in self.cohorts)
        expected = sum(self.size_of[uid] * r for uid, r in self.targets.items())
        if abs(mb - expected) > 1e-6 * expected:
            failures.append(f"delivered {mb:.3f} MB, expected {expected:.3f}")
        dead = len(self.detector.known_hosts()) - len(self.detector.alive_hosts())
        if dead:
            failures.append(f"{dead} hosts declared dead inside the window")
        # Round-1 syncs all order one download: sim time from the host's
        # sync to the end of that download.
        sync_lat: List[float] = []
        fills: List[float] = []
        for cohort in self.cohorts:
            sync_at = self.stagger_s * cohort.index
            for done in cohort.completion_s:
                sync_lat.append(float(done) - sync_at)
                fills.append(float(done))
        per_datum: Dict[str, List[float]] = {}
        for cohort in self.cohorts:
            for i, cached in enumerate(cohort.cached):
                for uid in cached:
                    per_datum.setdefault(uid, []).append(
                        float(cohort.completion_s[i]))
        full = {uid: max(times) for uid, times in per_datum.items()
                if len(times) >= self.targets[uid]}
        end = max(fills)
        syncs = sum(c.syncs for c in self.cohorts)
        return {
            "syncs": syncs,
            "sync_latencies_s": sync_lat,
            "fill_times_s": fills,
            "sim_makespan_s": end,
            "replica_ok_frac": ok_fraction(
                full, len(self.targets), sample_times(0.0, self.horizon_s)),
            "mb": mb,
            "ops": syncs + len(downloads) + len(self.targets),
            "ops_failed": len(failures),
            "check_failures": failures,
            "heartbeat_ticks": sum(c.heartbeats for c in self.cohorts),
        }


WORKLOADS = {cls.name: cls for cls in (GridStorm, Churn, Cohort)}

"""Per-layer tracing for ``--trace 1`` runs.

The tracer wraps the public functions of each layer of the program, from
the benchmark's side, in the child process of a traced repetition only.
A wrapped call opens a span named after its layer.  A call that returns a
generator (``RpcChannel.invoke``, ``Database.execute``, the DDC's
``publish_pair``/``search_pair``, ``DataTransferService.start``, ...) is
timed per resume: the span is open only while the generator runs, not
while it waits on simulated time.  A layer's self time is the time its
spans were open minus the time their child spans were open, so the self
times of all layers plus the time outside every span (``sim.self_s``,
mostly the event kernel) add up to the traced phase exactly.

Spans are attributed to the phase they ran in (``setup`` or ``run``).
Every ``*.self_s`` below is run-phase time; the two layers that move
``setup_s`` also report their set-up share (``*.setup_self_s``).
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional

from repro.core.runtime import BitDewEnvironment, HostAgent
from repro.dht.chord import ChordRing
from repro.dht.ddc import DistributedDataCatalog
from repro.net.flows import Network
from repro.net.rpc import RpcChannel
from repro.services.data_catalog import DataCatalogService
from repro.services.data_scheduler import DataSchedulerService
from repro.services.data_transfer import DataTransferService
from repro.services.heartbeat import FailureDetector
from repro.sim.kernel import Environment
from repro.sim.resources import Request
from repro.storage.database import Database
from repro.storage.filesystem import LocalFileSystem

from workloads import percentile

_clock = time.perf_counter

#: (class, methods, span) — every listed method opens a span of that layer
SPANS = [
    (FailureDetector, ("heartbeat", "sweep"), "services.heartbeat"),
    (DataSchedulerService, ("schedule", "compute_schedule", "synchronize",
                            "heartbeat", "confirm_ownership"),
     "services.data_scheduler"),
    (DataCatalogService, ("register_data", "register_data_now", "get_data",
                          "get_data_now", "find_by_name", "update_status",
                          "add_locator", "add_locator_now", "locators_for",
                          "locators_for_now"),
     "services.data_catalog"),
    (Database, ("execute", "raw_insert", "raw_upsert", "raw_get",
                "raw_delete"), "storage.database"),
    (Database, ("raw_query",), "storage.database.query"),
    (LocalFileSystem, ("write", "read", "exists", "delete"),
     "storage.filesystem"),
    (ChordRing, ("join", "leave", "fail"), "dht.chord.join"),
    (ChordRing, ("lookup", "get", "put", "delete", "replicas_for",
                 "successor_of", "successor_of_node"), "dht.chord.lookup"),
    (DistributedDataCatalog, ("publish_pair", "search_pair", "unpublish"),
     "dht.ddc"),
    (RpcChannel, ("invoke",), "net.rpc"),
    (Network, ("transfer", "abort"), "net.flows"),
    (Network, ("_settle",), "net.allocation"),
    (DataTransferService, ("register_transfer", "start"),
     "services.data_transfer"),
    (HostAgent, ("sync_once", "fetch", "upload"), "core.runtime"),
    (BitDewEnvironment, ("attach", "detach", "kick_sync"), "core.runtime"),
]

#: Methods whose inclusive time is also kept per run-phase call
CALL_TIMED = {"DataSchedulerService.compute_schedule"}

#: Layers reported with a ``.self_s`` metric, by span name.
SELF_METRICS = {
    "services.heartbeat": "services.heartbeat.self_s",
    "services.data_scheduler": "services.data_scheduler.self_s",
    "services.data_catalog": "services.data_catalog.self_s",
    "storage.database": "storage.database.self_s",
    "storage.database.query": "storage.database.query_self_s",
    "storage.filesystem": "storage.filesystem.self_s",
    "dht.chord.join": "dht.chord.join_self_s",
    "dht.chord.lookup": "dht.chord.lookup_self_s",
    "dht.ddc": "dht.ddc.self_s",
    "net.rpc": "net.rpc.self_s",
    "net.flows": "net.flows.self_s",
    "net.allocation": "net.allocation.self_s",
    "services.data_transfer": "services.data_transfer.self_s",
    "core.runtime": "core.runtime.self_s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Span stack, self-time accounting and counters for one process."""

    def __init__(self) -> None:
        #: "setup", "run", or None (not accounted)
        self.phase: Optional[str] = "setup"
        self.self_s: Dict[tuple, float] = {}
        self.counts: Counter = Counter()
        #: inclusive host seconds of each run-phase call, for CALL_TIMED
        self.call_s: Dict[str, List[float]] = {k: [] for k in CALL_TIMED}
        self._stack: List[list] = []

    # -- spans ---------------------------------------------------------------
    def _enter(self, span: str) -> float:
        now = _clock()
        stack = self._stack
        if stack:
            top = stack[-1]
            key = (self.phase, top[0])
            self.self_s[key] = self.self_s.get(key, 0.0) + now - top[1]
        stack.append([span, now])
        return now

    def _exit(self) -> float:
        now = _clock()
        stack = self._stack
        span, start = stack.pop()
        key = (self.phase, span)
        self.self_s[key] = self.self_s.get(key, 0.0) + now - start
        if stack:
            stack[-1][1] = now
        return now

    def _resumes(self, gen, span: Optional[str],
                 on_yield: Optional[Callable[[Any], None]] = None,
                 on_resume: Optional[Callable[[], None]] = None,
                 on_end: Optional[Callable[[bool], None]] = None):
        """Drive *gen*, opening *span* (if any) around every resume."""
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            if span is not None:
                self._enter(span)
            try:
                yielded = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                if span is not None:
                    self._exit()
                if on_end is not None:
                    on_end(True)
                return stop.value
            except BaseException:
                if span is not None:
                    self._exit()
                if on_end is not None:
                    on_end(False)
                raise
            if span is not None:
                self._exit()
            if on_yield is not None:
                on_yield(yielded)
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in by the kernel: forward
                value, error = None, exc
            if on_resume is not None:
                on_resume()

    def _wrap(self, cls: type, name: str, span: str) -> None:
        original = getattr(cls, name)
        tracer = self
        key = f"{cls.__name__}.{name}"
        calls = self.call_s.get(key)

        def traced(*args, **kwargs):
            tracer.counts[key] += 1
            start = tracer._enter(span)
            try:
                result = original(*args, **kwargs)
            finally:
                end = tracer._exit()
            if calls is not None and tracer.phase == "run":
                calls.append(end - start)
            if hasattr(result, "send") and hasattr(result, "throw"):
                return tracer._resumes(result, span)
            return result

        traced.__name__ = name
        traced.__doc__ = original.__doc__
        setattr(cls, name, traced)

    # -- installation ----------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer function listed in :data:`SPANS`, plus the
        counters that need a look at arguments or results."""
        # Watchers first, so the span wrappers time them as part of the call.
        self._count_timeouts()
        self._watch_queries()
        self._watch_lookups()
        self._watch_sweeps()
        self._watch_rpc()
        self._watch_execute()
        self._watch_fetch()
        for cls, names, span in SPANS:
            for name in names:
                self._wrap(cls, name, span)

    def _count_timeouts(self) -> None:
        timeout = Environment.timeout
        counts = self.counts

        def counted(env, delay, value=None):
            counts["sim.timeouts"] += 1
            return timeout(env, delay, value)

        Environment.timeout = counted

    def _watch_queries(self) -> None:
        raw_query = Database.raw_query
        counts = self.counts

        def watched(db, collection, predicate=None):
            rows = raw_query(db, collection, predicate)
            counts["db.rows_scanned"] += db.size(collection)
            counts["db.rows_returned"] += len(rows)
            return rows

        Database.raw_query = watched

    def _watch_lookups(self) -> None:
        lookup = ChordRing.lookup
        counts = self.counts

        def watched(ring, key, start=None):
            result = lookup(ring, key, start)
            counts["chord.hops"] += result.hop_count
            return result

        ChordRing.lookup = watched

    def _watch_sweeps(self) -> None:
        sweep = FailureDetector.sweep
        counts = self.counts

        def watched(detector):
            dead = sweep(detector)
            counts["heartbeat.declared_dead"] += len(dead)
            return dead

        FailureDetector.sweep = watched

    def _watch_rpc(self) -> None:
        invoke = RpcChannel.invoke
        tracer = self
        counts = self.counts

        def watched(channel, endpoint, method, *args, payload_kb=1.0, **kwargs):
            counts["rpc.kb"] += max(0.0, payload_kb)
            start = channel.env.now

            def end(ok: bool) -> None:
                if ok:
                    counts["rpc.ok"] += 1
                    counts["rpc.sim_s"] += channel.env.now - start
                else:
                    counts["rpc.errors"] += 1

            call = invoke(channel, endpoint, method, *args,
                          payload_kb=payload_kb, **kwargs)
            return tracer._resumes(call, None, on_end=end)

        RpcChannel.invoke = watched

    def _watch_execute(self) -> None:
        execute = Database.execute
        tracer = self
        counts = self.counts

        def watched(db, operation, statements=1):
            counts["db.statements"] += statements
            since: List[float] = []

            def on_yield(event) -> None:
                # Requests are the waits on the connection pool and on
                # the serial executor.
                if isinstance(event, Request):
                    since.append(db.env.now)

            def on_resume() -> None:
                if since:
                    counts["db.wait_sim_s"] += db.env.now - since.pop()

            return tracer._resumes(execute(db, operation, statements), None,
                                   on_yield=on_yield, on_resume=on_resume)

        Database.execute = watched

    def _watch_fetch(self) -> None:
        fetch = HostAgent.fetch
        tracer = self
        counts = self.counts

        def watched(agent, *args, **kwargs):
            def end(ok: bool) -> None:
                if not ok:
                    counts["runtime.fetch_failures"] += 1
            return tracer._resumes(fetch(agent, *args, **kwargs), None,
                                   on_end=end)

        HostAgent.fetch = watched

    # -- report ------------------------------------------------------------------
    def stop(self) -> None:
        """End accounting: later calls (the output checks) are not counted."""
        self.phase = None
        self._final = Counter(self.counts)

    def report(self, workload, setup_s: float, run_s: float) -> Dict[str, float]:
        parts = workload.parts()
        env, network = parts["env"], parts["network"]
        ds, detector = parts["scheduler"], parts["detector"]
        dts, ddc = parts["transfer"], parts["ddc"]
        c = self._final
        run_self: Dict[str, float] = {}
        setup_layers = 0.0
        for (phase, span), seconds in self.self_s.items():
            if phase == "run":
                metric = SELF_METRICS[span]
                run_self[metric] = run_self.get(metric, 0.0) + seconds
            elif phase == "setup":
                setup_layers += seconds
        out: Dict[str, float] = {m: run_self.get(m, 0.0)
                                 for m in set(SELF_METRICS.values())}
        out["sim.self_s"] = run_s - sum(run_self.values())
        out["setup.self_s"] = setup_s - setup_layers
        out["storage.filesystem.setup_self_s"] = self.self_s.get(
            ("setup", "storage.filesystem"), 0.0)
        out["dht.chord.join_setup_self_s"] = self.self_s.get(
            ("setup", "dht.chord.join"), 0.0)
        calls = self.call_s["DataSchedulerService.compute_schedule"] or [0.0]
        sweeps = detector.sweeps if detector is not None else 0
        examined = detector.sweep_examined if detector is not None else 0
        lookups = c["ChordRing.lookup"]
        passes = network.allocation_passes
        out.update({
            "sim.events": env.processed_events,
            "sim.timeouts": c["sim.timeouts"],
            "workloads.cohort.heartbeat_ticks": parts["heartbeat_ticks"],
            "services.heartbeat.beats": c["FailureDetector.heartbeat"],
            "services.heartbeat.examined_per_sweep": _ratio(examined, sweeps),
            "services.heartbeat.declared_dead": c["heartbeat.declared_dead"],
            "services.data_scheduler.calls": c["DataSchedulerService.compute_schedule"],
            "services.data_scheduler.call_p50_us": percentile(calls, 50) * 1e6,
            "services.data_scheduler.call_p99_us": percentile(calls, 99) * 1e6,
            "services.data_scheduler.assignments": ds.assignments,
            "services.data_scheduler.examined_per_assignment": _ratio(
                ds.entries_examined, ds.assignments),
            "services.data_catalog.calls": sum(
                n for k, n in c.items() if k.startswith("DataCatalogService.")),
            "storage.database.statements": c["db.statements"],
            "storage.database.rows_per_result": _ratio(
                c["db.rows_scanned"], c["db.rows_returned"]),
            "storage.database.wait_sim_s": c["db.wait_sim_s"],
            "storage.filesystem.writes": c["LocalFileSystem.write"],
            "dht.chord.joins": c["ChordRing.join"],
            "dht.chord.lookups": lookups,
            "dht.chord.hops_per_lookup": _ratio(c["chord.hops"], lookups),
            "dht.ddc.publishes": ddc.publish_count if ddc is not None else 0,
            "dht.ddc.searches": ddc.search_count if ddc is not None else 0,
            "net.rpc.calls": c["RpcChannel.invoke"],
            "net.rpc.kb": c["rpc.kb"],
            "net.rpc.errors": c["rpc.errors"],
            "net.rpc.sim_latency_s": _ratio(c["rpc.sim_s"], c["rpc.ok"]),
            "net.flows.transfers": c["Network.transfer"],
            "net.flows.failed": network.failed_flows,
            "net.flows.mb": network.total_mb_delivered,
            "net.allocation.passes": passes,
            "net.allocation.requests_per_pass": _ratio(
                network.recompute_requests, passes),
            "services.data_transfer.transfers": c["DataTransferService.start"],
            "services.data_transfer.monitor_messages":
                dts.monitor_messages if dts is not None else 0,
            "services.data_transfer.retries": dts.retries if dts is not None else 0,
            "core.runtime.syncs": c["HostAgent.sync_once"],
            "core.runtime.fetches": c["HostAgent.fetch"],
            "core.runtime.fetch_failures": c["runtime.fetch_failures"],
        })
        return out

"""Host cohorts and the scale-grid-100k/300k harnesses.

These tests pin the cohort bookkeeping itself and the end-to-end
invariants of a reduced grid (the CI ``kernel-smoke`` job runs a 10k-host
grid twice and byte-compares the two outputs).
"""

from types import SimpleNamespace

import pytest

from repro.experiments import run_scenario
from repro.net.flows import Network
from repro.net.host import Host
from repro.sim.kernel import Environment
from repro.workloads import (
    HostCohort,
    build_cohorts,
    cohort_heartbeat_process,
    cohort_sync_process,
)

pytest.importorskip("numpy")


def _hosts(n):
    return [Host(f"c{i:03d}", uplink_mbps=50, downlink_mbps=50)
            for i in range(n)]


# ---------------------------------------------------------------------------
# Cohort bookkeeping
# ---------------------------------------------------------------------------

class TestBuildCohorts:
    def test_partitions_with_short_tail(self):
        cohorts = build_cohorts(_hosts(10), 4)
        assert [len(c) for c in cohorts] == [4, 4, 2]
        assert [c.index for c in cohorts] == [0, 1, 2]
        names = [h.name for c in cohorts for h in c.hosts]
        assert names == [f"c{i:03d}" for i in range(10)]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_cohorts(_hosts(4), 0)
        with pytest.raises(ValueError):
            HostCohort(0, [])

    def test_fresh_cohort_accounting(self):
        cohort = build_cohorts(_hosts(5), 5)[0]
        assert cohort.total_downloads == 0
        assert cohort.total_bytes_mb == 0.0
        assert cohort.last_completion_s == -1.0
        assert cohort.syncs == 0 and cohort.heartbeats == 0


class TestCohortHeartbeat:
    def test_multiplexes_per_host_timers(self):
        """N hosts at period P arrive as one event every P/N: same number
        of heartbeats, same kernel event density, one generator."""
        env = Environment()
        cohort = build_cohorts(_hosts(4), 4)[0]
        beats = []
        env.process(cohort_heartbeat_process(
            env, cohort, period_s=1.0, duration_s=3.0,
            beat=lambda _c, host_idx: beats.append((env.now, host_idx))))
        env.run()
        assert cohort.heartbeats == 12           # 4 hosts x 3 periods
        assert env.now == pytest.approx(3.0)
        # Round-robin over the cohort, evenly spaced at period/N.
        assert [i for _t, i in beats] == [0, 1, 2, 3] * 3
        times = [t for t, _i in beats]
        assert times == pytest.approx([0.25 * (k + 1) for k in range(12)])

    def test_zero_duration_is_a_no_op(self):
        env = Environment()
        cohort = build_cohorts(_hosts(2), 2)[0]
        env.process(cohort_heartbeat_process(env, cohort, 1.0, 0.0))
        env.run()
        assert cohort.heartbeats == 0


class TestCohortSync:
    def test_downloads_and_accounts_per_host(self):
        env = Environment()
        network = Network(env, default_latency_s=0.0)
        server = network.add_host(Host("server", uplink_mbps=100,
                                       downlink_mbps=100))
        hosts = [network.add_host(h) for h in _hosts(3)]
        cohort = build_cohorts(hosts, 3)[0]
        size_mb_of = {"u1": 5.0}

        def sync(_host_name, cached):
            return SimpleNamespace(
                to_download=[] if "u1" in cached else ["u1"])

        def transfer(host, uid):
            return network.transfer(server, host, size_mb_of[uid])

        env.process(cohort_sync_process(env, cohort, sync, transfer,
                                        size_mb_of, rounds=2,
                                        sync_gap_s=0.5))
        env.run()
        assert cohort.syncs == 6                  # 3 hosts x 2 rounds
        assert cohort.total_downloads == 3        # second round: all cached
        assert cohort.total_bytes_mb == pytest.approx(15.0)
        assert all("u1" in cached for cached in cohort.cached)
        assert cohort.last_completion_s > 0.0
        assert network.completed_flows == 3

    def test_stagger_offsets_cohort_start(self):
        env = Environment()
        # A cohort with a non-zero index, to observe the stagger.
        late = build_cohorts(_hosts(4), 2)[1]
        seen = []

        def sync(host_name, _cached):
            seen.append((env.now, host_name))
            return SimpleNamespace(to_download=[])

        env.process(cohort_sync_process(env, late, sync, lambda h, u: None,
                                        {}, rounds=1, stagger_s=3.0,
                                        sync_gap_s=0.0))
        env.run()
        assert [t for t, _n in seen] == [3.0, 3.0]   # stagger_s * index 1


# ---------------------------------------------------------------------------
# scale-grid-100k / 300k (reduced)
# ---------------------------------------------------------------------------

_SMALL = dict(n_hosts=1000, n_data=200, cohort_size=250, sync_rounds=1,
              heartbeat_duration_s=5.0)


class TestScaleGrid100k:
    def test_reduced_grid_invariants(self):
        results = run_scenario("scale-grid-100k", **_SMALL)
        assert results["n_hosts"] == 1000
        assert results["cohorts"] == 4
        # Every datum reached its replica target; each placement is one
        # completed download.
        assert results["placed"] == 200
        assert results["downloaded"] == 200 * results["replica"]
        assert results["completed_flows"] == results["downloaded"]
        assert results["syncs"] >= 1000
        assert results["heartbeats"] == 1000  # 1000 hosts x 5s / 5s period
        assert results["processed_events"] > results["heartbeats"]
        assert results["sim_time_s"] > 0.0
        assert results["events_per_sec"] > 0.0

    def test_unknown_placement_is_rejected(self):
        # Placement is always per-host compute_schedule; the cohort tiers
        # take no placement parameter.
        for scenario in ("scale-grid-100k", "scale-grid-300k"):
            with pytest.raises(ValueError, match="no parameter 'placement'"):
                run_scenario(scenario, placement="host", **_SMALL)

    def test_unknown_perf_knob_is_rejected(self):
        # No scale harness takes an event-queue or allocator knob.
        with pytest.raises(ValueError, match="no parameter 'scheduler'"):
            run_scenario("scale-grid-100k", scheduler="heap", **_SMALL)
        with pytest.raises(ValueError, match="no parameter 'allocator'"):
            run_scenario("scale-grid-300k", allocator="incremental",
                         **_SMALL)
        with pytest.raises(ValueError, match="no parameter 'turbo'"):
            run_scenario("scale-grid", n_hosts=50, n_data=20, turbo=True)
        with pytest.raises(ValueError, match="no parameter 'scheduler'"):
            run_scenario("sync-storm", n_workers=10, scheduler="heap")


class TestScaleGrid300k:
    def test_reduced_grid_reports_its_own_scenario(self):
        results = run_scenario("scale-grid-300k", **_SMALL)
        assert results["scenario"] == "scale-grid-300k"
        assert results["placed"] == 200
        assert results["downloaded"] == 200 * results["replica"]
        assert results["completed_flows"] == results["downloaded"]

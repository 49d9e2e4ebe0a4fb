"""Shared pytest fixtures."""

from __future__ import annotations

import pytest

from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams
from repro.net.flows import Network
from repro.net.host import Host


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the default sweep result cache at this test's own directory.

    A sweep without ``--cache-dir``/``--no-cache`` caches by default; without
    this, tests would write into (and, when warm, read from) the user's
    ``~/.cache/repro`` and skip executing the scenario they test.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def rng() -> RandomStreams:
    return RandomStreams(1234)


@pytest.fixture
def simple_network(env):
    """A tiny network: one server and three workers on a 100 MB/s LAN."""
    network = Network(env, default_latency_s=0.001)
    server = Host("server", cluster="lan", uplink_mbps=100, downlink_mbps=100,
                  stable=True)
    network.add_host(server)
    workers = []
    for i in range(3):
        worker = Host(f"worker{i}", cluster="lan", uplink_mbps=100,
                      downlink_mbps=100)
        network.add_host(worker)
        workers.append(worker)
    return network, server, workers


def run_process(env: Environment, generator):
    """Drive one generator to completion and return its value."""
    process = env.process(generator)
    env.run(until=process)
    return process.value


@pytest.fixture
def drive():
    return run_process

"""Micro-benchmarks of the substrate kernels.

Performance regressions here do not change any result but make the
figure sweeps impractically slow; the thresholds assert generous
ceilings so CI noise does not flake.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.calculus.envelope import ArrivalEnvelope
from repro.overlay.groups import MultiGroupNetwork
from repro.simulation.flow import VBRVideoSource
from repro.simulation.fluid import (
    fluid_mux,
    fluid_token_bucket,
    fluid_work_conserving,
)
from repro.simulation.host_sim import simulate_regulated_host
from repro.topology.attach import attach_hosts
from repro.topology.backbone import fig5_backbone
from repro.topology.routing import host_rtt_matrix
from tests.evented import Simulator


@pytest.fixture(scope="module")
def big_grid():
    n = 1_000_000
    t = 1e-3 * np.arange(n + 1)
    rng = np.random.default_rng(0)
    arr = np.cumsum(rng.random(n + 1)) * 1e-3
    return t, arr


def test_fluid_work_conserving_1m_points(benchmark, big_grid):
    t, arr = big_grid
    out = benchmark(fluid_work_conserving, arr, 0.9 * t)
    assert out.shape == arr.shape


def test_fluid_token_bucket_1m_points(benchmark, big_grid):
    t, arr = big_grid
    out = benchmark(fluid_token_bucket, arr, t, 0.05, 0.4)
    assert out.shape == arr.shape


def test_fluid_mux_priority_1m_points(benchmark, big_grid):
    t, arr = big_grid
    flows = [arr * 0.3, arr * 0.3, arr * 0.4]
    deps = benchmark(
        fluid_mux, flows, t, 1.0, discipline="priority", tagged=0
    )
    assert len(deps) == 3


def test_des_event_throughput(benchmark):
    """The DES core should sustain > 100k events/s."""

    def run():
        sim = Simulator()
        count = 1000

        def tick():
            nonlocal count
            count -= 1
            if count > 0:
                sim.schedule_in(1e-4, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return sim.events_processed

    events = benchmark(run)
    assert events == 1000


def test_des_regulated_host_throughput(benchmark):
    """Full host pipeline (3 flows, regulators + MUX) at paper scale."""
    rho = 0.3
    src = VBRVideoSource(rho)
    trace = src.generate(10.0, rng=1).fragment(0.002)
    envs = [ArrivalEnvelope(max(trace.empirical_sigma(rho), 1e-6), rho)] * 3
    res = benchmark.pedantic(
        simulate_regulated_host,
        args=([trace] * 3, envs),
        kwargs=dict(mode="sigma-rho-lambda", discipline="adversarial"),
        rounds=1, iterations=1,
    )
    assert res.worst_case_delay > 0


def test_rtt_matrix_665_hosts(benchmark):
    bb = fig5_backbone()
    net = attach_hosts(bb, 665, rng=1)
    rtt = benchmark(host_rtt_matrix, net)
    assert rtt.shape == (665, 665)


def test_dsct_construction_665_hosts(benchmark):
    bb = fig5_backbone()
    net = attach_hosts(bb, 665, rng=1)
    mgn = MultiGroupNetwork.fully_joined(net, 3, rng=1)
    trees = benchmark.pedantic(
        mgn.build_all_trees, args=("dsct",), kwargs=dict(rng=3),
        rounds=1, iterations=1,
    )
    assert all(t.size == 665 for t in trees)

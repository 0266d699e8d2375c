"""Whole-tree DES vs the critical-path reduction of Figure 6
(:mod:`repro.experiments.multigroup`)."""

import numpy as np
import pytest

from repro.calculus.envelope import ArrivalEnvelope
from repro.overlay.groups import MultiGroupNetwork
from repro.simulation.flow import VBRVideoSource
from repro.simulation.fluid import simulate_fluid_chain
from repro.simulation.tree_sim import simulate_multicast_tree
from repro.topology.attach import attach_hosts
from repro.topology.backbone import fig5_backbone
from repro.topology.transit_stub import transit_stub_backbone


@pytest.fixture(scope="module")
def world():
    bb = fig5_backbone()
    net = attach_hosts(bb, 16, rng=42)
    mgn = MultiGroupNetwork.fully_joined(net, 3, rng=42)
    trees = mgn.build_all_trees("dsct", rng=4)
    u = 0.85
    rho = u / 3
    stream = VBRVideoSource(rho).generate(4.0, rng=6).fragment(0.002)
    traces = [stream] * 3
    envs = [ArrivalEnvelope(max(stream.empirical_sigma(rho), 1e-6), rho)] * 3
    return mgn, trees, traces, envs


class TestWholeTree:
    def test_every_member_receives(self, world):
        mgn, trees, traces, envs = world
        res = simulate_multicast_tree(
            trees, 0, traces, envs, mgn.latency, mode="sigma-rho",
        )
        assert set(res.per_receiver_worst) == trees[0].members()

    def test_root_delivery_is_fast(self, world):
        mgn, trees, traces, envs = world
        res = simulate_multicast_tree(
            trees, 0, traces, envs, mgn.latency, mode="sigma-rho",
        )
        root = trees[0].root
        # The root only crosses its own pipeline once.
        assert res.per_receiver_worst[root] <= res.worst_case_delay

    def test_deeper_receivers_wait_longer_on_average(self, world):
        mgn, trees, traces, envs = world
        res = simulate_multicast_tree(
            trees, 0, traces, envs, mgn.latency, mode="sigma-rho",
        )
        tree = trees[0]
        by_depth: dict[int, list[float]] = {}
        for h, d in res.per_receiver_worst.items():
            by_depth.setdefault(tree.depth(h), []).append(d)
        depths = sorted(by_depth)
        means = [float(np.mean(by_depth[d])) for d in depths]
        assert means[-1] > means[0]

    # The ids name the pipeline each discipline runs: the closed-form
    # passes of simulation/batched.py, or the evented components.
    @pytest.mark.parametrize(
        "discipline", ["adversarial", "fifo"], ids=["batched", "evented"]
    )
    def test_tree_edge_latency_validation(self, world, discipline):
        mgn, trees, traces, envs = world
        tree = trees[0]
        child = min(tree.parent)
        for bad in (-0.01, float("nan"), float("inf")):
            latency = mgn.latency.copy()
            latency[tree.parent[child], child] = bad
            with pytest.raises(ValueError, match="latency"):
                simulate_multicast_tree(
                    trees, 0, traces, envs, latency, mode="sigma-rho",
                    discipline=discipline,
                )

    def test_vacation_mode_runs(self, world):
        mgn, trees, traces, envs = world
        res = simulate_multicast_tree(
            trees, 0, traces, envs, mgn.latency, mode="sigma-rho-lambda",
        )
        assert res.worst_case_delay > 0
        assert res.events > 0


class TestPriorityDiscipline:
    def test_every_member_serves_the_tagged_flow_last(self):
        """Under static priority the tagged flow is served last, as in
        the chain.  At the root both disciplines see the same arrivals,
        and serving a flow last can only delay it relative to FIFO."""
        g = transit_stub_backbone(3, 2, 3, rng=1)
        net = attach_hosts(g, 12, rng=2)
        mgn = MultiGroupNetwork.fully_joined(net, 3, rng=3)
        trees = [mgn.build_tree(0, "dsct", rng=4)] * 3
        traces = [
            VBRVideoSource(0.25).generate(0.8, rng=i).fragment(0.002)
            for i in range(3)
        ]
        envs = [
            ArrivalEnvelope(max(t.empirical_sigma(0.25), 1e-6), 0.25)
            for t in traces
        ]
        worst = {
            discipline: simulate_multicast_tree(
                trees, 0, traces, envs, mgn.latency, mode="sigma-rho",
                discipline=discipline,
            ).per_receiver_worst
            for discipline in ("priority", "fifo")
        }
        root = trees[0].root
        assert worst["priority"][root] >= worst["fifo"][root]


class TestCriticalPathReduction:
    """The methodology claim of :mod:`repro.experiments.multigroup`: the
    critical-path chain with Theorem-7 (adversarial per-hop) accounting
    upper-bounds the whole-tree FIFO measurement on the same workload."""

    @pytest.mark.parametrize("mode", ["sigma-rho", "sigma-rho-lambda"])
    def test_reduction_dominates_whole_tree(self, world, mode):
        mgn, trees, traces, envs = world
        tree = trees[0]
        whole = simulate_multicast_tree(
            trees, 0, traces, envs, mgn.latency, mode=mode, discipline="fifo",
        )
        path = tree.critical_path()
        hops = len(path) - 1
        propagation = [0.0] + [
            float(mgn.latency[path[i - 1], path[i]]) for i in range(1, hops)
        ]
        chain = simulate_fluid_chain(
            traces[0], [[traces[1], traces[2]]] * hops, envs,
            mode=mode, discipline="adversarial",
            propagation=propagation, dt=1e-3,
        )
        estimate = chain.worst_case_delay + float(
            mgn.latency[path[-2], path[-1]]
        )
        assert estimate >= whole.worst_case_delay * 0.95, (
            f"critical-path estimate {estimate:.3f} under-covers "
            f"whole-tree {whole.worst_case_delay:.3f}"
        )

    def test_whole_tree_receiver_depth_matches_critical_path(self, world):
        mgn, trees, traces, envs = world
        tree = trees[0]
        whole = simulate_multicast_tree(
            trees, 0, traces, envs, mgn.latency,
            mode="sigma-rho", discipline="fifo",
        )
        worst_depth = tree.depth(whole.worst_receiver)
        max_depth = tree.height - 1
        # The worst receiver sits in the deepest layer (or one above;
        # queueing noise can promote a sibling layer).
        assert worst_depth >= max_depth - 1

"""Multi-group network bookkeeping."""

import numpy as np
import pytest

from repro.overlay.groups import MultiGroupNetwork
from repro.scenarios.runner import _resolve_tree
from repro.scenarios.spec import Scenario
from repro.topology import routing
from repro.topology.routing import host_rtt_matrix


class TestFullyJoined:
    def test_paper_population(self, small_network):
        mgn = MultiGroupNetwork.fully_joined(small_network, 3, rng=1)
        assert mgn.n_groups == 3
        assert mgn.max_k_hat() == 3
        for g in range(3):
            assert len(mgn.memberships[g]) == small_network.n_hosts

    def test_sources_distinct_members(self, small_network):
        mgn = MultiGroupNetwork.fully_joined(small_network, 3, rng=2)
        assert len(set(mgn.sources)) == 3

    def test_capacities_in_range(self, small_network):
        mgn = MultiGroupNetwork.fully_joined(
            small_network, 2, host_capacity_range=(3.0, 6.0), rng=3
        )
        assert np.all(mgn.host_capacity >= 3.0)
        assert np.all(mgn.host_capacity <= 6.0)

    def test_k_hat_per_host(self, small_network):
        mgn = MultiGroupNetwork.fully_joined(small_network, 3, rng=4)
        assert mgn.k_hat(0) == 3
        assert mgn.joined_groups(0) == [0, 1, 2]


class TestValidation:
    def test_rejects_empty_group(self, small_network):
        with pytest.raises(ValueError):
            MultiGroupNetwork(
                network=small_network,
                memberships=[np.array([], dtype=np.int64)],
                sources=[0],
                host_capacity=np.ones(small_network.n_hosts),
            )

    def test_rejects_foreign_source(self, small_network):
        with pytest.raises(ValueError, match="source"):
            MultiGroupNetwork(
                network=small_network,
                memberships=[np.array([1, 2, 3])],
                sources=[0],
                host_capacity=np.ones(small_network.n_hosts),
            )

    def test_rejects_unknown_hosts(self, small_network):
        with pytest.raises(ValueError):
            MultiGroupNetwork(
                network=small_network,
                memberships=[np.array([0, 10_000])],
                sources=[0],
                host_capacity=np.ones(small_network.n_hosts),
            )

    def test_rejects_bad_capacities(self, small_network):
        with pytest.raises(ValueError):
            MultiGroupNetwork(
                network=small_network,
                memberships=[np.arange(5)],
                sources=[0],
                host_capacity=np.zeros(small_network.n_hosts),
            )


class TestTreeBuilding:
    def test_all_schemes_build(self, small_mgn):
        for scheme in ("dsct", "nice"):
            trees = small_mgn.build_all_trees(scheme, rng=1)
            assert len(trees) == 3
            for g, t in enumerate(trees):
                assert t.root == small_mgn.sources[g]
                assert t.size == small_mgn.network.n_hosts

    def test_capacity_schemes_need_rate(self, small_mgn):
        with pytest.raises(ValueError, match="aggregate_rate"):
            small_mgn.build_tree(0, "capacity-aware-dsct")
        t = small_mgn.build_tree(0, "capacity-aware-dsct", aggregate_rate=0.5)
        assert t.size == small_mgn.network.n_hosts

    def test_unknown_scheme(self, small_mgn):
        with pytest.raises(ValueError):
            small_mgn.build_tree(0, "banyan")

    def test_groups_get_independent_but_stable_draws(self, small_mgn):
        a = small_mgn.build_all_trees("dsct", rng=5)
        b = small_mgn.build_all_trees("dsct", rng=5)
        for x, y in zip(a, b):
            assert x.parent == y.parent
        # Different groups (different sources) produce different trees.
        assert a[0].parent != a[1].parent

    def test_rtt_and_latency_cached(self, small_mgn):
        r1 = small_mgn.rtt
        r2 = small_mgn.rtt
        assert r1 is r2
        assert np.array_equal(small_mgn.rtt, 2 * small_mgn.latency)

    def test_rtt_is_host_rtt_matrix(self, small_network):
        mgn = MultiGroupNetwork.fully_joined(small_network, 2, rng=5)
        assert (mgn.rtt == host_rtt_matrix(small_network)).all()

    def test_tree_cell_runs_one_backbone_dijkstra(self, monkeypatch):
        """A tree cell's network derives rtt from its cached latency, so
        building the tree and reading hop latencies route the backbone
        once."""
        calls = []
        real = routing.router_distance_matrix

        def counted(backbone):
            calls.append(backbone)
            return real(backbone)

        monkeypatch.setattr(routing, "router_distance_matrix", counted)
        sc = Scenario(name="tree", kinds=("cbr",) * 3, utilization=0.5,
                      mode="sigma-rho", topology="tree", tree_members=12)
        _resolve_tree(sc)  # _build_tree, then the path's hop latencies
        assert len(calls) == 1

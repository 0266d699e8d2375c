"""Figures 6(a)-(c): worst-case multicast delay in the multi-group network.

The paper's Simulation II: 665 end hosts attached to the Fig.-5
backbone, all joining 3 groups; six scheme combinations are compared --
{capacity-aware, (sigma, rho), (sigma, rho, lambda)} x {DSCT, NICE}.
Expected shape (Fig. 6): the (sigma, rho) trees degrade steeply with
load; capacity-aware trees degrade mildly (taller trees, but bounded
per-hop load); the (sigma, rho, lambda) trees win beyond the rate
threshold; DSCT beats NICE under every control scheme (location
awareness shortens overlay hops).

Methodology (in place of the paper's ns-2 runs over whole trees): per
group we build the full tree, then run the regulated-chain simulation
along its *critical path* (the longest root-to-leaf path, which attains
the worst case per Theorem 7's construction), with every forwarder
loaded by all K group flows.  The reported WDB is the maximum over
groups of (sum of per-hop worst-case delays + underlay propagation
along the path); ``tests/test_tree_sim.py`` checks that it bounds the
whole-tree measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.calculus.envelope import ArrivalEnvelope
from repro.core.threshold import heterogeneous_threshold, homogeneous_threshold
from repro.experiments.config import Fig6Config
from repro.experiments.report import find_crossover, max_improvement
from repro.overlay.groups import MultiGroupNetwork
from repro.overlay.tree import MulticastTree
from repro.simulation.fluid import simulate_fluid_chain
from repro.topology.attach import attach_hosts
from repro.topology.backbone import fig5_backbone
from repro.utils.rng import derive_seed
from repro.workloads.profiles import TrafficMix

__all__ = ["Fig6Point", "Fig6Result", "run_fig6", "measure_tree_wdb"]


@dataclass(frozen=True)
class Fig6Point:
    """One sweep point: WDB of every scheme at one utilisation."""

    utilization: float
    wdb: dict[str, float]


@dataclass(frozen=True)
class Fig6Result:
    """A full Figure-6 panel (one traffic mix)."""

    mix_name: str
    homogeneous: bool
    schemes: tuple[str, ...]
    points: tuple[Fig6Point, ...]
    crossover_dsct: float | None
    max_improvement_dsct: float
    theoretical_threshold_aggregate: float
    tree_heights: dict[str, dict[float, list[int]]]

    @property
    def utilizations(self) -> list[float]:
        return [p.utilization for p in self.points]

    def series(self, scheme: str) -> list[float]:
        return [p.wdb[scheme] for p in self.points]


def _parse_scheme(scheme: str) -> tuple[str, str]:
    """Split ``"dsct+sigma-rho"``-style labels into (tree, control)."""
    if scheme.startswith("capacity-aware-"):
        return scheme, "none"
    tree, _, control = scheme.partition("+")
    if tree not in ("dsct", "nice") or control not in (
        "sigma-rho", "sigma-rho-lambda",
    ):
        raise ValueError(f"unrecognised scheme {scheme!r}")
    return tree, control


def measure_tree_wdb(
    tree: MulticastTree,
    group: int,
    traces,
    envelopes: Sequence[ArrivalEnvelope],
    latency: np.ndarray,
    *,
    mode: str,
    capacities,
    config: Fig6Config,
) -> float:
    """Worst-case multicast delay of one group's tree (critical path).

    ``traces``/``envelopes`` are per-group; index ``group`` is the
    tagged flow travelling the path, the rest are cross traffic at every
    forwarder.  ``capacities`` is a scalar (regulated hosts, C = 1) or a
    per-forwarder list (capacity-aware: capacity / fan-out).
    """
    path = tree.critical_path()
    if len(path) < 2:
        return 0.0
    forwarders = path[:-1]
    hops = len(forwarders)
    # Propagation entering each forwarder (source forwards locally at
    # hop 0), plus the final overlay edge to the leaf receiver.
    propagation = [0.0] + [
        float(latency[path[i - 1], path[i]]) for i in range(1, hops)
    ]
    final_edge = float(latency[path[-2], path[-1]])
    order = [group] + [g for g in range(len(traces)) if g != group]
    tagged_trace = traces[group]
    cross = [traces[g] for g in order[1:]]
    envs = [envelopes[g] for g in order]
    result = simulate_fluid_chain(
        tagged_trace,
        [cross] * hops,
        envs,
        mode=mode,
        capacity=capacities,
        discipline=config.discipline,
        propagation=propagation,
        dt=config.dt,
        horizon=config.horizon,
    )
    return result.worst_case_delay + final_edge


def run_fig6(mix: TrafficMix, config: Fig6Config | None = None) -> Fig6Result:
    """Sweep one traffic mix over the rate axis (one Figure-6 panel)."""
    config = config or Fig6Config()
    backbone = fig5_backbone()
    network = attach_hosts(
        backbone, config.n_hosts, rng=derive_seed(config.seed, "attach")
    )
    mgn = MultiGroupNetwork.fully_joined(
        network,
        mix.k,
        host_capacity_range=config.host_capacity_range,
        rng=derive_seed(config.seed, "groups"),
    )
    latency = mgn.latency

    # Rate-independent trees are built once.
    static_trees: dict[str, list[MulticastTree]] = {}
    for base in ("dsct", "nice"):
        if any(s.startswith(base + "+") for s in config.schemes):
            static_trees[base] = mgn.build_all_trees(
                base, k=config.cluster_k, rng=config.seed
            )

    points: list[Fig6Point] = []
    tree_heights: dict[str, dict[float, list[int]]] = {
        s: {} for s in config.schemes
    }
    for u in config.utilizations:
        u = float(u)
        scaled = mix.at_utilization(u)
        # Rate-independent seed: the sweep rescales one stream pattern
        # (see single_host._measure_point for the rationale).
        seed = derive_seed(config.seed, "fig6", mix.name)
        traces = scaled.generate_traces(
            config.horizon, seed, shared=config.shared_streams, mtu=config.mtu
        )
        envelopes = [
            ArrivalEnvelope(max(tr.empirical_sigma(src.rate), 1e-9), src.rate)
            for tr, src in zip(traces, scaled.sources)
        ]
        wdb: dict[str, float] = {}
        for scheme in config.schemes:
            tree_kind, control = _parse_scheme(scheme)
            if control == "none":
                trees = mgn.build_all_trees(
                    tree_kind, k=config.cluster_k,
                    aggregate_rate=u, rng=config.seed,
                )
            else:
                trees = static_trees[tree_kind]
            tree_heights[scheme][u] = [t.height for t in trees]
            worst = 0.0
            for g, tree in enumerate(trees):
                if control == "none":
                    fanout = tree.fanout()
                    caps = [
                        float(mgn.host_capacity[h]) / max(fanout.get(h, 1), 1)
                        for h in tree.critical_path()[:-1]
                    ]
                    mode = "none"
                else:
                    caps = 1.0
                    mode = control
                worst = max(
                    worst,
                    measure_tree_wdb(
                        tree, g, traces, envelopes, latency,
                        mode=mode, capacities=caps, config=config,
                    ),
                )
            wdb[scheme] = worst
        points.append(Fig6Point(utilization=u, wdb=wdb))

    us = [p.utilization for p in points]
    cross = None
    improvement = 1.0
    if "dsct+sigma-rho" in config.schemes and "dsct+sigma-rho-lambda" in config.schemes:
        sr = [p.wdb["dsct+sigma-rho"] for p in points]
        srl = [p.wdb["dsct+sigma-rho-lambda"] for p in points]
        cross = find_crossover(us, sr, srl)
        _, improvement = max_improvement(us, sr, srl)
    if mix.is_homogeneous:
        theo = homogeneous_threshold(mix.k, aggregate=True)
    else:
        theo = heterogeneous_threshold(mix.k, aggregate=True)
    return Fig6Result(
        mix_name=mix.name,
        homogeneous=mix.is_homogeneous,
        schemes=tuple(config.schemes),
        points=tuple(points),
        crossover_dsct=cross,
        max_improvement_dsct=improvement,
        theoretical_threshold_aggregate=theo,
        tree_heights=tree_heights,
    )

"""Whole-tree multicast simulation (packet replication at every host).

The figure harness reduces each group tree to its critical path
(Theorem 7's worst-case construction).  This module simulates the
*entire* tree instead: every member host runs the full regulated
pipeline (per-flow regulators + MUX) and replicates each forwarded
packet to all of its children over the underlay latencies.  It is the
ground truth the critical-path reduction is validated against in
``tests/test_tree_sim.py`` -- and a realistic substrate in its own
right (per-receiver delays, loss hooks, churn interplay).

Cost: an evented tree pays events scaling with
(members x packets x K).  Here no event loop runs at all, under any
MUX discipline: every member is a fully-known host once its parent is
resolved, so the tree is one closed-form host pass per member, top
down (:func:`repro.simulation.batched.primed_tagged_hop`).  A member's
tagged arrivals are its parent's deliveries plus the link latency, and
the K-1 cross flows' regulator departures are computed once per call
outside the lambda mode.  The tie order is the evented tree's, which
injects every member's cross traffic before the root's tagged flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.calculus.envelope import ArrivalEnvelope
from repro.core.adaptive import resolve_mode
from repro.overlay.tree import MulticastTree
from repro.simulation.batched import primed_tagged_hop
from repro.simulation.flow import PacketTrace
from repro.simulation.host_sim import MODES
from repro.simulation.measures import DelayStats
from repro.utils.validation import check_non_negative

__all__ = ["TreeSimResult", "simulate_multicast_tree"]


@dataclass(frozen=True)
class TreeSimResult:
    """Outcome of a whole-tree multicast simulation for one group."""

    group: int
    mode: str
    worst_case_delay: float
    #: The member with the largest worst-case delay; among exact ties,
    #: the first in top-down (breadth-first) order.
    worst_receiver: int
    per_receiver_worst: dict[int, float]
    #: The closed-form passes run instead of events (regulator passes
    #: plus MUX busy periods, summed over members).
    events: int
    #: Whether every member was resolved closed-form.
    primed: bool = False

    def stats(self) -> DelayStats:
        return DelayStats.from_delays(
            np.asarray(list(self.per_receiver_worst.values()))
        )


def simulate_multicast_tree(
    trees: Sequence[MulticastTree],
    group: int,
    traces: Sequence[PacketTrace],
    envelopes: Sequence[ArrivalEnvelope],
    latency: np.ndarray,
    *,
    mode: str = "sigma-rho",
    capacity: float = 1.0,
    discipline: str = "fifo",
    horizon: Optional[float] = None,
    host_capacity: Optional[Mapping[int, float]] = None,
) -> TreeSimResult:
    """Simulate group ``group``'s flow over its full tree.

    Every member of the group's tree instantiates the regulated host
    pipeline for all K flows (it joined every group, per the paper's
    Simulation II population): the group's own flow arrives from its
    tree parent and is replicated to its children; the other K-1 flows
    enter locally as cross traffic (their own trees are independent).

    Parameters
    ----------
    trees:
        One tree per group (only ``trees[group]`` is walked; the others
        define which flows exist).
    group:
        Index of the simulated group (the tagged flow).
    traces, envelopes:
        Per-group packet traces and (sigma, rho) descriptions.
    latency:
        Host-to-host one-way underlay latency matrix.
    mode, capacity, discipline:
        Regulated-host pipeline configuration (see
        :func:`repro.simulation.host_sim.simulate_regulated_host`).
        Under ``discipline="priority"`` every member serves the tagged
        flow last (it gets the largest priority value).
    host_capacity:
        Optional per-host MUX capacity override (capacity-aware runs).

    Returns
    -------
    TreeSimResult
        Per-receiver worst-case delays of the tagged flow and the
        network-wide worst case (the WDB of the paper).

    The latency of every tree edge must be finite and non-negative.
    Each member is one closed-form host pass, top down, with no event
    loop.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    tree = trees[group]
    k = len(traces)
    if len(envelopes) != k:
        raise ValueError("traces and envelopes must align")
    children = tree.children()
    # Top-down (breadth-first) member order: members are resolved in
    # it, so a parent is always done before its children.
    top_down = [tree.root]
    for host in top_down:
        top_down.extend(children[host])
    # Latency of the edge into each non-root member.
    link = {
        host: check_non_negative(
            float(latency[tree.parent[host], host]),
            f"latency[{tree.parent[host]}, {host}]",
        )
        for host in top_down[1:]
    }
    if horizon is None:
        horizon = max(float(tr.times[-1]) for tr in traces if len(tr)) + 1e-9

    def host_cap(host: int) -> float:
        if host_capacity is None:
            return capacity
        return float(host_capacity.get(host, capacity))

    def host_phase(host: int) -> float:
        return (hash(host) % 997) / 997.0

    # Flow order inside each host: tagged flow first (index 0).
    env_order = [envelopes[group]] + [
        envelopes[g] for g in range(k) if g != group
    ]
    cross = [traces[g].restrict(horizon) for g in range(k) if g != group]
    tagged = traces[group].restrict(horizon)
    per_receiver: dict[int, float] = {}

    cross_cache: dict = {}
    deliveries: dict[int, np.ndarray] = {}
    relays: dict = {}
    events = 0
    for host in top_down:
        cap = host_cap(host)
        if host == tree.root:
            arrivals, upstream = tagged.times, None
        else:
            parent = tree.parent[host]
            arrivals = deliveries[parent] + link[host]
            upstream = relays[parent]
        deliveries[host], passes, relays[host] = primed_tagged_hop(
            arrivals,
            tagged.sizes,
            cross,
            env_order,
            resolve_mode(mode, env_order, cap),
            capacity=cap,
            stagger_phase=host_phase(host),
            cross_cache=cross_cache,
            discipline=discipline,
            upstream=upstream,
        )
        events += passes
        worst = float(np.max(deliveries[host] - tagged.times, initial=0.0))
        if worst > 0.0:
            per_receiver[host] = worst
    if not per_receiver:
        raise RuntimeError("no packet was delivered; empty trace?")
    worst_host = max(per_receiver, key=lambda h: per_receiver[h])
    return TreeSimResult(
        group=group,
        mode=mode,
        worst_case_delay=per_receiver[worst_host],
        worst_receiver=worst_host,
        per_receiver_worst=dict(per_receiver),
        events=events,
        primed=True,
    )


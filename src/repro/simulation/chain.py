"""Multi-hop chain simulation: the critical path of a multicast tree.

The worst-case multicast delay of Theorem 7 is attained on the longest
source-to-receiver path of the tallest group tree, with every forwarder
on that path joining all K groups (the theorem's proof construction).
:func:`simulate_regulated_chain` realises exactly that construction: a
chain of ``hops`` regulated end hosts, where the *tagged* flow (flow 0)
travels the whole chain while each host additionally serves K-1 fresh
cross-flows from the other groups.  Whole-tree DES runs on small trees
are used in the test suite to validate this critical-path reduction.

Propagation delays between consecutive hosts are taken from the overlay
path (underlay shortest-path latencies); queueing/regulation delays
emerge from the components.

Every flow's traffic is known hop by hop, so under every MUX
discipline the chain is a loop of closed-form host passes
(:func:`repro.simulation.batched.primed_tagged_hop`) with no event
loop: hop h's tagged arrivals are hop h-1's deliveries plus the
propagation delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.calculus.envelope import ArrivalEnvelope
from repro.core.adaptive import resolve_mode
from repro.simulation.batched import primed_tagged_hop
from repro.simulation.flow import PacketTrace
from repro.simulation.measures import DelayStats
from repro.utils.validation import check_non_negative

__all__ = ["ChainResult", "simulate_regulated_chain"]


@dataclass(frozen=True)
class ChainResult:
    """Outcome of a critical-path chain simulation."""

    mode: str
    hops: int
    worst_case_delay: float
    tagged_stats: DelayStats
    #: The closed-form passes run instead of events (regulator passes
    #: plus MUX busy periods, summed over hops).
    events: int
    #: Cancelled heap events (see ``HostResult``).
    cancelled_events: int = 0
    #: Whether every hop was resolved closed-form (see
    #: ``simulate_regulated_chain`` notes).
    primed: bool = False


def simulate_regulated_chain(
    tagged_trace: PacketTrace,
    cross_traces_per_hop: Sequence[Sequence[PacketTrace]],
    envelopes: Sequence[ArrivalEnvelope],
    *,
    mode: str = "sigma-rho",
    capacity: float = 1.0,
    discipline: str = "priority",
    stagger_phase: float = 0.0,
    propagation: Optional[Sequence[float]] = None,
    horizon: Optional[float] = None,
) -> ChainResult:
    """Simulate the tagged flow across a chain of regulated hosts.

    Parameters
    ----------
    tagged_trace:
        Packet emissions of the tagged group flow (flow id 0); it enters
        host 0 and is forwarded through every host in the chain.
    cross_traces_per_hop:
        ``cross_traces_per_hop[h]`` holds the K-1 cross-flow traces
        entering host ``h`` (flow ids 1..K-1).  Its length defines the
        number of hops.
    envelopes:
        The K per-flow envelopes (tagged first); every host uses the
        same flow population, per the Theorem 7 worst-case construction.
    mode, capacity, discipline:
        As in :func:`repro.simulation.host_sim.simulate_regulated_host`.
        Under ``discipline="priority"`` every host serves the tagged
        flow last (it gets the largest priority value), realising the
        adversarial general MUX.
    stagger_phase:
        Base fraction of the stagger period added to every hop's
        vacation offsets, on top of the built-in per-hop
        de-synchronisation (the bounds hold for any phase; adversarial
        scenario sweeps shift it).
    propagation:
        Per-hop propagation delay entering each host (length ``hops``;
        index 0 is source -> host 0).  Defaults to zero; every entry
        must be finite and non-negative.
    horizon:
        Injection stops here (defaults to just past the tagged flow's
        last emission); cross traffic is cut at the same instant.

    Notes
    -----
    Consecutive hosts use staggered vacation offsets shifted by half a
    window so the tagged flow does not ride a lucky synchronisation.

    Every flow entering a hop is known once the previous hop is
    resolved, so each hop is one closed-form host pass
    (:func:`repro.simulation.batched.primed_tagged_hop`) and no event
    loop runs: hop h's tagged arrivals are hop h-1's
    deliveries plus ``propagation[h]``, relayed at run time after the
    tagged flow was injected at hop 0 ahead of all cross traffic.
    Cross departures are computed once per call outside the lambda
    mode.  ``events`` counts the passes run.
    """
    hops = len(cross_traces_per_hop)
    if hops < 1:
        raise ValueError("at least one hop is required")
    k = len(envelopes)
    for h, cross in enumerate(cross_traces_per_hop):
        if len(cross) != k - 1:
            raise ValueError(
                f"hop {h} has {len(cross)} cross traces; expected K-1={k - 1}"
            )
    if propagation is None:
        propagation = [0.0] * hops
    if len(propagation) != hops:
        raise ValueError("propagation must have one entry per hop")
    for h, delay in enumerate(propagation):
        check_non_negative(delay, f"propagation[{h}]")
    if horizon is None:
        horizon = float(tagged_trace.times[-1]) + 1e-9 if len(tagged_trace) else 1.0

    tagged_in = tagged_trace.restrict(horizon)
    # Restrict each distinct cross trace once: callers typically pass
    # the same cross list at every hop.
    restricted: dict[int, PacketTrace] = {}
    cross_in = []
    for cross in cross_traces_per_hop:
        for trace in cross:
            if id(trace) not in restricted:
                restricted[id(trace)] = trace.restrict(horizon)
        cross_in.append([restricted[id(trace)] for trace in cross])

    mode_eff = resolve_mode(mode, envelopes, capacity)
    cross_cache: dict = {}
    events = 0
    # The source hands the tagged flow to hop 0 as every hop hands
    # it to the next: deliveries plus the propagation delay.
    deliveries = tagged_in.times
    relay = None
    for h in range(hops):
        deliveries, passes, relay = primed_tagged_hop(
            deliveries + propagation[h],
            tagged_in.sizes,
            cross_in[h],
            envelopes,
            mode_eff,
            capacity=capacity,
            stagger_phase=(stagger_phase + h * 0.37) % 1.0,
            cross_cache=cross_cache,
            discipline=discipline,
            tagged_first=True,
            upstream=relay,
        )
        events += passes
    stats = DelayStats.from_delays(deliveries - tagged_in.times)
    return ChainResult(
        mode=mode,
        hops=hops,
        worst_case_delay=stats.worst,
        tagged_stats=stats,
        events=events,
        primed=True,
    )

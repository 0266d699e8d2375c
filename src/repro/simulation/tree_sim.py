"""Whole-tree multicast simulation (packet replication at every host).

The figure harness reduces each group tree to its critical path
(Theorem 7's worst-case construction).  This module simulates the
*entire* tree instead: every member host runs the full regulated
pipeline (per-flow regulators + MUX) and replicates each forwarded
packet to all of its children over the underlay latencies.  It is the
ground truth the critical-path reduction is validated against in
``tests/test_tree_sim.py`` -- and a realistic substrate in its own
right (per-receiver delays, loss hooks, churn interplay).

Cost: the legacy engine pays events scaling with
(members x packets x K).  The batched engine under the adversarial
discipline is *busy-period bound* instead: the K-1 cross flows at
every member are known up front, so their regulator departures fold
into each host's MUX as a zero-event background train
(:meth:`repro.simulation.batched.BatchMuxServer.prime_background`),
and replication commits **one fanout event per MUX busy period per
child** -- the released busy period travels as one packet batch --
instead of one event per packet per child.  The tagged flow's root
pipeline is closed form too (:func:`_primed_root_release`): its
regulator departures and the root MUX's busy periods are computed as
one array pass, and the root replicator sees exactly one
``receive_batch`` event per busy period -- the whole primed tree is
busy-period bound, with no per-packet event surface left anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.calculus.envelope import ArrivalEnvelope
from repro.core.adaptive import AdaptiveController
from repro.overlay.tree import MulticastTree
from repro.simulation.batched import (
    _adversarial_mux_deliveries,
    _flow_departures,
    _stagger_schedule,
)
from repro.simulation.engine import Simulator
from repro.simulation.flow import PacketTrace
from repro.simulation.host_sim import (
    MODES,
    build_regulated_host,
    inject_trace,
    resolve_mode,
)
from repro.simulation.measures import DelayStats
from repro.simulation.packet import Packet

__all__ = ["TreeSimResult", "simulate_multicast_tree"]


@dataclass(frozen=True)
class TreeSimResult:
    """Outcome of a whole-tree multicast simulation for one group."""

    group: int
    mode: str
    worst_case_delay: float
    worst_receiver: int
    per_receiver_worst: dict[int, float]
    events: int
    #: Whether cross traffic was folded closed-form into every member's
    #: MUX and replication ran busy-period batched (batched engine +
    #: adversarial discipline).
    primed: bool = False

    def stats(self) -> DelayStats:
        return DelayStats.from_delays(
            np.asarray(list(self.per_receiver_worst.values()))
        )


class _Replicator:
    """Fan a served packet out to every child entry (plus local delivery).

    Two paths: the per-packet :meth:`receive` (legacy engine, FIFO
    deliveries) copies each packet per child with its ``hops`` counter
    bumped; the busy-period :meth:`receive_batch` (adversarial batched
    MUX release) forwards the released batch as **one event per child,
    sharing the packet objects** -- nothing downstream mutates them and
    delays are measured against ``t_emit`` alone, so the copies (and
    their ``hops`` bookkeeping) are pure churn the fast path skips.
    """

    def __init__(
        self,
        sim: Simulator,
        host: int,
        flow_id: int,
        children_entries: Sequence[tuple[int, object, float]],
        deliver,
        deliver_batch,
    ):
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.children_entries = children_entries  # (child, entry, latency)
        self.deliver = deliver
        self.deliver_batch = deliver_batch

    def receive(self, packet: Packet) -> None:
        # Local delivery at this host (it is a receiver too).
        self.deliver(self.host, self.flow_id, packet)
        for child, entry, latency in self.children_entries:
            copy = Packet(
                flow_id=packet.flow_id,
                size=packet.size,
                t_emit=packet.t_emit,
                hops=packet.hops + 1,
            )
            self.sim.schedule_in(latency, entry.receive, copy)

    def receive_batch(self, packets: Sequence[Packet]) -> None:
        """Deliver and replicate one released busy period: a single
        vectorised local update plus one fanout event per child."""
        self.deliver_batch(self.host, packets)
        sim = self.sim
        for child, entry, latency in self.children_entries:
            sim.schedule_in(latency, entry.receive_batch, packets)


def _primed_root_release(
    sim: Simulator,
    tagged: PacketTrace,
    cross: Sequence[PacketTrace],
    env_order: Sequence[ArrivalEnvelope],
    replicator: "_Replicator",
    *,
    mode: str,
    capacity: float,
    stagger_phase: float,
) -> None:
    """Schedule the root replicator's busy-period releases closed form.

    The root host is a fully-known adversarial host: the tagged flow's
    arrivals and all K-1 cross traces are available up front, so its
    whole pipeline -- tagged regulator, MUX busy periods, hold-and-
    release -- collapses into the same array pass
    :func:`repro.simulation.batched.primed_adversarial_host` runs for
    single-host cells.  The only thing the event loop still has to do
    is fan released batches out to the children, so this schedules
    exactly one ``receive_batch`` event per MUX busy period that
    contains tagged packets (``priority=-1``, the release check's slot
    in the evented event order) and nothing else: the last per-packet
    surface of the primed tree is gone.

    Bit-identity is by construction: the regulator kernels replay the
    evented components' float sequence, the background fold and the
    ``busy_until`` recurrence are the proven MUX arithmetic (cross
    flows in sorted flow order precede equal-time tagged arrivals,
    exactly the injection-order tie-break), and each release fires at
    the busy period's end with the packets the evented MUX would hold.
    """
    eff = resolve_mode(mode, env_order, capacity)
    schedule = (
        _stagger_schedule(
            AdaptiveController(env_order, capacity), stagger_phase
        )
        if eff == "sigma-rho-lambda"
        else None
    )

    def _departures(f: int, tr: PacketTrace) -> np.ndarray:
        deps, _ = _flow_departures(
            eff, f, tr.times, tr.sizes, env_order, capacity, schedule
        )
        return np.asarray(deps, dtype=np.float64)

    # The cross background train, rebuilt with the builder's arithmetic
    # (sorted flow order, stable time sort): it must interleave with
    # the tagged departures exactly like the train primed into the
    # root's MUX.
    bg_t_parts = [_departures(f, tr) for f, tr in enumerate(cross, start=1)]
    bg_s_parts = [np.asarray(tr.sizes, dtype=np.float64) for tr in cross]
    bg_t = np.concatenate(bg_t_parts) if bg_t_parts else np.empty(0)
    bg_s = np.concatenate(bg_s_parts) if bg_s_parts else np.empty(0)
    bg_order = np.argsort(bg_t, kind="stable")
    bg_t = bg_t[bg_order]
    bg_s = bg_s[bg_order]

    tagged_deps = _departures(0, tagged)
    # Stable merge: background arrivals precede equal-time tagged ones
    # (background events carry earlier sequence numbers in the evented
    # order), tagged departures keep emission order.
    arr = np.concatenate([bg_t, tagged_deps])
    sizes = np.concatenate([bg_s, np.asarray(tagged.sizes, dtype=np.float64)])
    is_tagged = np.zeros(arr.size, dtype=bool)
    is_tagged[bg_t.size:] = True
    order = np.argsort(arr, kind="stable")
    arr = arr[order]
    tx = sizes[order] / capacity
    is_tagged = is_tagged[order]
    delivery, _ = _adversarial_mux_deliveries(arr, tx)

    t_del = delivery[is_tagged]
    if t_del.size == 0:
        return
    # Consecutive equal delivery instants = one busy period (ends are
    # strictly increasing across periods): one release batch each.
    starts = np.concatenate(([0], np.flatnonzero(np.diff(t_del) > 0) + 1))
    ends = np.concatenate((starts[1:], [t_del.size]))
    # The evented root counts one busy period per release check, i.e.
    # per tagged-containing period; background-only periods fold
    # uncounted there too.
    sim.busy_periods += int(starts.size)
    packets = [
        Packet(flow_id=0, size=float(s), t_emit=float(t))
        for t, s in zip(tagged.times, tagged.sizes)
    ]
    sim.schedule_batch(
        t_del[starts],
        replicator.receive_batch,
        ((packets[a:b],) for a, b in zip(starts, ends)),
        priority=-1,
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
    engine: str = "batched",
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
        :func:`repro.simulation.host_sim.build_regulated_host`).
    host_capacity:
        Optional per-host MUX capacity override (capacity-aware runs).
    engine:
        ``"batched"`` (window-batched components, default) or
        ``"legacy"`` (per-packet event chain); see
        :func:`repro.simulation.host_sim.build_regulated_host`.

    Returns
    -------
    TreeSimResult
        Per-receiver worst-case delays of the tagged flow and the
        network-wide worst case (the WDB of the paper).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    tree = trees[group]
    k = len(traces)
    if len(envelopes) != k:
        raise ValueError("traces and envelopes must align")
    if horizon is None:
        horizon = max(float(tr.times[-1]) for tr in traces if len(tr)) + 1e-9
    # Busy-period fast path: cross traffic folds into each member's MUX
    # closed-form, replication batches per busy period.  Adversarial
    # delivery instants are tie-order invariant, which is what makes
    # the folding exact (see the batched-module docstring).
    primed = engine == "batched" and discipline == "adversarial"

    sim = Simulator()
    per_receiver: dict[int, float] = {}

    def deliver(host: int, flow_id: int, packet: Packet) -> None:
        if flow_id != group:
            return
        delay = sim.now - packet.t_emit
        if delay > per_receiver.get(host, 0.0):
            per_receiver[host] = delay

    def deliver_batch(host: int, packets: Sequence[Packet]) -> None:
        # One released busy period, all delivered now: the worst delay
        # of the batch is measured against its earliest emission.
        delay = sim.now - min(p.t_emit for p in packets)
        if delay > per_receiver.get(host, 0.0):
            per_receiver[host] = delay

    # Build hosts bottom-up so children entries exist before parents.
    entries_by_host: dict[int, list] = {}
    children = tree.children()
    order = sorted(tree.members(), key=tree.depth, reverse=True)
    # Flow order inside each host: tagged flow first (index 0) so the
    # adversarial priority, when used, targets it.
    env_order = [envelopes[group]] + [
        envelopes[g] for g in range(k) if g != group
    ]
    cross = [traces[g].restrict(horizon) for g in range(k) if g != group]
    primed_map = (
        {f: tr for f, tr in enumerate(cross, start=1)} if primed else None
    )
    root_replicator: Optional[_Replicator] = None
    for host in order:
        child_entries = [
            (c, entries_by_host[c][0], float(latency[host, c]))
            for c in children[host]
        ]
        replicator = _Replicator(
            sim, host, group, child_entries, deliver, deliver_batch
        )
        if host == tree.root:
            root_replicator = replicator
        sink_map: dict[int, object] = {0: replicator}
        for f in range(1, k):
            sink_map[f] = _Drop()
        cap = capacity
        if host_capacity is not None:
            cap = float(host_capacity.get(host, capacity))
        entries, _ = build_regulated_host(
            sim, env_order, sink_map,
            mode=mode, capacity=cap, discipline=discipline,
            stagger_phase=(hash(host) % 997) / 997.0,
            engine=engine,
            primed_traces=primed_map,
        )
        entries_by_host[host] = entries

    # Inject the K-1 cross flows at every member (each host serves all
    # K groups) -- unless they were primed closed-form above -- and
    # then the tagged flow at the root.  Cross flows go first so that
    # at equal-time ties cross arrivals precede tagged ones everywhere
    # (fanout events always carry later sequence numbers than
    # injections), which is exactly the order the background fold
    # realises: all three engines agree on every tie.
    tagged = traces[group].restrict(horizon)
    if primed:
        root_cap = capacity
        if host_capacity is not None:
            root_cap = float(host_capacity.get(tree.root, capacity))
        assert root_replicator is not None
        _primed_root_release(
            sim, tagged, cross, env_order, root_replicator,
            mode=mode, capacity=root_cap,
            stagger_phase=(hash(tree.root) % 997) / 997.0,
        )
    else:
        for host in tree.members():
            for f, tr in enumerate(cross, start=1):
                inject_trace(sim, tr, f, entries_by_host[host][f])
        inject_trace(sim, tagged, 0, entries_by_host[tree.root][0])

    sim.run()
    # Function-local import: keeps the simulation layer importable
    # without the runtime package at module-load time.
    from repro.runtime.telemetry import record_engine

    record_engine(sim)
    if not per_receiver:
        raise RuntimeError("no packet was delivered; empty trace?")
    worst_host = max(per_receiver, key=lambda h: per_receiver[h])
    return TreeSimResult(
        group=group,
        mode=mode,
        worst_case_delay=per_receiver[worst_host],
        worst_receiver=worst_host,
        per_receiver_worst=dict(per_receiver),
        events=sim.events_processed,
        primed=primed,
    )


class _Drop:
    """Terminal sink for cross traffic."""

    def receive(self, packet: Packet) -> None:  # noqa: D102 - trivial
        pass

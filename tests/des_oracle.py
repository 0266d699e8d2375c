"""Reference DES pipelines: the oracles the production simulators are
pinned against.

:mod:`repro.simulation` runs one pipeline for every MUX discipline:
adversarial, FIFO and priority hosts, chains and trees are closed-form
passes (:mod:`repro.simulation.batched`) with no event loop.  This
module wires two reference pipelines of its own on the evented engine
of :mod:`tests.evented`, for the equivalence suites and the DES
benchmarks:

``"evented"``
    The evented components -- :class:`BatchMuxServer` (FIFO),
    :class:`MuxServer` (priority), :class:`TokenBucketComponent` and
    :class:`BatchVacationComponent` -- plus :class:`HoldReleaseMux`,
    an evented adversarial MUX that holds every packet of a busy
    period and releases them all at its end.  The closed-form passes
    equal this pipeline bit for bit in every discipline.
``"legacy"``
    The per-packet event chain: :class:`MuxServer` in every
    discipline, :class:`TokenBucketComponent` and the per-packet
    :class:`VacationComponent` below.  Its adversarial release at an
    exact zero-backlog instant is an event-order race, so the other
    pipelines measure no more than it does, and exactly as much off
    those ties.

:func:`simulate_host`, :func:`simulate_chain` and :func:`simulate_tree`
take the production simulators' arguments plus ``engine`` (one of
:data:`ORACLES`) and return the production result types.  They inject
traffic with :func:`inject_trace` in the production simulators' order
-- a host's flows in flow order, a chain's tagged flow before its cross
flows, a tree's cross flows before its tagged flow -- and their event
loop fixes the order in which equal-instant packets reach a MUX and,
under priority, which queued packet a completion starts.  The
closed-form passes define both (the tie rule in
:mod:`repro.simulation.batched`), and the equivalence suites check
that this loop reproduces them.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.core.adaptive import AdaptiveController, resolve_mode
from repro.core.regulator import SigmaRhoLambdaRegulator
from repro.simulation.chain import ChainResult
from repro.simulation.flow import PacketTrace
from repro.simulation.host_sim import HostResult
from repro.simulation.tree_sim import TreeSimResult
from repro.utils.validation import check_non_negative, check_positive
from tests.evented import (
    BatchMuxServer,
    BatchVacationComponent,
    DelayRecorder,
    Packet,
    Simulator,
    TokenBucketComponent,
)

#: The reference pipelines.
ORACLES = ("evented", "legacy")


def inject_trace(
    sim: Simulator, trace: PacketTrace, flow_id: int, sink
) -> None:
    """Schedule every packet of ``trace`` for delivery into ``sink``.

    Uses the engine's batch-schedule API: one validation pass for the
    whole train, and time-sorted traces load the heap without per-event
    sift-ups.
    """
    sim.schedule_batch(
        trace.times,
        sink.receive,
        (
            (Packet(flow_id=flow_id, size=float(s), t_emit=float(t)),)
            for t, s in zip(trace.times, trace.sizes)
        ),
    )


def _route(sink, packet: Packet) -> None:
    """Hand ``packet`` to ``sink``, or to its flow's entry of a
    ``flow_id -> component`` mapping (flows missing from it are
    dropped)."""
    if isinstance(sink, Mapping):
        target = sink.get(packet.flow_id)
        if target is not None:
            target.receive(packet)
        return
    sink.receive(packet)


class MuxServer:
    """Work-conserving server of rate ``capacity`` with pluggable
    discipline, one finish event per packet: the paper's general MUX
    (Section III) as a per-packet DES component.

    Parameters
    ----------
    sim:
        The simulator.
    capacity:
        Service rate ``C`` (1.0 under the paper's normalisation).
    sink:
        Downstream component receiving served packets, or a mapping
        ``flow_id -> component`` to demultiplex (forwarding to per-flow
        next hops in a tree).
    discipline:
        ``"fifo"``, ``"priority"`` or ``"adversarial"``.

        The *general MUX* of the paper guarantees nothing about service
        order, so the worst-case delay of a bit is the time until the
        aggregate backlog next empties (it may be served dead last,
        behind later arrivals of every flow -- this is the scenario that
        attains Remark 1's ``sum sigma_i / (C - sum rho_i)``).  The
        ``"adversarial"`` discipline realises exactly that measurement:
        packets are *served* in FIFO order (the work-conserving schedule
        is discipline-invariant in aggregate) but *delivered downstream*
        at the instant the queue empties, which is each packet's worst
        feasible departure time.
    priorities:
        For the priority discipline: ``flow_id -> priority`` (lower
        serves first).  Missing flows default to priority 0.  To measure
        the worst case of flow *f*, give *f* the largest value.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: float,
        sink,
        *,
        discipline: str = "fifo",
        priorities: Optional[Mapping[int, int]] = None,
    ):
        if discipline not in ("fifo", "priority", "adversarial"):
            raise ValueError(f"unknown discipline {discipline!r}")
        self.sim = sim
        self.capacity = check_positive(capacity, "capacity")
        self.sink = sink
        self.discipline = discipline
        self.priorities = dict(priorities or {})
        self._heap: list[tuple[int, int, Packet]] = []
        self._seq = itertools.count()
        self._busy = False
        self._batch: list[Packet] = []  # adversarial: held until queue empties
        self.served_count = 0
        self.served_data = 0.0

    # -- queue ordering ----------------------------------------------------
    def _key(self, packet: Packet) -> int:
        if self.discipline in ("fifo", "adversarial"):
            return 0  # sequence number alone orders FIFO
        return self.priorities.get(packet.flow_id, 0)

    @property
    def queue_length(self) -> int:
        return len(self._heap)

    @property
    def backlog(self) -> float:
        return sum(p.size for _, _, p in self._heap)

    # -- component interface ----------------------------------------------
    def receive(self, packet: Packet) -> None:
        heapq.heappush(self._heap, (self._key(packet), next(self._seq), packet))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._heap:
            return
        self._busy = True
        _, _, pkt = heapq.heappop(self._heap)
        self.sim.schedule_in(pkt.size / self.capacity, self._finish, pkt)

    def _finish(self, pkt: Packet) -> None:
        self._busy = False
        self.served_count += 1
        self.served_data += pkt.size
        if self.discipline == "adversarial":
            # Hold delivery until the queue empties: that instant is the
            # worst feasible departure time of every packet in the busy
            # period (the general-MUX worst case the paper bounds).
            self._batch.append(pkt)
            if not self._heap:
                batch, self._batch = self._batch, []
                for held in batch:
                    self._route(held)
        else:
            self._route(pkt)
        self._start_next()

    def _route(self, pkt: Packet) -> None:
        _route(self.sink, pkt)


class HoldReleaseMux:
    """Evented adversarial general MUX: every packet is delivered at the
    end of its busy period, the worst departure the paper bounds.

    The constant-rate drain is a running ``busy_until`` float.  Packets
    are held, and one release event lazily chases the end of the busy
    period: it reschedules itself while arrivals extend the period past
    it, then delivers every held packet in arrival order.
    """

    def __init__(self, sim: Simulator, capacity: float, sink):
        self.sim = sim
        self.capacity = check_positive(capacity, "capacity")
        self.sink = sink
        self._busy_until = -np.inf
        self._held: list[Packet] = []
        self._release = None

    def receive(self, packet: Packet) -> None:
        now = self.sim.now
        bu = self._busy_until
        start = now if now > bu else bu
        dep = start + packet.size / self.capacity
        self._busy_until = dep
        self._held.append(packet)
        if self._release is None:
            # priority=-1: the release decision precedes equal-time
            # arrivals, so an arrival at exactly the completion instant
            # opens a fresh busy period.
            self._release = self.sim.schedule(
                dep, self._try_release, priority=-1
            )

    def _try_release(self) -> None:
        if self.sim.now < self._busy_until:
            self._release = self.sim.schedule(
                self._busy_until, self._try_release, priority=-1
            )
            return
        self._release = None
        held, self._held = self._held, []
        for packet in held:
            _route(self.sink, packet)


class VacationComponent:
    """(sigma, rho, lambda) vacation regulator as a DES component.

    Parameters
    ----------
    sim:
        The simulator.
    regulator:
        Parameter object providing working period / vacation / period.
    sink:
        Downstream component.
    offset:
        Phase offset of the window cycle (stagger plan).
    out_rate:
        Forwarding rate during working periods.  The paper sets it to
        the full output capacity ``C = 1`` ("the value of the slope of
        the (sigma, rho, lambda) regulator curve is 1").
    """

    def __init__(
        self,
        sim: Simulator,
        regulator: SigmaRhoLambdaRegulator,
        sink,
        *,
        offset: float = 0.0,
        out_rate: float = 1.0,
    ):
        self.sim = sim
        self.regulator = regulator
        self.sink = sink
        self.offset = check_non_negative(offset, "offset")
        self.out_rate = check_positive(out_rate, "out_rate")
        self._queue: deque[Packet] = deque()
        self._busy = False
        self._wake = None

    # -- window arithmetic -------------------------------------------------
    # Window m covers [offset + m P, offset + m P + W).  All queries go
    # through the integer window index so that float noise at a window
    # boundary cannot produce a "next window" equal to the current time
    # (which would spin the event loop).
    _TOL = 1e-12

    def _window_index(self, t: float) -> int:
        """Index of the cycle containing ``t`` (-1 before the first)."""
        if t < self.offset - self._TOL:
            return -1
        return int((t - self.offset) // self.regulator.regulator_period)

    def window_at(self, t: float) -> Optional[tuple[float, float]]:
        """The working window containing ``t``, or None if on vacation."""
        m = self._window_index(t)
        if m < 0:
            return None
        period = self.regulator.regulator_period
        start = self.offset + m * period
        end = start + self.regulator.working_period
        if start - self._TOL <= t < end - self._TOL:
            return (start, end)
        return None

    def next_window_start(self, t: float) -> float:
        """Start time of the first working window at or after ``t``."""
        m = self._window_index(t)
        if m < 0:
            return self.offset
        period = self.regulator.regulator_period
        start = self.offset + m * period
        if t < start + self.regulator.working_period - self._TOL:
            return max(t, start)  # inside window m already
        return self.offset + (m + 1) * period

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def backlog(self) -> float:
        return sum(p.size for p in self._queue)

    # -- component interface ----------------------------------------------
    def receive(self, packet: Packet) -> None:
        self._queue.append(packet)
        if not self._busy:
            self._try_start()

    def _try_start(self) -> None:
        """Start transmitting the head packet if a window allows it."""
        if self._busy or not self._queue:
            return
        now = self.sim.now
        head = self._queue[0]
        tx_time = head.size / self.out_rate
        window = self.window_at(now)
        if window is not None and now + tx_time <= window[1] + 1e-15:
            self._busy = True
            self.sim.schedule_in(tx_time, self._finish_tx)
            return
        # Doesn't fit (or on vacation): wait for the next window in which
        # the packet fits entirely (fit check, non-preemptive).
        if tx_time > self.regulator.working_period + 1e-15:
            raise ValueError(
                "packet serialisation time exceeds the working period; "
                "decrease packet sizes or increase sigma"
            )
        if window is None:
            start = self.next_window_start(now)
        else:
            # Inside a window the packet does not fit into: jump to the
            # next cycle via the window index (strictly in the future).
            m = self._window_index(now)
            start = self.offset + (m + 1) * self.regulator.regulator_period
        # Never allow a wake at (or before) the current instant -- float
        # noise here would spin the event loop at a frozen clock.
        start = max(start, now + self._TOL)
        if self._wake is None or self._wake.cancelled or self._wake.time > start:
            if self._wake is not None:
                self._wake.cancel()
            self._wake = self.sim.schedule(start, self._wake_up)

    def _wake_up(self) -> None:
        self._wake = None
        self._try_start()

    def _finish_tx(self) -> None:
        pkt = self._queue.popleft()
        self._busy = False
        self.sink.receive(pkt)
        self._try_start()


def build_host(
    sim: Simulator,
    envelopes: Sequence,
    sink,
    *,
    engine: str,
    mode: str = "adaptive",
    capacity: float = 1.0,
    discipline: str = "priority",
    stagger_phase: float = 0.0,
):
    """Regulators + MUX of one reference host: ``(entries, mux)``, one
    entry per flow, with flow ``i`` at priority ``i``."""
    if engine not in ORACLES:
        raise ValueError(f"engine must be one of {ORACLES}, got {engine!r}")
    mode = resolve_mode(mode, envelopes, capacity)
    if engine == "legacy" or discipline == "priority":
        mux = MuxServer(
            sim, capacity, sink, discipline=discipline,
            priorities={i: i for i in range(len(envelopes))},
        )
    elif discipline == "fifo":
        mux = BatchMuxServer(sim, capacity, sink)
    elif discipline == "adversarial":
        mux = HoldReleaseMux(sim, capacity, sink)
    else:
        raise ValueError(f"unknown discipline {discipline!r}")
    if mode == "none":
        return [mux] * len(envelopes), mux
    if mode == "sigma-rho":
        return [
            TokenBucketComponent(sim, e.sigma, e.rho / capacity, mux)
            for e in envelopes
        ], mux
    plan = AdaptiveController(envelopes, capacity).build_stagger_plan()
    base = (stagger_phase % 1.0) * plan.period
    vacation = VacationComponent if engine == "legacy" else BatchVacationComponent
    return [
        vacation(sim, reg, mux, offset=base + off, out_rate=capacity)
        for reg, off in zip(plan.regulators, plan.offsets)
    ], mux


def _serve_tagged_last(mux, discipline: str, k: int) -> None:
    """Give tagged flow 0 the largest priority value (served last)."""
    if discipline == "priority":
        mux.priorities = {0: k, **{f: f for f in range(1, k)}}


def simulate_host(
    traces: Sequence,
    envelopes: Sequence,
    *,
    engine: str,
    mode: str = "adaptive",
    capacity: float = 1.0,
    discipline: str = "priority",
    stagger_phase: float = 0.0,
    horizon: Optional[float] = None,
    drain: bool = True,
) -> HostResult:
    """One regulated host on a reference pipeline (see
    :func:`repro.simulation.host_sim.simulate_regulated_host`)."""
    if horizon is None:
        horizon = max(tr.times[-1] + 1e-9 for tr in traces if len(tr))
    sim = Simulator()
    recorder = DelayRecorder(sim)
    entries, _ = build_host(
        sim, envelopes, recorder, engine=engine, mode=mode,
        capacity=capacity, discipline=discipline, stagger_phase=stagger_phase,
    )
    for flow_id, (trace, entry) in enumerate(zip(traces, entries)):
        inject_trace(sim, trace.restrict(horizon), flow_id, entry)
    sim.run(until=None if drain else horizon)
    per_flow = tuple(recorder.stats(i) for i in range(len(traces)))
    return HostResult(
        mode=resolve_mode(mode, envelopes, capacity),
        worst_case_delay=max((s.worst for s in per_flow), default=0.0),
        per_flow=per_flow,
        events=sim.events_processed,
        cancelled_events=sim.cancelled_events,
    )


class _Relay:
    """Forward the tagged flow into the next hop after a delay."""

    def __init__(self, sim: Simulator, delay: float, next_entry):
        self.sim = sim
        self.delay = delay
        self.next_entry = next_entry

    def receive(self, packet: Packet) -> None:
        self.sim.schedule_in(self.delay, self.next_entry.receive, packet)


def simulate_chain(
    tagged_trace,
    cross_traces_per_hop: Sequence[Sequence],
    envelopes: Sequence,
    *,
    engine: str,
    mode: str = "sigma-rho",
    capacity: float = 1.0,
    discipline: str = "priority",
    stagger_phase: float = 0.0,
    propagation: Optional[Sequence[float]] = None,
    horizon: Optional[float] = None,
) -> ChainResult:
    """The tagged flow across a chain of reference hosts (see
    :func:`repro.simulation.chain.simulate_regulated_chain`)."""
    hops = len(cross_traces_per_hop)
    k = len(envelopes)
    if propagation is None:
        propagation = [0.0] * hops
    if horizon is None:
        horizon = float(tagged_trace.times[-1]) + 1e-9
    sim = Simulator()
    recorder = DelayRecorder(sim)
    # Back to front, so each host's tagged output can feed the next
    # host's entry; cross traffic leaves the chain after its hop.
    entries_per_hop: list = [None] * hops
    for h in reversed(range(hops)):
        tagged_sink = (
            recorder
            if h == hops - 1
            else _Relay(sim, propagation[h + 1], entries_per_hop[h + 1][0])
        )
        entries, mux = build_host(
            sim, envelopes, {0: tagged_sink}, engine=engine, mode=mode,
            capacity=capacity, discipline=discipline,
            stagger_phase=(stagger_phase + h * 0.37) % 1.0,
        )
        _serve_tagged_last(mux, discipline, k)
        entries_per_hop[h] = entries
    tagged = tagged_trace.restrict(horizon)
    sim.schedule_batch(
        tagged.times + propagation[0],
        entries_per_hop[0][0].receive,
        (
            (Packet(flow_id=0, size=float(s), t_emit=float(t)),)
            for t, s in zip(tagged.times, tagged.sizes)
        ),
    )
    for h, cross in enumerate(cross_traces_per_hop):
        for f, trace in enumerate(cross, start=1):
            inject_trace(sim, trace.restrict(horizon), f, entries_per_hop[h][f])
    sim.run()
    stats = recorder.stats(0)
    return ChainResult(
        mode=mode,
        hops=hops,
        worst_case_delay=stats.worst,
        tagged_stats=stats,
        events=sim.events_processed,
        cancelled_events=sim.cancelled_events,
    )


def simulate_tree(
    trees: Sequence,
    group: int,
    traces: Sequence,
    envelopes: Sequence,
    latency: np.ndarray,
    *,
    engine: str,
    mode: str = "sigma-rho",
    capacity: float = 1.0,
    discipline: str = "fifo",
    horizon: Optional[float] = None,
    host_capacity: Optional[Mapping[int, float]] = None,
) -> TreeSimResult:
    """Group ``group``'s flow over its whole tree of reference hosts (see
    :func:`repro.simulation.tree_sim.simulate_multicast_tree`): every
    member serves all K flows and replicates each tagged packet it
    serves to its children."""
    tree = trees[group]
    k = len(traces)
    children = tree.children()
    if horizon is None:
        horizon = max(float(tr.times[-1]) for tr in traces if len(tr)) + 1e-9
    env_order = [envelopes[group]] + [
        envelopes[g] for g in range(k) if g != group
    ]
    cross = [traces[g].restrict(horizon) for g in range(k) if g != group]
    sim = Simulator()
    per_receiver: dict[int, float] = {}

    class _Replicator:
        def __init__(self, host: int, child_entries):
            self.host = host
            self.child_entries = child_entries  # (entry, latency)

        def receive(self, packet: Packet) -> None:
            delay = sim.now - packet.t_emit
            if delay > per_receiver.get(self.host, 0.0):
                per_receiver[self.host] = delay
            for entry, lat in self.child_entries:
                sim.schedule_in(lat, entry.receive, packet)

    # Bottom-up, so every child's entry exists before its parent's.
    top_down = [tree.root]
    for host in top_down:
        top_down.extend(children[host])
    entries_by_host: dict[int, list] = {}
    for host in reversed(top_down):
        child_entries = [
            (entries_by_host[c][0], float(latency[host, c]))
            for c in children[host]
        ]
        cap = capacity if host_capacity is None else float(
            host_capacity.get(host, capacity)
        )
        entries, mux = build_host(
            sim, env_order, {0: _Replicator(host, child_entries)},
            engine=engine, mode=mode, capacity=cap, discipline=discipline,
            stagger_phase=(hash(host) % 997) / 997.0,
        )
        _serve_tagged_last(mux, discipline, k)
        entries_by_host[host] = entries
    # Cross traffic at every member first, then the tagged flow at the
    # root: at equal instants cross arrivals precede tagged ones.
    for host in tree.members():
        for f, trace in enumerate(cross, start=1):
            inject_trace(sim, trace, f, entries_by_host[host][f])
    tagged = traces[group].restrict(horizon)
    inject_trace(sim, tagged, 0, entries_by_host[tree.root][0])
    sim.run()
    worst_host = max(per_receiver, key=lambda h: per_receiver[h])
    return TreeSimResult(
        group=group,
        mode=mode,
        worst_case_delay=per_receiver[worst_host],
        worst_receiver=worst_host,
        per_receiver_worst=dict(per_receiver),
        events=sim.events_processed,
    )

"""Window-batched DES components: the engine-hot-path overhaul.

The legacy components (:mod:`repro.simulation.regulator_sim`,
:mod:`repro.simulation.mux_sim`) drive one callback chain per packet:
``receive -> schedule finish -> finish -> try-start-next``, with wakeup
cancel/reschedule churn on top.  For the expensive cells -- vacation
regulators and whole-tree runs -- almost all of that per-packet event
traffic is redundant, because the service inside a vacation window (and
a constant-rate MUX drain between arrival epochs) is a *closed-form
drain*: once the head of the queue starts transmitting, every
subsequent departure in the same busy train is determined by a
cumulative sum of serialisation times, and the non-preemptive fit check
is a cumulative-sum threshold against the window end.

This module exploits exactly that structure, at three levels:

:func:`vacation_departures`
    The pure kernel: departure times of a *fully known* arrival train
    through a (sigma, rho, lambda) vacation regulator, computed one
    busy train at a time with ``np.add.accumulate`` -- the float
    operations are sequenced identically to the legacy per-packet
    event chain, so the results are bit-identical to running the
    legacy :class:`~repro.simulation.regulator_sim.VacationComponent`.

:class:`BatchVacationComponent` / :class:`BatchMuxServer`
    Drop-in evented components for pipelines whose arrivals are *not*
    known in advance (chain hops, whole trees).  The vacation component
    commits a whole window's worth of service per wakeup (one
    continuation event per busy train instead of one finish event per
    packet); the MUX commits each packet's departure at arrival time
    (the constant-rate drain is a running ``busy_until`` float, no
    internal heap, no per-packet finish/start-next events) and, under
    the adversarial discipline, delivers each busy period with a single
    lazily-rescheduled release event.

:func:`primed_adversarial_host`
    The array fast path for fully-known single-host cells: all flows'
    traces are known up front, so the entire cell -- regulators,
    adversarial MUX, delay recording -- collapses into NumPy passes
    over merged departure arrays with *no per-packet events at all*.
    :func:`sigma_rho_departures` is the token-bucket analogue of
    :func:`vacation_departures` (closed-form departures, float ops
    sequenced identically to the legacy ``TokenBucketComponent``); one
    private per-flow dispatch (``_flow_departures``) picks between them
    -- or the raw arrival times for mode ``none`` -- for the host
    kernel and for the background trains below.  The host kernel
    serves :func:`repro.simulation.host_sim.simulate_regulated_host`
    whenever the batched engine meets ``discipline="adversarial"``,
    the primed DES group of the cell matrix, and
    :func:`repro.simulation.chain.simulate_regulated_chain` to resolve
    hop 0 (whose arrivals are all known) as a pure array pass.

Background-primed MUX (:meth:`BatchMuxServer.prime_background`)
    Chain hops past hop 0 and every tree member host serve K-1 *cross*
    flows whose traces are known up front while the tagged flow stays
    event-driven.  The cross flows' regulator departures are closed
    form, so they are folded into the MUX as a sorted *background
    train*: they occupy the server (extending busy periods exactly as
    evented arrivals would) but materialise **no events and no Packet
    objects at all** -- the running ``busy_until`` recurrence absorbs
    them lazily whenever a dynamic arrival or release check happens.
    Packets materialise only where the adversarial MUX genuinely needs
    events: the tagged flow.

Equivalence contract: for every supported configuration the batched
components must reproduce the legacy components' measured delays
bit-for-bit (the float arithmetic is sequenced identically; only event
*counts* differ).  ``tests/test_des_batched_equivalence.py`` enforces
this over the curated corpus and hypothesis-generated traces; the
legacy path stays addressable as ``engine="legacy"`` only as that
suite's test oracle.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.core.adaptive import AdaptiveController
from repro.core.regulator import SigmaRhoLambdaRegulator
from repro.simulation.engine import Simulator
from repro.simulation.packet import Packet
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "vacation_departures",
    "sigma_rho_departures",
    "BatchVacationComponent",
    "BatchMuxServer",
    "primed_adversarial_host",
    "PrimedHostOutcome",
    "PRIMED_MODES",
]

#: Control modes :func:`primed_adversarial_host` resolves closed-form.
PRIMED_MODES = ("sigma-rho", "sigma-rho-lambda", "none")

#: Window-boundary tolerance -- identical to the legacy component's
#: ``VacationComponent._TOL`` (the two implementations must agree on
#: every boundary decision to stay bit-identical).
_TOL = 1e-12
#: Fit-check slack, identical to the legacy ``_try_start`` comparison.
_FIT_EPS = 1e-15

_OVERSIZE_MSG = (
    "packet serialisation time exceeds the working period; "
    "decrease packet sizes or increase sigma"
)


# ----------------------------------------------------------------------
# Window arithmetic (kept formula-identical to the legacy component)
# ----------------------------------------------------------------------
def _window_index(t: float, offset: float, period: float) -> int:
    """Index of the cycle containing ``t`` (-1 before the first)."""
    if t < offset - _TOL:
        return -1
    return int((t - offset) // period)


def _service_step(
    t: float, tx_head: float, working: float, period: float, offset: float
) -> tuple[str, float]:
    """One legacy ``_try_start`` decision for a head packet at time ``t``.

    Returns ``("serve", window_end)`` when the head may start now
    (non-preemptive fit check), else ``("wake", wake_time)`` with the
    legacy wake instant (including the ``max(start, now + TOL)``
    nudge).  Both the evented component and the primed kernel route
    every tolerance-critical boundary decision through this single
    helper so the two paths cannot drift.
    """
    m = _window_index(t, offset, period)
    window_end = None
    if m >= 0:
        start = offset + m * period
        end = start + working
        if start - _TOL <= t < end - _TOL:
            window_end = end
    if window_end is not None and t + tx_head <= window_end + _FIT_EPS:
        return "serve", window_end
    if tx_head > working + _FIT_EPS:
        raise ValueError(_OVERSIZE_MSG)
    if window_end is None:
        if m < 0:
            nxt = offset
        else:
            start = offset + m * period
            if t < start + working - _TOL:
                nxt = t if t > start else start
            else:
                nxt = offset + (m + 1) * period
    else:
        # Inside a window the head does not fit into: next cycle.
        nxt = offset + (m + 1) * period
    # The legacy wake never lands at (or before) the current instant --
    # float noise there would spin the event loop.
    return "wake", (nxt if nxt > t + _TOL else t + _TOL)


def _service_base(
    t: float, tx_head: float, working: float, period: float, offset: float
) -> tuple[float, float]:
    """First instant >= ``t`` at which a head packet of serialisation
    time ``tx_head`` may start, plus the end of the window it starts
    in: the legacy ``_try_start`` / ``_wake_up`` loop without events.
    """
    for _ in range(64):
        action, value = _service_step(t, tx_head, working, period, offset)
        if action == "serve":
            return t, value
        t = value
    raise RuntimeError(
        "vacation window search did not converge; degenerate schedule?"
    )  # pragma: no cover - guarded by the oversize check


# ----------------------------------------------------------------------
# The pure kernel
# ----------------------------------------------------------------------
def vacation_departures(
    times: np.ndarray,
    sizes: np.ndarray,
    regulator: SigmaRhoLambdaRegulator,
    *,
    offset: float = 0.0,
    out_rate: float = 1.0,
) -> tuple[np.ndarray, int]:
    """Departure times of a known arrival train through a vacation regulator.

    Parameters
    ----------
    times, sizes:
        Non-decreasing arrival times and packet sizes (capacity-seconds).
    regulator:
        Window schedule source (working period / cycle period).
    offset, out_rate:
        Phase offset of the window cycle and in-window forwarding rate.

    Returns
    -------
    (departures, trains):
        Per-packet departure times, plus the number of busy trains
        processed (the batched path's event-count analogue: the legacy
        component pays one finish event per *packet*, this kernel one
        pass per *train*).

    The float arithmetic reproduces the legacy component exactly: each
    busy train's finish times are ``np.add.accumulate`` over
    ``[base, tx_0, tx_1, ...]`` -- the same left-to-right additions the
    per-packet ``schedule_in`` chain performs -- and every window
    boundary decision uses the legacy tolerances.
    """
    times = np.ascontiguousarray(times, dtype=np.float64)
    sizes = np.ascontiguousarray(sizes, dtype=np.float64)
    n = times.size
    deps = np.empty(n, dtype=np.float64)
    if n == 0:
        return deps, 0
    check_positive(out_rate, "out_rate")
    check_non_negative(offset, "offset")
    tx = sizes / out_rate
    working = float(regulator.working_period)
    period = float(regulator.regulator_period)
    if float(tx.max()) > working + _FIT_EPS:
        raise ValueError(_OVERSIZE_MSG)
    # Monotone cumulative work, used only to bound candidate train
    # lengths (an estimate -- under-estimates merely split a train into
    # two back-to-back passes with identical results).
    cum = np.concatenate(([0.0], np.cumsum(tx)))
    i = 0
    last_fin = -np.inf
    trains = 0
    while i < n:
        t = times[i] if times[i] > last_fin else last_fin
        base, end = _service_base(t, tx[i], working, period, offset)
        hi = int(np.searchsorted(cum, cum[i] + (end - base) + 1e-9, side="right"))
        hi = min(max(hi, i + 1), n)
        seg = np.empty(hi - i + 1, dtype=np.float64)
        seg[0] = base
        seg[1:] = tx[i:hi]
        fin = np.add.accumulate(seg)[1:]
        if hi > i + 1:
            # Non-preemptive continuation, exactly the legacy per-packet
            # checks: the server must still be inside the window when
            # the previous packet finishes (window_at), the next packet
            # must have arrived by then (queue non-empty; equal-time
            # arrivals precede the finish event), and it must fit.
            ok = (
                (times[i + 1 : hi] <= fin[:-1])
                & (fin[:-1] < end - _TOL)
                & (fin[1:] <= end + _FIT_EPS)
            )
            k = (hi - i) if bool(ok.all()) else 1 + int(np.argmin(ok))
        else:
            k = 1
        deps[i : i + k] = fin[:k]
        last_fin = float(fin[k - 1])
        i += k
        trains += 1
    return deps, trains


def sigma_rho_departures(
    times: np.ndarray,
    sizes: np.ndarray,
    sigma: float,
    rho: float,
) -> tuple[np.ndarray, int]:
    """Departure times of a known arrival train through a token bucket.

    The (sigma, rho) analogue of :func:`vacation_departures`: replays
    the exact event sequence of the legacy
    :class:`~repro.simulation.regulator_sim.TokenBucketComponent`
    without an event loop, so the departures are bit-identical.

    Fidelity notes (each one matters for bit-identity):

    * Refills happen at every *event* instant -- each arrival and each
      wakeup -- because ``min(sigma, tokens + rho * dt)`` chains are
      not associative in floats; collapsing two refills into one would
      drift.
    * At equal instants an arrival precedes a pending wakeup (arrival
      events are batch-scheduled at injection with lower sequence
      numbers than any runtime-scheduled wake).
    * A wakeup is *cancelled* only by a drain pass that leaves the
      queue non-empty (which reschedules it); a drain that empties the
      queue leaves the stale wake pending, and its later refill is a
      real arithmetic event the replay must keep.

    Returns ``(departures, drains)`` where ``drains`` counts drain
    passes -- the evented path's event-count analogue.
    """
    times = np.ascontiguousarray(times, dtype=np.float64)
    sizes = np.ascontiguousarray(sizes, dtype=np.float64)
    n = times.size
    deps = np.empty(n, dtype=np.float64)
    if n == 0:
        return deps, 0
    check_positive(sigma, "sigma")
    check_positive(rho, "rho")
    t_l = times.tolist()
    s_l = sizes.tolist()
    tokens = sigma
    last = 0.0
    head = 0      # first unserved packet
    arrived = 0   # next arrival event to process
    wake = None   # pending wakeup instant (may be stale)
    drains = 0
    while head < n:
        if arrived < n and (wake is None or t_l[arrived] <= wake):
            t = t_l[arrived]
            arrived += 1
        else:
            t = wake
            wake = None  # the wake event is consumed by firing
        drains += 1
        # _refill: one clamp per event instant, never coalesced.
        tokens = min(sigma, tokens + rho * (t - last))
        last = t
        while head < arrived and tokens >= s_l[head] - 1e-15:
            tokens -= s_l[head]
            deps[head] = t
            head += 1
        if head < arrived:
            # Queue non-empty: cancel-and-reschedule the wakeup.
            wake = t + (s_l[head] - tokens) / rho
        # else: any pending stale wake stays pending (legacy leaves it
        # uncancelled; its refill still happens).
    return deps, drains


# ----------------------------------------------------------------------
# Evented batched components
# ----------------------------------------------------------------------
class BatchVacationComponent:
    """(sigma, rho, lambda) vacation regulator with window-batched service.

    Semantics are identical to the legacy
    :class:`~repro.simulation.regulator_sim.VacationComponent`; the
    difference is purely mechanical: when service starts, the whole
    backlog that fits into the current window is committed in one
    cumulative-sum pass -- one delivery event per packet plus a single
    train-end continuation event, instead of a finish/try-start
    callback pair per packet -- and the wakeup logic never reschedules
    an already-correct wake (no cancel churn on bursts).
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
        #: A committed busy train is in flight (deliveries scheduled).
        self._committed = False
        self._wake = None

    # -- inspection (parity with the legacy component) -------------------
    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def backlog(self) -> float:
        return sum(p.size for p in self._queue)

    # -- component interface ----------------------------------------------
    def receive(self, packet: Packet) -> None:
        self._queue.append(packet)
        if not self._committed:
            self._try_start()

    def receive_batch(self, packets: Sequence[Packet]) -> None:
        """Accept several packets arriving at the current instant (one
        replicated busy period).

        Equivalent to sequential :meth:`receive` calls: a single
        commit over the longer queue performs the same left-to-right
        cumulative-sum additions and the same window boundary checks
        the per-packet chain would, so departures are identical --
        only the event count drops.
        """
        self.sim.receive_batch_calls += 1
        self._queue.extend(packets)
        if not self._committed:
            self._try_start()

    def _try_start(self) -> None:
        """Commit the longest head train the current window admits."""
        if self._committed or not self._queue:
            return
        sim = self.sim
        now = sim.now
        head_tx = self._queue[0].size / self.out_rate
        action, value = _service_step(
            now,
            head_tx,
            self.regulator.working_period,
            self.regulator.regulator_period,
            self.offset,
        )
        if action == "serve":
            self._commit_train(now, value)
            return
        start = value
        if self._wake is None or self._wake.cancelled or self._wake.time > start:
            if self._wake is not None:
                self._wake.cancel()
            self._wake = sim.schedule(start, self._wake_up)

    def _wake_up(self) -> None:
        self._wake = None
        self._try_start()

    def _commit_train(self, base: float, end: float) -> None:
        """Serve every queued packet that fits after ``base``; one pass."""
        queue = self._queue
        if len(queue) == 1:
            # Scalar fast path: short queues dominate at low load.
            pkt = queue.popleft()
            fin = base + pkt.size / self.out_rate
            self._committed = True
            self.sim.schedule(fin, self._finish_train, pkt)
            return
        pkts = list(queue)
        tx = np.array([p.size for p in pkts], dtype=np.float64) / self.out_rate
        seg = np.empty(tx.size + 1, dtype=np.float64)
        seg[0] = base
        seg[1:] = tx
        fin = np.add.accumulate(seg)[1:]
        ok = (fin[:-1] < end - _TOL) & (fin[1:] <= end + _FIT_EPS)
        k = tx.size if bool(ok.all()) else 1 + int(np.argmin(ok))
        for _ in range(k):
            queue.popleft()
        self._committed = True
        sim = self.sim
        if k > 1:
            sim.schedule_batch(
                fin[: k - 1], self.sink.receive, ((p,) for p in pkts[: k - 1])
            )
        sim.schedule(float(fin[k - 1]), self._finish_train, pkts[k - 1])

    def _finish_train(self, last_pkt: Packet) -> None:
        """Deliver the train's last packet, then look for more work.

        Mirrors the legacy ``_finish_tx``: the delivery happens before
        the next service decision, at the same timestamp.
        """
        self._committed = False
        self.sink.receive(last_pkt)
        self._try_start()


class BatchMuxServer:
    """Work-conserving MUX with commit-on-receive constant-rate drains.

    Supports the ``"fifo"`` and ``"adversarial"`` disciplines of the
    legacy :class:`~repro.simulation.mux_sim.MuxServer` (for
    ``"priority"`` the builders keep the legacy component -- a strict
    priority order cannot be committed ahead of future arrivals).

    FIFO service order equals arrival order, so each packet's departure
    is fixed the instant it arrives: ``dep = max(now, busy_until) +
    size/C`` -- a running float instead of an internal heap, and one
    delivery event per packet instead of a finish/start-next pair.

    The adversarial discipline (deliver at the end of the busy period;
    the general-MUX worst case the paper bounds) needs no per-packet
    events at all: packets are held, and a single *release check* event
    lazily chases the end of the busy period (rescheduling itself only
    when arrivals extended the period past its horizon -- typically one
    or two events per busy period, never more than one per packet).
    The release delivers each flow's packets of the busy period in one
    ``receive_batch`` call when the target supports it, which is what
    lets tree replication commit one fanout event per busy period per
    child instead of one per packet.

    **Background trains** (:meth:`prime_background`): flows whose full
    MUX-arrival train is known up front (cross traffic through
    closed-form regulators) need neither events nor ``Packet``
    objects.  Their sorted ``(times, sizes)`` arrays are folded into
    the ``busy_until`` recurrence lazily -- on each dynamic arrival
    (arrivals up to and including ``now``: background events were
    scheduled first, so they precede equal-time dynamic ones) and on
    each release check (strictly before ``now``: the release decision
    carries priority -1, so it precedes equal-time arrivals).
    Background packets occupy the server and extend busy periods
    exactly as evented arrivals would, but are never delivered and
    never counted in ``served_count`` (their delivery target is the
    cross-traffic drop sink).  ``queue_length``/``backlog`` report
    held *dynamic* packets only.
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
        if discipline not in ("fifo", "adversarial"):
            raise ValueError(
                f"BatchMuxServer supports 'fifo'/'adversarial', got {discipline!r}"
                " (use the legacy MuxServer for 'priority')"
            )
        self.sim = sim
        self.capacity = check_positive(capacity, "capacity")
        self.sink = sink
        self.discipline = discipline
        # Kept for interface parity (chain builders assign priorities
        # unconditionally); unused by these disciplines.
        self.priorities = dict(priorities or {})
        self._busy_until = -np.inf
        self._held: list[Packet] = []
        self._check = None
        self.served_count = 0
        self.served_data = 0.0
        #: Background train (sorted arrival times / serialisation
        #: times) plus the fold pointer; see :meth:`prime_background`.
        self._bg_t: list[float] = []
        self._bg_tx: list[float] = []
        self._bg_i = 0

    @property
    def queue_length(self) -> int:
        """Committed-but-undelivered packets (adversarial hold depth)."""
        return len(self._held)

    @property
    def backlog(self) -> float:
        return sum(p.size for p in self._held)

    # -- background trains -------------------------------------------------
    def prime_background(self, times, sizes) -> None:
        """Install a known train of arrivals that occupy the server but
        are never delivered (cross traffic bound for a drop sink).

        ``times`` must be non-decreasing; ``sizes`` are packet sizes in
        capacity-seconds (the serialisation-time division happens here,
        elementwise -- identical IEEE results to the evented per-packet
        ``size / capacity``).  May be called once per MUX, before any
        dynamic traffic is processed.
        """
        times = np.ascontiguousarray(times, dtype=np.float64)
        sizes = np.ascontiguousarray(sizes, dtype=np.float64)
        if times.size and np.any(np.diff(times) < 0):
            raise ValueError("background train times must be non-decreasing")
        if self._bg_t or self._bg_i:
            raise ValueError("background train already primed")
        if self._busy_until != -np.inf or self._held:
            raise ValueError(
                "prime_background must precede any dynamic traffic"
            )
        self._bg_t = times.tolist()
        self._bg_tx = (sizes / self.capacity).tolist()
        self._bg_i = 0

    def _fold_background(self, limit: float, *, strict: bool) -> None:
        """Advance ``busy_until`` over background arrivals up to
        ``limit`` (exclusive when ``strict``).  The recurrence is the
        exact arithmetic of :meth:`receive`: ``start = max(t, bu)``
        then ``start + tx``."""
        i = self._bg_i
        bg_t = self._bg_t
        n = len(bg_t)
        if i >= n:
            return
        bg_tx = self._bg_tx
        bu = self._busy_until
        while i < n:
            t = bg_t[i]
            if t > limit or (strict and t == limit):
                break
            start = t if t > bu else bu
            bu = start + bg_tx[i]
            i += 1
        self._bg_i = i
        self._busy_until = bu

    # -- component interface ----------------------------------------------
    def receive(self, packet: Packet) -> None:
        now = self.sim.now
        if self._bg_i < len(self._bg_t):
            # Background arrivals up to *and including* now precede
            # this dynamic arrival (they were scheduled first).
            self._fold_background(now, strict=False)
        bu = self._busy_until
        start = now if now > bu else bu
        dep = start + packet.size / self.capacity
        self._busy_until = dep
        if self.discipline == "adversarial":
            self._held.append(packet)
            if self._check is None:
                # priority=-1: the release decision precedes equal-time
                # arrivals, matching the legacy finish-before-delivery
                # event order (an arrival at exactly the completion
                # instant opens a fresh busy period).
                self._check = self.sim.schedule(
                    dep, self._release_check, priority=-1
                )
        else:
            self.sim.schedule(dep, self._route, packet)

    def receive_batch(self, packets: Sequence[Packet]) -> None:
        """Accept several packets arriving at the current instant (a
        replicated busy period); equivalent to sequential receives."""
        self.sim.receive_batch_calls += 1
        for pkt in packets:
            self.receive(pkt)

    def _release_check(self) -> None:
        if self._bg_i < len(self._bg_t):
            # Strictly-before-now only: an arrival at exactly the
            # release instant opens a fresh busy period (priority -1
            # runs first in the evented order).
            self._fold_background(self.sim.now, strict=True)
        if self.sim.now < self._busy_until:
            # Arrivals extended the busy period past this check's
            # horizon: chase the new end (no cancellation residue).
            self._check = self.sim.schedule(
                self._busy_until, self._release_check, priority=-1
            )
            return
        self._check = None
        self.sim.busy_periods += 1
        held, self._held = self._held, []
        if len(held) == 1:
            self._route(held[0])
            return
        # One delivery per (flow, busy period): group in first-arrival
        # order and hand each flow's packets over in a single batch
        # when the target supports it.  Targets are per-flow components
        # (or one shared terminal sink), so regrouping by flow cannot
        # change any measured delay -- every delivery happens at this
        # same instant.
        groups: dict[int, list[Packet]] = {}
        for pkt in held:
            groups.setdefault(pkt.flow_id, []).append(pkt)
        sink = self.sink
        for flow_id, pkts in groups.items():
            self.served_count += len(pkts)
            self.served_data += sum(p.size for p in pkts)
            target = sink.get(flow_id) if isinstance(sink, Mapping) else sink
            if target is None:
                continue
            batch = getattr(target, "receive_batch", None)
            if batch is not None:
                batch(pkts)
            else:
                for pkt in pkts:
                    target.receive(pkt)

    def _route(self, pkt: Packet) -> None:
        # Served accounting happens here -- at delivery, not arrival --
        # so FIFO counters match the legacy completion-time counting
        # under horizon truncation (adversarial counts lag until the
        # busy period's release, equal once drained).
        self.served_count += 1
        self.served_data += pkt.size
        sink = self.sink
        if isinstance(sink, Mapping):
            target = sink.get(pkt.flow_id)
            if target is not None:
                target.receive(pkt)
            return
        sink.receive(pkt)


# ----------------------------------------------------------------------
# The primed single-host fast paths
# ----------------------------------------------------------------------
class PrimedHostOutcome:
    """Raw product of the primed host passes (arrays, no Packets).

    ``per_flow_deliveries`` carries each flow's absolute delivery
    instants in emission order -- the chain simulator consumes them to
    forward hop-0 output into hop 1 without ever materialising hop-0
    packets.
    """

    __slots__ = (
        "per_flow_delays", "per_flow_deliveries", "trains", "busy_periods",
    )

    def __init__(
        self,
        per_flow_delays: list[np.ndarray],
        trains: int,
        busy_periods: int,
        per_flow_deliveries: Optional[list[np.ndarray]] = None,
    ):
        self.per_flow_delays = per_flow_delays
        self.per_flow_deliveries = (
            per_flow_deliveries
            if per_flow_deliveries is not None
            else [np.empty(0) for _ in per_flow_delays]
        )
        self.trains = trains
        self.busy_periods = busy_periods

    @property
    def batch_events(self) -> int:
        """The batched path's event-count analogue: one pass per
        regulator busy train (or token-bucket drain) plus one release
        per MUX busy period."""
        return self.trains + self.busy_periods


def _adversarial_mux_deliveries(
    arr: np.ndarray, tx: np.ndarray
) -> tuple[np.ndarray, int]:
    """Delivery instants of time-sorted MUX arrivals under the
    adversarial hold-and-release discipline.

    The constant-rate drain is the ``busy_until`` recurrence,
    float-sequenced exactly like the evented MUX's per-packet chain;
    delivery equals the end of each packet's busy period.  A busy
    period ends where the next arrival does not precede the
    completion; an arrival at *exactly* the completion instant starts
    a fresh period (in the evented chain the release decision carries
    priority -1, so it precedes the equal-time arrival -- and in the
    legacy chain the finish event popped first for the same reason).

    Returns ``(delivery, busy_periods)``.
    """
    n = arr.size
    bu = np.empty(n, dtype=np.float64)
    current = -np.inf
    arr_l = arr.tolist()
    tx_l = tx.tolist()
    for i in range(n):
        t = arr_l[i]
        if t > current:
            current = t
        current += tx_l[i]
        bu[i] = current
    nxt = np.empty(n, dtype=np.float64)
    nxt[:-1] = arr[1:]
    nxt[-1] = np.inf
    is_end = nxt >= bu
    end_idx = np.nonzero(is_end)[0]
    reps = np.diff(np.concatenate(([-1], end_idx)))
    delivery = np.repeat(bu[end_idx], reps)
    return delivery, int(end_idx.size)


def _merge_and_deliver(
    dep_list: Sequence[np.ndarray],
    emit_list: Sequence[np.ndarray],
    size_list: Sequence[np.ndarray],
    *,
    capacity: float,
    trains: int,
    horizon: Optional[float],
    drain: bool,
) -> PrimedHostOutcome:
    """Merge per-flow regulator departures through the adversarial MUX
    pass and split delays/deliveries back per flow."""
    k = len(dep_list)
    flow_list = [
        np.full(d.size, f, dtype=np.int64) for f, d in enumerate(dep_list)
    ]
    arr = np.concatenate(dep_list) if dep_list else np.empty(0)
    emits = np.concatenate(emit_list) if emit_list else np.empty(0)
    sizes_all = np.concatenate(size_list) if size_list else np.empty(0)
    flows = np.concatenate(flow_list) if flow_list else np.empty(0, dtype=np.int64)
    n = arr.size
    if n == 0:
        empty = [np.empty(0) for _ in range(k)]
        return PrimedHostOutcome(empty, 0, 0, [np.empty(0) for _ in range(k)])
    # Stable sort: equal departure instants keep flow-injection order,
    # matching the evented engines' event-sequence tie-break.
    order = np.argsort(arr, kind="stable")
    arr = arr[order]
    emits = emits[order]
    flows = flows[order]
    tx = sizes_all[order] / capacity
    delivery, busy_periods = _adversarial_mux_deliveries(arr, tx)
    if not drain:
        if horizon is None:
            raise ValueError("drain=False requires a horizon")
        keep = delivery <= horizon
        delivery = delivery[keep]
        emits = emits[keep]
        flows = flows[keep]
    delays = delivery - emits
    # Per-flow split preserves emission order: each flow's regulator
    # departures are non-decreasing, and the sort above is stable.
    per_flow = [delays[flows == f] for f in range(k)]
    per_deliv = [delivery[flows == f] for f in range(k)]
    return PrimedHostOutcome(per_flow, trains, busy_periods, per_deliv)


def _stagger_schedule(
    controller: AdaptiveController, stagger_phase: float
) -> tuple[list, list[float]]:
    """Per-flow vacation regulators and absolute window offsets.

    The controller's stagger plan shifted by ``stagger_phase`` (a
    fraction of the plan period): the one derivation shared by the
    vacation entries of
    :func:`repro.simulation.host_sim.build_regulated_host` and every
    primed departure pass.
    """
    plan = controller.build_stagger_plan()
    base = (stagger_phase % 1.0) * plan.period
    return plan.regulators, [base + off for off in plan.offsets]


def _flow_departures(
    mode: str,
    f: int,
    times: np.ndarray,
    sizes: np.ndarray,
    envelopes: Sequence,
    capacity: float,
    schedule: Optional[tuple],
) -> tuple[np.ndarray, int]:
    """Regulator departures ``(deps, passes)`` of flow ``f`` under ``mode``.

    The per-flow dispatch of every primed pass: a token bucket
    parameterised like the builders (``sigma = e.sigma``,
    ``rho = e.rho / capacity``), a staggered vacation regulator from
    ``schedule`` (:func:`_stagger_schedule`, ``None`` outside
    ``"sigma-rho-lambda"``), or -- mode ``"none"`` -- the arrival times
    themselves.
    """
    if mode == "sigma-rho":
        env = envelopes[f]
        return sigma_rho_departures(
            times, sizes, env.sigma, env.rho / capacity
        )
    if mode == "sigma-rho-lambda":
        regulators, offsets = schedule
        return vacation_departures(
            times, sizes, regulators[f], offset=float(offsets[f]),
            out_rate=capacity,
        )
    return np.ascontiguousarray(times, dtype=np.float64), 0


def _primed_departures(
    traces: Sequence[tuple[np.ndarray, np.ndarray]],
    envelopes: Sequence,
    mode: str,
    capacity: float,
    stagger_phase: float,
    dep_cache: Optional[dict] = None,
    cache_keys: Optional[Sequence] = None,
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray], int]:
    """Every flow's regulator departures, emissions and sizes, plus the
    summed pass count, for a fully-known adversarial host.

    ``dep_cache`` / ``cache_keys``: see :func:`primed_adversarial_host`.
    """
    if mode not in PRIMED_MODES:
        raise ValueError(
            f"primed adversarial hosts support modes {PRIMED_MODES}, "
            f"got {mode!r}"
        )
    check_positive(capacity, "capacity")
    schedule = (
        _stagger_schedule(
            AdaptiveController(envelopes, capacity), stagger_phase
        )
        if mode == "sigma-rho-lambda"
        else None
    )
    dep_list: list[np.ndarray] = []
    emit_list: list[np.ndarray] = []
    size_list: list[np.ndarray] = []
    trains_total = 0
    for f, (times, sizes) in enumerate(traces):
        key = cache_keys[f] if cache_keys is not None else None
        cached = (
            dep_cache.get(key)
            if dep_cache is not None and key is not None
            else None
        )
        if cached is None:
            cached = _flow_departures(
                mode, f, times, sizes, envelopes, capacity, schedule
            )
            if dep_cache is not None and key is not None:
                dep_cache[key] = cached
        deps, trains = cached
        trains_total += trains
        dep_list.append(deps)
        emit_list.append(np.asarray(times, dtype=np.float64))
        size_list.append(np.asarray(sizes, dtype=np.float64))
    return dep_list, emit_list, size_list, trains_total


def primed_adversarial_host(
    traces: Sequence[tuple[np.ndarray, np.ndarray]],
    envelopes: Sequence,
    mode: str,
    *,
    capacity: float = 1.0,
    stagger_phase: float = 0.0,
    horizon: Optional[float] = None,
    drain: bool = True,
    dep_cache: Optional[dict] = None,
    cache_keys: Optional[Sequence] = None,
) -> PrimedHostOutcome:
    """Array fast path for any fully-known adversarial host cell.

    Every flow's full arrival trace is known up front, so the cell
    needs no event loop at all: per-flow regulator departures are
    closed form, the adversarial general MUX is a single merged pass
    (running ``busy_until`` float recurrence, then a vectorised
    busy-period-end assignment), and per-flow delays are one
    subtraction.  Per control mode:

    * ``"sigma-rho"`` -- per-flow token buckets
      (:func:`sigma_rho_departures`, parameterised exactly like the
      builder: ``sigma = e.sigma``, ``rho = e.rho / capacity``);
    * ``"sigma-rho-lambda"`` -- the staggered vacation regulators
      (:func:`vacation_departures`; the stagger plan is rebuilt from the
      envelopes the way
      :func:`repro.simulation.host_sim.build_regulated_host` does);
    * ``"none"`` -- no regulation: arrivals feed the MUX directly.

    ``mode`` must already be resolved (no ``"adaptive"`` here -- the
    caller resolves it exactly like the builders do).  Delivery times
    equal the end of each packet's MUX busy period, the adversarial
    hold-and-release instant, bit-identical to the evented batched
    engine.  With ``drain=False``, deliveries after ``horizon`` are
    discarded (the evented ``run(until=horizon)`` truncation).

    ``dep_cache`` / ``cache_keys`` let a caller whose flows share trace
    objects reuse regulator passes: flows whose ``cache_keys[f]`` is
    not ``None`` and hashes equal are assumed to have identical
    ``(times, sizes)`` arrays and regulator parameters (only sound for
    ``"sigma-rho"`` / ``"none"`` -- the lambda mode's per-flow stagger
    offsets differ between flows, so pass no keys there).  Cache values
    are ``(departures, trains)`` tuples; the departure arrays are never
    mutated, so sharing is safe.
    """
    dep_list, emit_list, size_list, trains = _primed_departures(
        traces, envelopes, mode, capacity, stagger_phase,
        dep_cache, cache_keys,
    )
    return _merge_and_deliver(
        dep_list, emit_list, size_list,
        capacity=capacity, trains=trains, horizon=horizon, drain=drain,
    )

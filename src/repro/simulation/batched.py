"""Window-batched DES components and the closed-form adversarial passes.

A per-packet DES component drives one callback chain per packet:
``receive -> schedule finish -> finish -> try-start-next``, with wakeup
cancel/reschedule churn on top.  Almost all of that event traffic is
redundant, because the service inside a vacation window (and a
constant-rate MUX drain between arrival epochs) is a *closed-form
drain*: once the head of the queue starts transmitting, every
subsequent departure in the same busy train is determined by a
cumulative sum of serialisation times, and the non-preemptive fit check
is a cumulative-sum threshold against the window end.

This module exploits exactly that structure, at three levels:

:func:`vacation_departures`
    The pure kernel: departure times of a *fully known* arrival train
    through a (sigma, rho, lambda) vacation regulator, computed one
    busy train at a time with ``np.add.accumulate`` -- the float
    operations are sequenced identically to the per-packet event
    chain, so the results are bit-identical to it.

:class:`BatchVacationComponent` / :class:`BatchMuxServer`
    Evented components for pipelines whose arrivals are *not* known in
    advance: the regulators of FIFO and priority cells and the FIFO
    MUX.  The vacation component commits a whole window's worth of
    service per wakeup (one continuation event per busy train instead
    of one finish event per packet); the MUX commits each packet's
    departure at arrival time (the constant-rate drain is a running
    ``busy_until`` float, no internal heap, no per-packet
    finish/start-next events).

:func:`primed_adversarial_host` / :func:`primed_tagged_hop`
    The array passes of the adversarial discipline: every flow's trace
    is known up front, so a host -- regulators, adversarial MUX, delay
    recording -- collapses into NumPy passes over merged departure
    arrays with *no per-packet events at all*.
    :func:`sigma_rho_departures` is the token-bucket analogue of
    :func:`vacation_departures` (closed-form departures, float ops
    sequenced identically to ``TokenBucketComponent``); one private
    per-flow dispatch (``_flow_departures``) picks between them -- or
    the raw arrival times for mode ``none`` -- for both.  The host
    kernel serves every adversarial
    :func:`repro.simulation.host_sim.simulate_regulated_host` call and
    the primed DES group of the cell matrix.  The hop kernel serves
    every hop of :func:`repro.simulation.chain.simulate_regulated_chain`
    and every member of
    :func:`repro.simulation.tree_sim.simulate_multicast_tree`: a hop's
    tagged arrivals are the previous hop's deliveries plus the link
    delay, so a chain is a loop of host passes and a tree the same
    pass per member, top down.  Its docstring holds the one tie-order
    rule those passes share.

Equivalence contract: the float arithmetic is sequenced identically to
the per-packet event chain, so measured delays are bit-identical to it
(only event *counts* differ) -- except where the adversarial MUX
backlog touches exactly zero, where the passes release
deterministically and measure no more than the per-packet chain.  The
reference pipelines live in ``tests/des_oracle.py``;
``tests/test_des_batched_equivalence.py`` and
``tests/test_des_primed_equivalence.py`` enforce the contract over the
curated corpus and hypothesis-generated traces.
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
    "primed_tagged_hop",
    "PrimedHostOutcome",
    "PRIMED_MODES",
]

#: Control modes the primed passes resolve closed-form.
PRIMED_MODES = ("sigma-rho", "sigma-rho-lambda", "none")

#: Window-boundary tolerance -- identical to the per-packet reference
#: component's (the two implementations must agree on every boundary
#: decision to stay bit-identical).
_TOL = 1e-12
#: Fit-check slack, identical to the per-packet ``_try_start`` comparison.
_FIT_EPS = 1e-15

_OVERSIZE_MSG = (
    "packet serialisation time exceeds the working period; "
    "decrease packet sizes or increase sigma"
)


# ----------------------------------------------------------------------
# Window arithmetic (kept formula-identical to the per-packet regulator)
# ----------------------------------------------------------------------
def _window_index(t: float, offset: float, period: float) -> int:
    """Index of the cycle containing ``t`` (-1 before the first)."""
    if t < offset - _TOL:
        return -1
    return int((t - offset) // period)


def _service_step(
    t: float, tx_head: float, working: float, period: float, offset: float
) -> tuple[str, float]:
    """One per-packet ``_try_start`` decision for a head packet at ``t``.

    Returns ``("serve", window_end)`` when the head may start now
    (non-preemptive fit check), else ``("wake", wake_time)`` with the
    per-packet wake instant (including the ``max(start, now + TOL)``
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
    # The wake never lands at (or before) the current instant --
    # float noise there would spin the event loop.
    return "wake", (nxt if nxt > t + _TOL else t + _TOL)


def _service_base(
    t: float, tx_head: float, working: float, period: float, offset: float
) -> tuple[float, float]:
    """First instant >= ``t`` at which a head packet of serialisation
    time ``tx_head`` may start, plus the end of the window it starts
    in: the per-packet ``_try_start`` / ``_wake_up`` loop without events.
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
        processed (the batched path's event-count analogue: a per-packet
        regulator pays one finish event per *packet*, this kernel one
        pass per *train*).

    The float arithmetic reproduces the per-packet regulator exactly:
    each busy train's finish times are ``np.add.accumulate`` over
    ``[base, tx_0, tx_1, ...]`` -- the same left-to-right additions the
    per-packet ``schedule_in`` chain performs -- and every window
    boundary decision uses the same tolerances.
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
            # Non-preemptive continuation, exactly the per-packet
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
    the exact event sequence of the evented
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
    passes -- the evented path's event-count analogue; a run of
    arrivals at one instant is one drain.
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
            # A run of same-instant arrivals is one drain: the evented
            # bucket's refills between them are zero-elapsed, so
            # departures cannot change.
            while arrived < n and t_l[arrived] == t:
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
        # else: any pending stale wake stays pending (the component
        # leaves it uncancelled; its refill still happens).
    return deps, drains


# ----------------------------------------------------------------------
# Evented batched components
# ----------------------------------------------------------------------
class BatchVacationComponent:
    """(sigma, rho, lambda) vacation regulator with window-batched service.

    Semantics are identical to a per-packet vacation regulator; the
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

    # -- inspection -------------------------------------------------------
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

        As in the per-packet chain, the delivery happens before the
        next service decision, at the same timestamp.
        """
        self._committed = False
        self.sink.receive(last_pkt)
        self._try_start()


class BatchMuxServer:
    """Work-conserving FIFO MUX with commit-on-receive constant-rate drains.

    FIFO service order equals arrival order, so each packet's departure
    is fixed the instant it arrives: ``dep = max(now, busy_until) +
    size/C`` -- a running float instead of an internal heap, and one
    delivery event per packet instead of a finish/start-next pair.
    Delays are bit-identical to the FIFO discipline of
    :class:`~repro.simulation.mux_sim.MuxServer`, which serves the
    priority discipline (a strict priority order cannot be committed
    ahead of future arrivals).  Adversarial hosts need no evented MUX:
    they run the closed-form passes below.
    """

    def __init__(self, sim: Simulator, capacity: float, sink):
        self.sim = sim
        self.capacity = check_positive(capacity, "capacity")
        self.sink = sink
        self._busy_until = -np.inf
        self.served_count = 0
        self.served_data = 0.0

    # -- component interface ----------------------------------------------
    def receive(self, packet: Packet) -> None:
        now = self.sim.now
        bu = self._busy_until
        start = now if now > bu else bu
        dep = start + packet.size / self.capacity
        self._busy_until = dep
        self.sim.schedule(dep, self._route, packet)

    def _route(self, pkt: Packet) -> None:
        # Served accounting happens here -- at delivery, not arrival --
        # so the counters match MuxServer's completion-time counting
        # under horizon truncation.
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
# The primed fast paths
# ----------------------------------------------------------------------
class PrimedHostOutcome:
    """Raw product of the primed host passes (arrays, no Packets)."""

    __slots__ = ("per_flow_delays", "trains", "releases")

    def __init__(
        self, per_flow_delays: list[np.ndarray], trains: int, releases: int
    ):
        self.per_flow_delays = per_flow_delays
        self.trains = trains
        self.releases = releases

    @property
    def batch_events(self) -> int:
        """The batched path's event-count analogue: one pass per
        regulator busy train (or token-bucket drain) plus one release
        per MUX busy period."""
        return self.trains + self.releases


def _adversarial_mux_deliveries(
    arr: np.ndarray, tx: np.ndarray
) -> tuple[np.ndarray, int]:
    """Delivery instants of time-sorted MUX arrivals under the
    adversarial hold-and-release discipline.

    The constant-rate drain is the ``busy_until`` recurrence,
    float-sequenced exactly like an evented MUX's per-packet chain;
    delivery equals the end of each packet's busy period.  A busy
    period ends where the next arrival does not precede the
    completion; an arrival at *exactly* the completion instant starts
    a fresh period (an evented hold-and-release MUX schedules its
    release decision ahead of equal-time arrivals, and a per-packet
    MUX pops its finish event first for the same reason).

    Returns ``(delivery, releases)``: one release per busy period.
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
    pass and split delays back per flow."""
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
        return PrimedHostOutcome([np.empty(0) for _ in range(k)], 0, 0)
    # Stable sort: equal departure instants keep flow order, the
    # injection order of a host (see primed_tagged_hop's tie order).
    order = np.argsort(arr, kind="stable")
    arr = arr[order]
    emits = emits[order]
    flows = flows[order]
    tx = sizes_all[order] / capacity
    delivery, releases = _adversarial_mux_deliveries(arr, tx)
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
    return PrimedHostOutcome(per_flow, trains, releases)


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


def _primed_schedule(
    envelopes: Sequence, mode: str, capacity: float, stagger_phase: float
) -> Optional[tuple]:
    """Check a primed pass's mode and capacity; return the vacation
    stagger schedule of its host (``None`` outside
    ``"sigma-rho-lambda"``)."""
    if mode not in PRIMED_MODES:
        raise ValueError(
            f"primed adversarial hosts support modes {PRIMED_MODES}, "
            f"got {mode!r}"
        )
    check_positive(capacity, "capacity")
    if mode != "sigma-rho-lambda":
        return None
    return _stagger_schedule(
        AdaptiveController(envelopes, capacity), stagger_phase
    )


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
    schedule = _primed_schedule(envelopes, mode, capacity, stagger_phase)
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
    hold-and-release instant.  With ``drain=False``, deliveries after
    ``horizon`` are discarded (an evented ``run(until=horizon)``
    truncation).

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


def primed_tagged_hop(
    arrivals: np.ndarray,
    sizes: np.ndarray,
    cross: Sequence,
    envelopes: Sequence,
    mode: str,
    *,
    capacity: float,
    stagger_phase: float,
    cross_cache: dict,
    tagged_first: bool = False,
) -> tuple[np.ndarray, int]:
    """Tagged-flow deliveries of one fully-known adversarial host.

    One hop of a relayed tagged flow (flow 0): ``arrivals`` and
    ``sizes`` are its arrival instants at this host and its packet
    sizes; ``cross`` holds the K-1 cross traces (flows 1..K-1, objects
    with ``times`` and ``sizes``) entering the host.  Every flow is
    regulated in closed form and the merged departures take the
    adversarial MUX pass of :func:`primed_adversarial_host`; ``mode``
    must already be resolved.  Returns the tagged flow's delivery
    instants, in emission order, and the passes run: regulator passes
    plus one release per MUX busy period holding tagged packets (a
    period of cross traffic alone delivers nothing that is measured or
    forwarded).

    **Tie order.**  At equal MUX instants service times add in arrival
    order, and that order changes the last bits of the busy-period
    ends.  The pass serves equal instants in the order an evented
    pipeline of the same chain or tree sees them:

    * ``tagged_first=True``: the tagged flow, then the cross flows in
      flow order.  This is injection order at chain hop 0, whose
      tagged flow is injected before its cross traffic, and the order
      :func:`primed_adversarial_host` serves every host in.
    * ``tagged_first=False``: the cross flows first, in flow order,
      then the tagged flow.  This holds at chain hops past 0, whose
      tagged packets are relayed at run time after every cross packet
      was injected, and at every tree member, the root included, since
      the tree injects all cross traffic before the tagged flow.

    ``cross_cache``, a dict owned by one chain or tree call, computes
    each cross flow's departures once per call.  Outside
    ``"sigma-rho-lambda"`` they depend only on the trace, the flow
    index and the capacity, so entries are keyed by
    ``(id(trace), f, capacity)`` and hold the trace, which keeps its
    ``id`` valid; a reused entry adds no passes.  The lambda mode's
    stagger offsets differ per hop, so its cross departures are
    recomputed at every hop.
    """
    schedule = _primed_schedule(envelopes, mode, capacity, stagger_phase)
    tagged_deps, passes = _flow_departures(
        mode, 0, arrivals, sizes, envelopes, capacity, schedule
    )
    # Outside the lambda mode (no stagger schedule) cross departures
    # do not depend on the hop.
    cacheable = schedule is None
    dep_parts = [tagged_deps]
    size_parts = [np.asarray(sizes, dtype=np.float64)]
    for f, tr in enumerate(cross, start=1):
        key = (id(tr), f, capacity)
        entry = cross_cache.get(key) if cacheable else None
        if entry is None:
            deps, n = _flow_departures(
                mode, f, tr.times, tr.sizes, envelopes, capacity, schedule
            )
            passes += n
            entry = (tr, deps)
            if cacheable:
                cross_cache[key] = entry
        dep_parts.append(entry[1])
        size_parts.append(tr.sizes)
    if not tagged_first:
        dep_parts.append(dep_parts.pop(0))
        size_parts.append(size_parts.pop(0))
    arr = np.concatenate(dep_parts)
    if arr.size == 0:
        return arr, passes
    # Stable sort: equal instants keep the list order set above.
    order = np.argsort(arr, kind="stable")
    delivery, _ = _adversarial_mux_deliveries(
        arr[order], np.concatenate(size_parts)[order] / capacity
    )
    n_tagged = tagged_deps.size
    is_tagged = (
        order < n_tagged if tagged_first else order >= arr.size - n_tagged
    )
    tagged = delivery[is_tagged]
    # Busy-period ends strictly increase, so each distinct delivery
    # instant is one release.
    releases = int(np.count_nonzero(np.diff(tagged))) + 1 if tagged.size else 0
    return tagged, passes + releases

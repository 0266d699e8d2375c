"""Closed-form packet passes: the DES of every host, chain and tree.

Every flow's trace is known before a cell runs, so a regulated host --
regulators, MUX, delay recording -- needs no event loop.  Service
inside a vacation window (and a constant-rate MUX drain between
arrival epochs) is a *closed-form drain*: once the head of the queue
starts transmitting, every subsequent departure in the same busy train
is determined by a cumulative sum of serialisation times, and the
non-preemptive fit check is a cumulative-sum threshold against the
window end.  This module computes those drains directly, at two
levels:

:func:`vacation_departures` / :func:`sigma_rho_departures`
    Departure times of a *fully known* arrival train through a
    (sigma, rho, lambda) vacation regulator, one busy train at a time
    with ``np.add.accumulate``, and through a greedy token bucket, one
    drain per arrival or wakeup instant.  One private per-flow
    dispatch (``_flow_departures``) picks between them -- or the raw
    arrival times for mode ``none``.

:func:`primed_host` / :func:`primed_tagged_hop`
    The array passes of every MUX discipline: a host collapses into
    NumPy passes over merged departure arrays with *no per-packet
    events at all*.  One MUX pass (``_mux_pass``) serves the merged
    departures: the ``busy_until`` recurrence delivers a FIFO packet
    at its own completion and an adversarial one at the end of its
    busy period; a static-priority heap starts the best queued packet
    at each completion.  The host kernel serves every
    :func:`repro.simulation.host_sim.simulate_regulated_host` call and
    the primed DES groups of the cell matrix.  The hop kernel serves
    every hop of :func:`repro.simulation.chain.simulate_regulated_chain`
    and every member of
    :func:`repro.simulation.tree_sim.simulate_multicast_tree`: a hop's
    tagged arrivals are the previous hop's deliveries plus the link
    delay, so a chain is a loop of host passes and a tree the same
    pass per member, top down.

Tie order
---------
Packets that reach a MUX at one instant are served in the order of the
*events* that release them, and that order decides FIFO and priority
delays (adversarial ones only in their last bits).  An event is either
*injected* -- a source emission, scheduled before the run -- or
*run-time* -- a token-bucket wakeup, a vacation delivery, a MUX
completion, or a relayed or fanned-out arrival, scheduled by an earlier
event.  Events at one instant run in the order they were scheduled, so
at one instant:

1. Packets released inside injected events come first, in injection
   order: at a host, flow order; at a chain's hop 0, the tagged flow,
   then the hop's cross flows; at a tree member, its cross flows,
   which the tree injects before the root's tagged flow.
2. Packets released inside run-time events follow: token-bucket
   wakeups, relayed chain arrivals and fanned-out tree arrivals.  They
   run in the order they were scheduled: by the instant of the event
   that scheduled each one, then recursively by that event's own place
   at its instant.
3. Packets released inside one event keep their emission order.
4. A priority MUX decides, at each completion, which queued packet
   starts next.  The completion is a run-time event keyed
   ``(T, 1, start)``, where ``start`` keys the event that began that
   service: the packet's own release event if the server was idle
   when it arrived, otherwise the previous completion.  A packet
   released at ``T`` joins the queue before that decision iff its
   release key comes first: an injected release always does, a
   run-time release compares keys.

Each event therefore has a key: ``(t, 0, (block, index))`` when
injected, ``(t, 1, key of the event that scheduled it)`` at run time
(``_key_cmp``).  A stable sort by instant over the departures,
concatenated in injection order, settles most ties
(``_service_order``).  It leaves two kinds of run to reorder: a
run-time release ahead of an injected one, which moves behind it, and
run-time releases of two different flows, the only case that builds
keys, from the regulator's lineage (``_Regulated.lineage``) and the
relayed packets' delivery events: the next hop keys a relayed packet
``(t, 1, key of the MUX event that delivered it)`` (``_relay``).  A
priority MUX builds finish keys only where a run-time release ties a
completion (``_priority_deliveries``).

Vacation departures carry no keys: while sum(rho) <= C the stagger
plan's windows tile without overlap, so no two flows' vacation
departures share an instant.  Three cases stay undecided: a tie on an
overloaded lambda-mode host (the adaptive controller still assigns it
the lambda model) and a tie that needs the release key of a packet
relayed out of a vacation hop (a tree whose member capacities differ
can mix modes), whose key ends at its delivery instant, both keep the
concatenation order; and a vacation release that ties a priority
completion, which joins the queue after it.

Equivalence contract: this rule and the passes' float arithmetic are
the DES's definition.  The test oracle runs the same cells as events
ordered by ``(time, priority, sequence)`` on the evented engine and
components of ``tests/evented``, wired into reference pipelines by
``tests/des_oracle.py``.  ``tests/test_des_batched_equivalence.py`` and
``tests/test_des_primed_equivalence.py`` check, over the curated corpus
and hypothesis-generated traces in every discipline, that the passes'
delays equal the evented pipeline's bit for bit (only event *counts*
differ), and the per-packet chain's too -- except where the
adversarial MUX backlog touches exactly zero: there the passes release
deterministically and measure no more than that chain.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cmp_to_key
from heapq import heappop, heappush
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from repro.core.adaptive import AdaptiveController
from repro.core.regulator import SigmaRhoLambdaRegulator
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "vacation_departures",
    "sigma_rho_departures",
    "primed_host",
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
    nudge).  The primed kernel and the evented oracle's vacation
    component route every tolerance-critical boundary decision through
    this single helper so the two cannot drift.
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
    the exact event sequence of an evented greedy token bucket -- a
    refill and drain at every arrival and every wakeup -- without an
    event loop, so the departures are bit-identical to it.

    Fidelity notes (each one matters for bit-identity):

    * Refills happen at every *event* instant -- each arrival and each
      wakeup -- because ``min(sigma, tokens + rho * dt)`` chains are
      not associative in floats; collapsing two refills into one would
      drift.
    * At equal instants the replay drains arrivals before a pending
      wakeup.  Whichever runs first, the departures are the same: the
      second drain refills over zero elapsed time.
    * A wakeup is *cancelled* only by a drain pass that leaves the
      queue non-empty (which reschedules it); a drain that empties the
      queue leaves the stale wake pending, and its later refill is a
      real arithmetic event the replay must keep.

    Returns ``(departures, drains)`` where ``drains`` counts drain
    passes -- the evented path's event-count analogue; a run of
    arrivals at one instant is one drain.
    """
    deps, drains, _ = _sigma_rho_pass(times, sizes, sigma, rho, False)
    return deps, drains


def _sigma_rho_pass(
    times: np.ndarray,
    sizes: np.ndarray,
    sigma: float,
    rho: float,
    lineage: bool,
) -> tuple[np.ndarray, int, Optional[tuple]]:
    """:func:`sigma_rho_departures`, plus, with ``lineage``, the events
    that released each departure: ``(src, wakes, contest)`` in the
    encoding of :meth:`_Regulated.lineage`."""
    times = np.ascontiguousarray(times, dtype=np.float64)
    sizes = np.ascontiguousarray(sizes, dtype=np.float64)
    n = times.size
    deps = np.empty(n, dtype=np.float64)
    src: list[int] = []
    wakes: list[tuple[float, int]] = []
    contest: dict[int, int] = {}
    if n == 0:
        return deps, 0, (src, wakes, contest) if lineage else None
    check_positive(sigma, "sigma")
    check_positive(rho, "rho")
    t_l = times.tolist()
    s_l = sizes.tolist()
    tokens = sigma
    last = 0.0
    head = 0      # first unserved packet
    arrived = 0   # next arrival event to process
    wake = None   # pending wakeup instant (may be stale)
    wake_src = 0  # lineage code of the pending wakeup
    drains = 0
    while head < n:
        if arrived < n and (wake is None or t_l[arrived] <= wake):
            t = t_l[arrived]
            first = arrived
            arrived += 1
            # A run of same-instant arrivals is one drain: the evented
            # bucket's refills between them are zero-elapsed, so
            # departures cannot change.
            while arrived < n and t_l[arrived] == t:
                arrived += 1
            # The queued backlog leaves in the first event at t: the
            # run's first arrival, or a wakeup due at t too.
            backlog = first
            tied = wake == t and head < first
            # Every arrival of the run reschedules the wakeup in turn.
            parent = arrived - 1
        else:
            t = wake
            wake = None  # the wake event is consumed by firing
            first = arrived
            backlog = parent = wake_src
            tied = False
        drains += 1
        # _refill: one clamp per event instant, never coalesced.
        tokens = min(sigma, tokens + rho * (t - last))
        last = t
        start = head
        while head < arrived and tokens >= s_l[head] - 1e-15:
            tokens -= s_l[head]
            deps[head] = t
            head += 1
        if lineage:
            for j in range(start, head):
                if j >= first:
                    src.append(j)
                elif tied:
                    src.append(wake_src)
                    contest[j] = first
                else:
                    src.append(backlog)
        if head < arrived:
            # Queue non-empty: cancel-and-reschedule the wakeup.
            wake = t + (s_l[head] - tokens) / rho
            if lineage:
                wake_src = ~len(wakes)
                wakes.append((wake, parent))
        # else: any pending stale wake stays pending (the component
        # leaves it uncancelled; its refill still happens).
    return deps, drains, (src, wakes, contest) if lineage else None


# ----------------------------------------------------------------------
# The primed passes
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
        regulator busy train (or token-bucket drain) plus one per MUX
        busy period."""
        return self.trains + self.releases


class _Regulated:
    """One flow's regulator departures at one host, and -- on demand --
    the simulator events that released them into the MUX.

    ``kind`` names the regulator: ``"sigma-rho"`` (``bucket`` holds the
    ``(times, sizes, sigma, rho)`` it ran on), ``"none"`` or
    ``"vacation"``.  Flows with equal traces and parameters share one
    instance, so nothing here depends on a flow's injection position.
    """

    __slots__ = ("deps", "passes", "kind", "bucket", "_lineage")

    def __init__(
        self,
        deps: np.ndarray,
        passes: int,
        kind: str,
        bucket: Optional[tuple] = None,
    ):
        self.deps = deps
        self.passes = passes
        self.kind = kind
        self.bucket = bucket
        self._lineage = None

    def runtime(self, injected: bool) -> np.ndarray:
        """Which departures leave in a run-time event (the rest leave in
        the arrival event that was injected before the run).

        A vacation regulator delivers from scheduled events.  A token
        bucket whose arrivals are injected releases at an arrival
        instant only inside an arrival event, which precedes any wakeup
        due then; at any other instant a wakeup releases.
        """
        n = self.deps.size
        if not injected or self.kind == "vacation":
            return np.ones(n, dtype=bool)
        if self.kind == "none":
            return np.zeros(n, dtype=bool)
        times = self.bucket[0]
        at = np.minimum(np.searchsorted(times, self.deps), times.size - 1)
        return times[at] != self.deps

    def lineage(self) -> Optional[tuple]:
        """``(src, wakes, contest)``, or ``None`` for a vacation regulator.

        ``src[j]`` is the event that released departure ``j``: ``a >= 0``
        the flow's arrival event ``a``, ``~w`` its wakeup ``w``, which
        ``wakes[w] = (instant, parent)`` scheduled from event ``parent``
        (same encoding).  ``contest[j] = a``: departure ``j`` left in
        whichever of ``src[j]`` and arrival ``a`` runs first -- a
        wakeup and an arrival due at one instant, whose order only
        their event keys decide.  Vacation departures are not traced
        (see the module docstring).
        """
        if self._lineage is None:
            if self.kind == "none":
                self._lineage = (range(self.deps.size), (), {})
            elif self.kind == "sigma-rho":
                self._lineage = _sigma_rho_pass(*self.bucket, True)[2]
        return self._lineage


def _key_cmp(a: tuple, b: tuple) -> int:
    """Order two event keys by the tie rule of the module docstring.

    A key is ``(instant, 0, (block, index))`` for the ``index``-th event
    of injection block ``block``, scheduled before the run, and
    ``(instant, rank, parent)`` for a run-time event scheduled by the
    event keyed ``parent``: rank 1, or -1 for a hold-and-release MUX's
    release decision (scheduled ahead of equal-time events; its
    ``parent`` is ``None``, since no other flow's event shares both its
    instant and its rank).  Levels compare iteratively: wakeup chains
    run deep.
    """
    while a is not b:
        if a[0] != b[0]:
            return -1 if a[0] < b[0] else 1
        if a[1] != b[1]:
            return -1 if a[1] < b[1] else 1
        if a[1] == 0:
            return -1 if a[2] < b[2] else int(a[2] > b[2])
        a, b = a[2], b[2]
        if a is None or b is None:
            break
    return 0


def _release_key(reg: _Regulated, j: int, arrival_key) -> Optional[tuple]:
    """Event key of the event that released departure ``j`` of ``reg``
    (``None`` when untraced); ``arrival_key(a)`` keys arrival event
    ``a``."""
    lineage = reg.lineage()
    if lineage is None:
        return None
    src, wakes, contest = lineage
    code = src[j]
    instants = []
    while code < 0:
        instant, code = wakes[~code]
        instants.append(instant)
    key = arrival_key(code)
    for instant in reversed(instants):
        key = (instant, 1, key)
    a = contest.get(j)
    if a is not None:
        alt = arrival_key(a)
        if _key_cmp(alt, key) < 0:
            key = alt
    return key


def _injected_key(times: np.ndarray, block: int):
    """Arrival keys of a flow injected before the run as block
    ``block``."""
    return lambda a: (float(times[a]), 0, (block, a))


def _release_keys(
    counts: Sequence[int], regs: Sequence[_Regulated], arrival_keys
):
    """``key(p)``: the key of the event that released concatenated
    departure ``p`` of ``regs`` into the MUX (``None`` when untraced)."""
    offsets = list(accumulate(counts, initial=0))

    def key(p: int) -> Optional[tuple]:
        f = bisect_right(offsets, p) - 1
        return _release_key(regs[f], p - offsets[f], arrival_keys[f])

    return key


def _service_order(
    arr: np.ndarray,
    counts: Sequence[int],
    regs: Sequence[_Regulated],
    injected: Sequence[bool],
    release_key,
) -> tuple[np.ndarray, np.ndarray]:
    """Order in which one MUX receives the concatenated departures
    ``arr`` of ``regs`` (``counts`` each, concatenated in injection
    order), plus which departures leave in a run-time event.

    Equal instants arrive in the tie order of the module docstring:
    injected releases first, in injection order; then run-time releases
    by event key.  The stable sort settles most runs of equal instants;
    in the rest a run-time release precedes an injected one or another
    flow's run-time release, and only those runs are reordered,
    building keys (``release_key``) for their run-time releases.
    """
    order = np.argsort(arr, kind="stable")
    runtime = np.concatenate(
        [r.runtime(inj) for r, inj in zip(regs, injected)]
    )
    if not runtime.any():
        return order, runtime
    s_arr = arr[order]
    s_rt = runtime[order]
    s_flow = np.repeat(np.arange(len(regs)), counts)[order]
    flagged = np.flatnonzero(
        (s_arr[1:] == s_arr[:-1])
        & s_rt[:-1]
        & (~s_rt[1:] | (s_flow[1:] != s_flow[:-1]))
    )
    n = arr.size
    end = 0
    for i in flagged.tolist():
        if i < end:
            continue
        t = s_arr[i]
        lo = i
        while lo and s_arr[lo - 1] == t:
            lo -= 1
        end = i + 2
        while end < n and s_arr[end] == t:
            end += 1
        run = order[lo:end].tolist()
        first = [p for p in run if not runtime[p]]
        later = [p for p in run if runtime[p]]
        keys = [release_key(p) for p in later]
        if None not in keys:
            rank = sorted(
                range(len(later)),
                key=cmp_to_key(lambda x, y: _key_cmp(keys[x], keys[y])),
            )
            later = [later[x] for x in rank]
        order[lo:end] = first + later
    return order, runtime


def _mux_deliveries(
    arr: np.ndarray, tx: np.ndarray, fifo: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Delivery instants of MUX arrivals in service order, plus the end
    of each one's busy period.

    The constant-rate drain is the ``busy_until`` recurrence,
    float-sequenced exactly like the evented MUX.  A FIFO packet leaves
    at its own completion, an adversarial one at the end of its busy
    period (the hold-and-release instant).  A busy period ends where the
    next arrival does not precede the completion; an arrival at
    *exactly* the completion instant starts a fresh period (an evented
    hold-and-release MUX schedules its release decision ahead of
    equal-time arrivals, and a per-packet MUX pops its finish event
    first for the same reason).
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
    end_idx = np.nonzero(nxt >= bu)[0]
    ends = np.repeat(bu[end_idx], np.diff(np.concatenate(([-1], end_idx))))
    return (bu if fifo else ends), ends


def _priority_deliveries(
    arr: np.ndarray,
    tx: np.ndarray,
    rank: np.ndarray,
    runtime: np.ndarray,
    release_key,
):
    """Completion instants of MUX arrivals under static priority, plus
    the end of each one's busy period and their completion keys.

    ``arr``, ``tx``, ``rank`` and ``runtime`` list the arrivals in the
    order the MUX receives them; ``release_key(i)`` keys arrival
    ``i``'s release event.  A heap holds the queued arrivals by
    ``(rank, i)``: each completion starts the queued packet of lowest
    rank, earliest arrival first, exactly like the evented priority
    MUX.  An arrival at a completion instant joins the queue before
    that decision iff its release event runs first (the module
    docstring's tie rule).  Returns ``(delivery, ends, finish_key)``;
    ``finish_key(i)`` is the key of the completion event that delivers
    arrival ``i``, built on demand.
    """
    n = arr.size
    arr_l = arr.tolist()
    tx_l = tx.tolist()
    rank_l = rank.tolist()
    rt_l = runtime.tolist()
    fin = [0.0] * n
    # prev[i]: the arrival whose completion started i's service, or -1
    # when i found the server idle and started in its release event.
    prev = [-1] * n
    period = [0] * n
    period_ends: list[float] = []
    fkeys: dict[int, tuple] = {}

    def finish_key(i: int) -> tuple:
        todo = []
        while i >= 0 and i not in fkeys:
            todo.append(i)
            i = prev[i]
        key = fkeys.get(i)
        for m in reversed(todo):
            start = key if prev[m] >= 0 else release_key(m)
            key = fkeys[m] = (fin[m], 1, start)
        return key

    def joins_first(i: int, cur: int) -> bool:
        if not rt_l[i]:
            return True
        key = release_key(i)
        return key is not None and _key_cmp(key, finish_key(cur)) < 0

    heap: list[tuple[int, int]] = []
    cur = -1  # the arrival in service, or -1 while the server is idle
    finish = 0.0
    i = 0
    while i < n or cur >= 0:
        if cur >= 0 and (
            i == n
            or arr_l[i] > finish
            or (arr_l[i] == finish and not joins_first(i, cur))
        ):
            # Completion of ``cur``: start the best queued packet.
            if heap:
                nxt = heappop(heap)[1]
                prev[nxt] = cur
                period[nxt] = len(period_ends)
                finish += tx_l[nxt]
                fin[nxt] = finish
                cur = nxt
            else:
                period_ends.append(finish)
                cur = -1
        else:
            if cur < 0:
                period[i] = len(period_ends)
                finish = arr_l[i] + tx_l[i]
                fin[i] = finish
                cur = i
            else:
                heappush(heap, (rank_l[i], i))
            i += 1
    ends = np.asarray(period_ends, dtype=np.float64)[period]
    return np.asarray(fin, dtype=np.float64), ends, finish_key


def _mux_pass(
    regs: Sequence[_Regulated],
    sizes: Sequence[np.ndarray],
    injected: Sequence[bool],
    arrival_keys: Sequence,
    ranks: Sequence[int],
    discipline: str,
    capacity: float,
):
    """Serve every flow's regulator departures through one MUX.

    The MUX step shared by :func:`primed_host` and
    :func:`primed_tagged_hop`: ``regs``, ``sizes``, ``injected`` and
    ``arrival_keys`` list the flows in injection order, ``ranks`` their
    priorities (lower served first; read only by the priority
    discipline).  Returns ``(order, delivery, ends, finish_key)``: the
    concatenated departures in the order the MUX receives them, each
    one's delivery instant and busy-period end in that order, and
    ``finish_key(i)``, the key of the event that delivers the ``i``-th.
    """
    counts = [r.deps.size for r in regs]
    arr = np.concatenate([r.deps for r in regs])
    release_key = _release_keys(counts, regs, arrival_keys)
    order, runtime = _service_order(arr, counts, regs, injected, release_key)
    arr = arr[order]
    tx = np.concatenate(sizes)[order] / capacity
    if discipline == "priority":
        rank = np.repeat(np.asarray(ranks), counts)[order]
        order_l = order.tolist()
        delivery, ends, finish_key = _priority_deliveries(
            arr, tx, rank, runtime[order], lambda i: release_key(order_l[i])
        )
    elif discipline == "fifo":
        delivery, ends = _mux_deliveries(arr, tx, True)

        # A FIFO completion event is scheduled by the release event.
        def finish_key(i):
            return (float(delivery[i]), 1, release_key(int(order[i])))
    else:
        delivery, ends = _mux_deliveries(arr, tx, False)

        # A hold-and-release MUX delivers in its release decision.
        def finish_key(i):
            return (float(delivery[i]), -1, None)
    return order, delivery, ends, finish_key


def _periods(ends: np.ndarray) -> int:
    """Busy periods among packets in service order, given each one's
    period end (ends strictly increase from one period to the next)."""
    return int(np.count_nonzero(np.diff(ends))) + 1 if ends.size else 0


def _stagger_schedule(
    controller: AdaptiveController, stagger_phase: float
) -> tuple[list, list[float]]:
    """Per-flow vacation regulators and absolute window offsets.

    The controller's stagger plan shifted by ``stagger_phase`` (a
    fraction of the plan period), shared by every primed departure
    pass.
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
) -> _Regulated:
    """Regulator departures of flow ``f`` under ``mode``.

    The per-flow dispatch of every primed pass: a token bucket
    parameterised like the builders (``sigma = e.sigma``,
    ``rho = e.rho / capacity``), a staggered vacation regulator from
    ``schedule`` (:func:`_stagger_schedule`, ``None`` outside
    ``"sigma-rho-lambda"``), or -- mode ``"none"`` -- the arrival times
    themselves.
    """
    times = np.ascontiguousarray(times, dtype=np.float64)
    if mode == "sigma-rho":
        env = envelopes[f]
        rho = env.rho / capacity
        deps, drains = sigma_rho_departures(times, sizes, env.sigma, rho)
        return _Regulated(
            deps, drains, "sigma-rho", (times, sizes, env.sigma, rho)
        )
    if mode == "sigma-rho-lambda":
        regulators, offsets = schedule
        deps, trains = vacation_departures(
            times, sizes, regulators[f], offset=float(offsets[f]),
            out_rate=capacity,
        )
        return _Regulated(deps, trains, "vacation")
    return _Regulated(times, 0, "none")


def _primed_schedule(
    envelopes: Sequence,
    mode: str,
    capacity: float,
    stagger_phase: float,
    discipline: str,
) -> Optional[tuple]:
    """Check a primed pass's discipline, mode and capacity; return the
    vacation stagger schedule of its host (``None`` outside
    ``"sigma-rho-lambda"``)."""
    if discipline not in ("adversarial", "fifo", "priority"):
        raise ValueError(f"unknown discipline {discipline!r}")
    if mode not in PRIMED_MODES:
        raise ValueError(
            f"primed hosts support modes {PRIMED_MODES}, got {mode!r}"
        )
    check_positive(capacity, "capacity")
    if mode != "sigma-rho-lambda":
        return None
    return _stagger_schedule(
        AdaptiveController(envelopes, capacity), stagger_phase
    )


def primed_host(
    traces: Sequence[tuple[np.ndarray, np.ndarray]],
    envelopes: Sequence,
    mode: str,
    *,
    discipline: str = "adversarial",
    capacity: float = 1.0,
    stagger_phase: float = 0.0,
    horizon: Optional[float] = None,
    drain: bool = True,
    dep_cache: Optional[dict] = None,
    cache_keys: Optional[Sequence] = None,
) -> PrimedHostOutcome:
    """Array fast path for any fully-known host cell.

    Every flow's full arrival trace is known up front, so the cell
    needs no event loop at all: per-flow regulator departures are
    closed form, the MUX is a single merged pass over the departures
    in the evented arrival order, and per-flow delays are one
    subtraction.  Per control mode:

    * ``"sigma-rho"`` -- per-flow token buckets
      (:func:`sigma_rho_departures`, ``sigma = e.sigma``,
      ``rho = e.rho / capacity``);
    * ``"sigma-rho-lambda"`` -- the staggered vacation regulators
      (:func:`vacation_departures`; the stagger plan is rebuilt from the
      envelopes by :func:`_stagger_schedule`);
    * ``"none"`` -- no regulation: arrivals feed the MUX directly.

    ``mode`` must already be resolved (no ``"adaptive"`` here).  A FIFO
    packet is delivered at its own completion (the ``busy_until``
    recurrence), an adversarial one at the end of its MUX busy period,
    the hold-and-release instant, and a priority one at its own
    completion, flow ``i`` at priority ``i`` (the heap of
    :func:`_priority_deliveries`).  Flows are injected in flow order.
    With ``drain=False``, deliveries after ``horizon`` are discarded
    (an evented ``run(until=horizon)`` truncation).

    ``dep_cache`` / ``cache_keys`` let a caller whose flows share trace
    objects reuse regulator passes: flows whose ``cache_keys[f]`` is
    not ``None`` and hashes equal are assumed to have identical
    ``(times, sizes)`` arrays and regulator parameters (only sound for
    ``"sigma-rho"`` / ``"none"`` -- the lambda mode's per-flow stagger
    offsets differ between flows, so pass no keys there).  Cache values
    are regulator passes, which hold nothing that depends on a flow's
    position and are never mutated, so sharing is safe.
    """
    schedule = _primed_schedule(
        envelopes, mode, capacity, stagger_phase, discipline
    )
    regs: list[_Regulated] = []
    trains = 0
    for f, (times, sizes) in enumerate(traces):
        key = cache_keys[f] if cache_keys is not None else None
        reg = (
            dep_cache.get(key)
            if dep_cache is not None and key is not None
            else None
        )
        if reg is None:
            reg = _flow_departures(
                mode, f, times, sizes, envelopes, capacity, schedule
            )
            if dep_cache is not None and key is not None:
                dep_cache[key] = reg
        trains += reg.passes
        regs.append(reg)
    k = len(regs)
    counts = [r.deps.size for r in regs]
    if not sum(counts):
        return PrimedHostOutcome([np.empty(0) for _ in range(k)], 0, 0)
    emit_list = [np.asarray(times, dtype=np.float64) for times, _ in traces]
    order, delivery, ends, _ = _mux_pass(
        regs,
        [np.asarray(sizes, dtype=np.float64) for _, sizes in traces],
        [True] * k,
        [_injected_key(e, f) for f, e in enumerate(emit_list)],
        range(k),
        discipline,
        capacity,
    )
    emits = np.concatenate(emit_list)[order]
    flows = np.repeat(np.arange(k), counts)[order]
    releases = _periods(ends)
    if not drain:
        if horizon is None:
            raise ValueError("drain=False requires a horizon")
        keep = delivery <= horizon
        delivery = delivery[keep]
        emits = emits[keep]
        flows = flows[keep]
    delays = delivery - emits
    # Per-flow split preserves emission order: the MUX serves each
    # flow's departures in emission order.
    per_flow = [delays[flows == f] for f in range(k)]
    return PrimedHostOutcome(per_flow, trains, releases)


def _relay(finish_key, positions: np.ndarray):
    """Arrival keys of a relayed tagged flow at the next hop.

    ``relay(a, t)`` keys packet ``a``'s arrival there at instant ``t``:
    an event scheduled by the one that delivered the packet here, the
    MUX event ``finish_key`` keys at the packet's position in
    ``positions``.
    """
    return lambda a, t: (t, 1, finish_key(int(positions[a])))


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
    discipline: str = "adversarial",
    tagged_first: bool = False,
    upstream=None,
):
    """Tagged-flow deliveries of one fully-known host.

    One hop of a relayed tagged flow (flow 0): ``arrivals`` and
    ``sizes`` are its arrival instants at this host and its packet
    sizes; ``cross`` holds the K-1 cross traces (flows 1..K-1, objects
    with ``times`` and ``sizes``) entering the host.  Every flow is
    regulated in closed form and the merged departures take the MUX
    pass of :func:`primed_host`, whose priority MUX here serves the
    tagged flow last; ``mode`` must already be resolved.

    Cross flows are injected before the run, in flow order.
    ``upstream`` is ``None`` where the tagged flow is injected too --
    before the cross traffic with ``tagged_first`` (a chain), after
    all of it without (a tree, which injects every member's cross
    traffic before the root's tagged flow) -- and otherwise the
    ``relay`` the previous hop returned: the tagged packets then arrive
    in run-time events.

    Returns ``(deliveries, passes, relay)``: the tagged flow's delivery
    instants in emission order; the passes run, regulator passes plus
    one per MUX busy period holding tagged packets (a period of cross
    traffic alone delivers nothing that is measured or forwarded); and
    the ``upstream`` of the next hop.

    ``cross_cache``, a dict owned by one chain or tree call, computes
    each cross flow's departures once per call.  Outside
    ``"sigma-rho-lambda"`` they depend only on the trace, the flow
    index and the capacity, so entries are keyed by
    ``(id(trace), f, capacity)`` and hold the trace, which keeps its
    ``id`` valid; a reused entry adds no passes.  The lambda mode's
    stagger offsets differ per hop, so its cross departures are
    recomputed at every hop.
    """
    schedule = _primed_schedule(
        envelopes, mode, capacity, stagger_phase, discipline
    )
    arrivals = np.ascontiguousarray(arrivals, dtype=np.float64)
    tagged = _flow_departures(
        mode, 0, arrivals, sizes, envelopes, capacity, schedule
    )
    passes = tagged.passes
    # Outside the lambda mode (no stagger schedule) cross departures
    # do not depend on the hop.
    cacheable = schedule is None
    regs: list[_Regulated] = []
    size_parts = []
    keys = []
    for f, tr in enumerate(cross, start=1):
        key = (id(tr), f, capacity)
        entry = cross_cache.get(key) if cacheable else None
        if entry is None:
            reg = _flow_departures(
                mode, f, tr.times, tr.sizes, envelopes, capacity, schedule
            )
            passes += reg.passes
            entry = (tr, reg)
            if cacheable:
                cross_cache[key] = entry
        regs.append(entry[1])
        size_parts.append(tr.sizes)
        keys.append(_injected_key(tr.times, f))
    if upstream is None:
        block = 0 if tagged_first else len(regs) + 1
        tagged_key = _injected_key(arrivals, block)
    else:
        def tagged_key(a):
            return upstream(a, float(arrivals[a]))
    # The concatenation follows injection order; a relayed tagged flow
    # goes last, behind every injected release.
    at = 0 if tagged_first and upstream is None else len(regs)
    regs.insert(at, tagged)
    size_parts.insert(at, np.asarray(sizes, dtype=np.float64))
    keys.insert(at, tagged_key)
    injected = [True] * len(regs)
    injected[at] = upstream is None
    # The MUX serves the tagged flow last: it ranks behind every cross
    # flow.
    ranks = list(range(1, len(regs)))
    ranks.insert(at, len(regs))
    counts = [r.deps.size for r in regs]
    if not sum(counts):
        # Nothing reaches the MUX, so nothing is relayed either.
        return tagged.deps, passes, _relay(None, tagged.deps)
    order, delivery, ends, finish_key = _mux_pass(
        regs, size_parts, injected, keys, ranks, discipline, capacity
    )
    lo = sum(counts[:at])
    is_tagged = (order >= lo) & (order < lo + counts[at])
    return (
        delivery[is_tagged],
        passes + _periods(ends[is_tagged]),
        _relay(finish_key, np.flatnonzero(is_tagged)),
    )

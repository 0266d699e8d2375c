"""Vectorised fluid simulation backend.

The sweeps behind Figures 4 and 6 need hundreds of (rate, scheme,
workload) points; an exact packet DES is the reference but too slow to
sweep comfortably.  This backend rasterises traffic onto a uniform time
grid and pushes *cumulative* arrays through O(n) NumPy kernels -- the
same regulator and multiplexer semantics as the DES (the test suite
cross-validates the two backends on identical traces).

The single workhorse identity: a work-conserving server whose available
cumulative service is ``S(t)`` (non-decreasing) turns arrivals ``A``
into departures

.. math::

    D(t) = \\min_{u \\le t} \\big[ A(u) + S(t) - S(u) \\big]
          = S(t) + \\min_{u \\le t} [A(u) - S(u)],

one ``np.minimum.accumulate``.  Every stage is an instance:

* constant-rate MUX: ``S(t) = C t``;
* (sigma, rho, lambda) vacation regulator: ``S(t) = C * OnTime(t)``
  where ``OnTime`` accumulates the working windows (closed form,
  vectorised);
* strict priority ("general MUX" adversarial case): the tagged flow's
  available service is the capacity left over by the others,
  ``S_tag = C t - D_others``;
* token bucket: ``D = min(A, sigma + rho t + min_{u<=t}[A(u) - rho u])``
  (greedy (sigma, rho) shaper, bucket initially full).

Each kernel is written once, along the last axis: a 1-D curve with
scalar parameters is one lane, and a ``(lanes, grid)`` matrix with one
parameter per row is many -- the packs of
:mod:`repro.scenarios.cellmatrix`.

Every run spans its traffic horizon plus a drain margin sized from the
bounds, so queues empty before the end.  That margin is mostly idle.
Chains pay it on every hop, so :func:`adversarial_chain_delays`
simulates only a prefix of the chain grid, up to a point where every
hop is quiet, and returns the per-hop adversarial delays of the full
grid.  :func:`simulate_fluid_chain` stays the full-grid reference and
the path for the FIFO and priority disciplines, whose horizontal
deviations read the drained tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.calculus.envelope import ArrivalEnvelope
from repro.core.adaptive import AdaptiveController, resolve_mode
from repro.core.regulator import SigmaRhoLambdaRegulator
from repro.simulation.flow import PacketTrace, _binned
from repro.utils.piecewise import PiecewiseLinearCurve, first_passage
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "fluid_work_conserving",
    "fluid_token_bucket",
    "fluid_on_time",
    "fluid_vacation_regulator",
    "fluid_mux",
    "fluid_next_empty",
    "FluidHostResult",
    "simulate_fluid_host",
    "FluidChainResult",
    "simulate_fluid_chain",
    "adversarial_chain_delays",
    "chain_worst_case",
]


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
# The lanes of a matrix share one grid.  Every operation is elementwise
# or a forward running pass, so a row's prefix ``[: n_i + 1]`` equals
# the kernel run on that prefix alone -- lanes of different lengths
# share a matrix padded on the right.  Padded arrival tails must be
# *flat* (repeat the last valid value) wherever a kernel's output is
# read beyond pure prefix reads (see :func:`_next_empty`).
def _lane_param(value, name: str, *, positive: bool = True):
    """A kernel parameter, finite and ``> 0`` (``>= 0`` unless
    ``positive``): a scalar checked and returned as a Python float, or
    one value per row (an array) held lane by lane to the same rule
    and returned as a column that broadcasts against the rows."""
    check = check_positive if positive else check_non_negative
    if not isinstance(value, np.ndarray):
        return check(value, name)
    lanes = np.asarray(value, dtype=np.float64)
    bad = ~(np.isfinite(lanes) & (lanes > 0 if positive else lanes >= 0))
    if bad.any():
        lane = int(np.flatnonzero(bad)[0])
        check(float(lanes.flat[lane]), f"{name}[{lane}]")
    return lanes[..., None]


def fluid_work_conserving(
    arrivals_cum: np.ndarray, service_cum: np.ndarray
) -> np.ndarray:
    """Departures of a work-conserving server with cumulative service ``S``.

    ``D = S + running_min(A - S)``; both inputs must be non-decreasing
    along the last axis on the same grid with ``A[..., 0] >= 0`` and
    ``S[..., 0] = 0``.

    One temporary total: the gap buffer is accumulated and re-added in
    place (HPC guidance: avoid copies in O(n) kernels).
    """
    gap = arrivals_cum - service_cum
    np.minimum.accumulate(gap, axis=-1, out=gap)
    np.add(gap, service_cum, out=gap)
    return gap


def fluid_token_bucket(
    arrivals_cum: np.ndarray, t_grid: np.ndarray, sigma, rho
) -> np.ndarray:
    """Greedy (sigma, rho) shaper (token bucket, initially full).

    ``D(t) = min( A(t), sigma + rho t + min_{u<=t}[A(u) - rho u] )``.
    An input already conforming to (sigma, rho) passes unchanged.  Row
    ``i`` of a matrix is shaped by ``(sigma[i], rho[i])``.

    Two temporaries total (the ramp and the running buffer); all other
    arithmetic is in place.
    """
    sigma = _lane_param(sigma, "sigma")
    rho = _lane_param(rho, "rho", positive=False)
    ramp = rho * t_grid
    run = arrivals_cum - ramp
    np.minimum.accumulate(run, axis=-1, out=run)
    np.add(run, ramp, out=run)
    run += sigma
    np.minimum(arrivals_cum, run, out=run)
    return run


def fluid_on_time(
    t_grid: np.ndarray, working, period, offset=0.0
) -> np.ndarray:
    """Cumulative on-time of a periodic window schedule, in closed form.

    Windows are ``[offset + m P, offset + m P + W)`` for ``m >= 0``;
    with arrays, one schedule per row.
    """
    working, period, offset = _window_params(working, period, offset)
    shifted = np.maximum(t_grid - offset, 0.0)
    full = np.floor(shifted / period)
    phase = shifted - full * period
    return full * working + np.minimum(phase, working)


def _window_params(working, period, offset):
    """:func:`fluid_on_time`'s parameters, checked (see
    :func:`_lane_param`): a working period no longer than its cycle,
    both finite and ``> 0``, and a finite offset ``>= 0``."""
    working = _lane_param(working, "working")
    period = _lane_param(period, "period")
    offset = _lane_param(offset, "offset", positive=False)
    too_long = working > period + 1e-12
    if too_long.any() if isinstance(too_long, np.ndarray) else too_long:
        raise ValueError("working period cannot exceed the cycle period")
    return working, period, offset


def fluid_vacation_regulator(
    arrivals_cum: np.ndarray,
    t_grid: np.ndarray,
    regulator: SigmaRhoLambdaRegulator,
    offset: float = 0.0,
    out_rate: float = 1.0,
) -> np.ndarray:
    """(sigma, rho, lambda) regulator: rate-``out_rate`` service during windows."""
    on = fluid_on_time(
        t_grid, regulator.working_period, regulator.regulator_period, offset
    )
    return fluid_work_conserving(arrivals_cum, out_rate * on)


def fluid_mux(
    arrivals_cum: Sequence[np.ndarray],
    t_grid: np.ndarray,
    capacity: float = 1.0,
    *,
    discipline: str = "fifo",
    tagged: int = 0,
) -> list[np.ndarray]:
    """Per-flow departures from the work-conserving MUX.

    ``discipline="fifo"`` serves in arrival order: the aggregate is
    served at rate ``C`` and each flow's share is read off by level
    (FIFO preserves arrival order, so when the aggregate departure
    level is ``y``, exactly the first ``y`` arrived units -- in arrival
    order across flows -- have left).

    ``discipline="priority"`` realises the adversarial general MUX for
    the ``tagged`` flow: all other flows are served strictly first and
    the tagged flow gets the leftover service.  Bounds of Theorems 1/2
    hold for any work-conserving discipline, so this is the discipline
    the worst-case measurements use.
    """
    check_positive(capacity, "capacity")
    if not arrivals_cum:
        raise ValueError("at least one flow is required")
    n = len(arrivals_cum[0])
    for a in arrivals_cum:
        if len(a) != n:
            raise ValueError("all flows must share the same grid")
    service = t_grid - t_grid[0]
    service *= capacity
    if discipline == "fifo":
        agg = np.sum(arrivals_cum, axis=0)
        dep_agg = fluid_work_conserving(agg, service)
        out = []
        for a in arrivals_cum:
            # Flow share at aggregate level y: A_f at the time the
            # aggregate arrivals reached y (FIFO order preservation).
            out.append(_compose_by_level(dep_agg, agg, a))
        return out
    if discipline == "priority":
        if not 0 <= tagged < len(arrivals_cum):
            raise ValueError(f"tagged flow {tagged} out of range")
        others = [a for i, a in enumerate(arrivals_cum) if i != tagged]
        if others:
            agg_others = np.sum(others, axis=0)
            dep_others = fluid_work_conserving(agg_others, service)
        else:
            agg_others = np.zeros(n)
            dep_others = np.zeros(n)
        # ``service`` is not consulted again: reuse it as the leftover
        # buffer instead of allocating one.
        leftover = np.subtract(service, dep_others, out=service)
        dep_tagged = fluid_work_conserving(arrivals_cum[tagged], leftover)
        out = []
        for i, a in enumerate(arrivals_cum):
            if i == tagged:
                out.append(dep_tagged)
            else:
                out.append(_compose_by_level(dep_others, agg_others, a))
        return out
    raise ValueError(f"unknown discipline {discipline!r}")


def fluid_next_empty(
    t_grid: np.ndarray,
    arrivals_agg: np.ndarray,
    capacity=1.0,
    tol: float = 1e-9,
    n_valid: Optional[np.ndarray] = None,
) -> np.ndarray:
    """For every grid instant, the next time the aggregate queue is empty.

    This is the worst feasible departure time of a bit present at that
    instant under the *general MUX* (no service-order guarantee): an
    adversarial discipline may serve the bit behind everything that
    arrives before the busy period ends.  Grid points beyond the last
    empty instant map to ``inf`` (extend the horizon).

    For a matrix of per-cell aggregates, ``capacity`` has one value per
    row and ``n_valid[i]`` is row ``i``'s last valid index; see
    :func:`_next_empty` for the padding it needs.
    """
    capacity = _lane_param(capacity, "capacity")
    dep = fluid_work_conserving(arrivals_agg, capacity * (t_grid - t_grid[0]))
    return _next_empty(t_grid, arrivals_agg, dep, tol, n_valid)


def _next_empty(
    t_grid: np.ndarray,
    arrivals_agg: np.ndarray,
    dep_agg: np.ndarray,
    tol: float = 1e-9,
    n_valid: Optional[np.ndarray] = None,
) -> np.ndarray:
    """:func:`fluid_next_empty` from the aggregate's departures ``dep_agg``.

    With ``n_valid``, row ``i`` must be *flat-padded* beyond
    ``n_valid[i]`` (repeat the last valid value): the flat tail keeps
    the row-end ``scale`` read equal to that of the row's own grid, and
    the padded bins are forced to ``inf`` before the backward running
    minimum, so an unstable cell's ``inf`` tail is never masked by
    padded-bin drainage.  Each row's valid prefix is then bit-identical
    to the kernel on that cell's own grid.
    """
    backlog = arrivals_agg - dep_agg
    scale = np.maximum(arrivals_agg[..., -1:], 1.0)
    empty_times = np.where(backlog <= tol * scale, t_grid, np.inf)
    if n_valid is not None:
        beyond = np.arange(t_grid.shape[0]) > np.asarray(n_valid)[..., None]
        empty_times[beyond] = np.inf
    # Backward running minimum: next empty time at or after each index.
    return np.minimum.accumulate(empty_times[..., ::-1], axis=-1)[..., ::-1]


def _compose_by_level(
    dep_agg: np.ndarray, arr_agg: np.ndarray, arr_flow: np.ndarray
) -> np.ndarray:
    """FIFO share extraction: ``D_f(t) = A_f( A_agg^{-1}( D_agg(t) ) )``.

    All arrays are non-decreasing on a common grid; the composition maps
    aggregate levels back through the aggregate arrival curve to the
    flow's own cumulative.  Flats in ``arr_agg`` are level sets with no
    arrivals, where any preimage gives the same ``A_f`` value.
    """
    idx = np.searchsorted(arr_agg, dep_agg, side="left")
    np.clip(idx, 1, len(arr_agg) - 1, out=idx)
    lo = idx - 1
    v0 = arr_agg[lo]
    rise = arr_agg[idx]
    np.subtract(rise, v0, out=rise)
    steep = rise > 1e-15
    # frac = clip((dep_agg - v0) / rise, 0, 1) where the bin rises,
    # else 1 (level sets with no arrivals) -- all in the ``v0`` buffer.
    frac = np.subtract(dep_agg, v0, out=v0)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(frac, rise, out=frac, where=steep)
    frac[~steep] = 1.0
    np.clip(frac, 0.0, 1.0, out=frac)
    f_lo = arr_flow[lo]
    out = arr_flow[idx]
    np.subtract(out, f_lo, out=out)
    np.multiply(out, frac, out=out)
    np.add(out, f_lo, out=out)
    # Levels at/below the first grid value.
    low = dep_agg <= arr_agg[0]
    out[low] = np.minimum(arr_flow[0], out[low])
    np.minimum(out, arr_flow[-1], out=out)
    return out


# ----------------------------------------------------------------------
# Host-level simulation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FluidHostResult:
    """Outcome of a fluid single-host run."""

    mode: str
    worst_case_delay: float
    per_flow_worst: tuple[float, ...]
    dt: float


def _regulator_stage(
    arrivals_cum: list[np.ndarray],
    t_grid: np.ndarray,
    envelopes: Sequence[ArrivalEnvelope],
    mode: str,
    capacity: float,
    stagger_phase: float,
    shaped_cache: Optional[dict] = None,
    cache_keys: Optional[Sequence] = None,
) -> tuple[str, list[np.ndarray]]:
    """Apply the selected regulator family; returns (effective mode, outputs).

    ``shaped_cache`` / ``cache_keys`` let a caller shaping the same
    input more than once reuse σ-ρ outputs: flow ``f``'s token bucket
    output is stored under ``(cache_keys[f], sigma, rho / capacity)``
    unless its key is ``None``.  Equal keys must name equal inputs.
    """
    mode = resolve_mode(mode, envelopes, capacity)
    if mode == "none":
        return mode, list(arrivals_cum)
    if mode == "sigma-rho":
        out = []
        for f, (a, e) in enumerate(zip(arrivals_cum, envelopes)):
            rho = e.rho / capacity
            key = cache_keys[f] if cache_keys is not None else None
            if shaped_cache is None or key is None:
                out.append(fluid_token_bucket(a, t_grid, e.sigma, rho))
                continue
            key = (key, e.sigma, rho)
            if key not in shaped_cache:
                shaped_cache[key] = fluid_token_bucket(a, t_grid, e.sigma, rho)
            out.append(shaped_cache[key])
        return mode, out
    if mode == "sigma-rho-lambda":
        plan = AdaptiveController(envelopes, capacity).build_stagger_plan()
        base = (stagger_phase % 1.0) * plan.period
        return mode, [
            fluid_vacation_regulator(
                a, t_grid, reg, offset=base + off, out_rate=capacity
            )
            for a, reg, off in zip(arrivals_cum, plan.regulators, plan.offsets)
        ]
    raise ValueError(f"unknown mode {mode!r}")


def _worst_delay(
    t_grid: np.ndarray, arr_cum: np.ndarray, dep_cum: np.ndarray
) -> float:
    """Worst-case FIFO delay between two cumulative arrays on the grid."""
    a = PiecewiseLinearCurve(t_grid, arr_cum)
    d = PiecewiseLinearCurve(t_grid, np.minimum(dep_cum, arr_cum[-1]))
    return a.max_horizontal_deviation(d)


def _adversarial_worst(
    t_grid: np.ndarray,
    arr_cum: np.ndarray,
    reg_cum: np.ndarray,
    next_empty: np.ndarray,
) -> float:
    """Worst feasible delay of any bit of one flow under the general MUX.

    A bit reaching cumulative level ``y`` arrives at the host at
    ``T_A(y)``, leaves its regulator at ``T_R(y)`` and -- served last by
    an adversarial work-conserving discipline -- leaves the MUX no later
    than the first instant after ``T_R(y)`` at which the aggregate MUX
    backlog empties.  The supremum over levels is evaluated at bin
    granularity (O(dt) quantisation, like every fluid measure here).

    The one adversarial-worst kernel: host, chain and the grouped cell
    matrix all call it.  The regulator's first passage runs on the raw
    arrays (:func:`repro.utils.piecewise.first_passage`).
    """
    inc = np.diff(arr_cum)
    bins = np.nonzero(inc > 0)[0]
    if bins.size == 0:
        return 0.0
    t_arr = t_grid[bins + 1]  # data in bin j has fully arrived by t[j+1]
    levels = arr_cum[bins + 1]
    tol = 1e-9 * max(float(arr_cum[-1]), 1.0)
    release = first_passage(t_grid, reg_cum, np.maximum(levels - tol, 0.0))
    idx = np.searchsorted(t_grid, release, side="left")
    idx = np.clip(idx, 0, len(next_empty) - 1)
    worst_dep = next_empty[idx]
    if not np.all(np.isfinite(worst_dep)):
        return float("inf")
    return float(max((worst_dep - t_arr).max(), 0.0))


def _trace_cum(
    trace: PacketTrace,
    horizon: float,
    dt: float,
    total: float,
    n_bins: Optional[int] = None,
) -> np.ndarray:
    """Cumulative arrivals of ``trace`` (injection cut at ``horizon``,
    fused into the bin mask) on the grid ``dt * arange(ceil(total / dt)
    + 1)``, or on its first ``n_bins + 1`` points, whose bins alone are
    filled.  The simulators check ``dt`` at their entry."""
    n = int(np.ceil(total / dt))
    if n_bins is not None:
        n = min(n, n_bins)
    bins = _binned(trace.times, trace.sizes, dt, n, horizon)
    return np.concatenate(([0.0], np.cumsum(bins)))


def simulate_fluid_host(
    traces: Sequence[PacketTrace],
    envelopes: Sequence[ArrivalEnvelope],
    *,
    mode: str = "adaptive",
    capacity: float = 1.0,
    discipline: str = "priority",
    stagger_phase: float = 0.0,
    dt: float = 1e-3,
    horizon: Optional[float] = None,
    drain_margin: Optional[float] = None,
) -> FluidHostResult:
    """Fluid counterpart of :func:`repro.simulation.host_sim.simulate_regulated_host`.

    Parameters
    ----------
    traces, envelopes:
        One packet trace and one (sigma, rho) description per flow.
    stagger_phase:
        Fraction of the stagger period added to every vacation-regulator
        offset (the bounds hold for *any* phase; adversarial scenario
        tests sweep it).
    dt:
        Grid resolution in seconds; measured delays carry an O(dt)
        quantisation error.
    horizon:
        Traffic injection window (defaults to the longest trace).
    drain_margin:
        Extra simulated time so queues empty before measuring; defaults
        to a bound-derived margin.

    With ``discipline="priority"`` each flow is measured one-vs-rest
    (served last), realising the general-MUX worst case for every flow;
    with FIFO a single aggregate pass serves all flows.
    """
    check_positive(dt, "dt")
    if len(traces) != len(envelopes):
        raise ValueError("traces and envelopes must align")
    if not traces:
        raise ValueError("at least one flow is required")
    if horizon is None:
        horizon = max(float(tr.times[-1]) for tr in traces if len(tr)) + dt
    if drain_margin is None:
        drain_margin = _default_drain_margin(envelopes, capacity)
    total = horizon + drain_margin
    n_bins = int(np.ceil(total / dt))
    t_grid = dt * np.arange(n_bins + 1)
    arrivals = [_trace_cum(tr, horizon, dt, total) for tr in traces]
    eff_mode, shaped = _regulator_stage(
        arrivals, t_grid, envelopes, mode, capacity, stagger_phase
    )
    per_flow_worst = []
    if discipline == "fifo":
        deps = fluid_mux(shaped, t_grid, capacity, discipline="fifo")
        for a, d in zip(arrivals, deps):
            per_flow_worst.append(_worst_delay(t_grid, a, d))
    elif discipline == "priority":
        for f in range(len(traces)):
            deps = fluid_mux(shaped, t_grid, capacity, discipline="priority", tagged=f)
            per_flow_worst.append(_worst_delay(t_grid, arrivals[f], deps[f]))
    elif discipline == "adversarial":
        agg = np.sum(shaped, axis=0)
        next_empty = fluid_next_empty(t_grid, agg, capacity)
        for f in range(len(traces)):
            per_flow_worst.append(
                _adversarial_worst(t_grid, arrivals[f], shaped[f], next_empty)
            )
    else:
        raise ValueError(f"unknown discipline {discipline!r}")
    return FluidHostResult(
        mode=eff_mode,
        worst_case_delay=max(per_flow_worst),
        per_flow_worst=tuple(per_flow_worst),
        dt=dt,
    )


def _default_drain_margin(
    envelopes: Sequence[ArrivalEnvelope], capacity: float
) -> float:
    """A margin comfortably above any bound so queues fully drain."""
    agg_rho = sum(e.rho for e in envelopes) / capacity
    agg_sigma = sum(e.sigma for e in envelopes) / capacity
    if agg_rho < 1.0:
        base = agg_sigma / (1.0 - agg_rho)
    else:
        base = agg_sigma * 10.0
    # Vacation regulators may also hold a burst for up to ~2 periods.
    periods = max(e.sigma / max(e.rho, 1e-9) for e in envelopes)
    return 4.0 * base + 4.0 * periods + 1.0


# ----------------------------------------------------------------------
# Chain-level simulation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FluidChainResult:
    """Outcome of a fluid critical-path chain run.

    ``worst_case_delay`` follows the paper's Theorem-7 accounting: the
    sum over hops of the measured per-hop worst-case (general-MUX) delay
    plus the total underlay propagation.  ``fifo_end_to_end`` is the
    physical FIFO horizontal deviation, a lower reference.
    """

    mode: str
    hops: int
    worst_case_delay: float
    per_hop_delay: tuple[float, ...]
    fifo_end_to_end: float
    propagation_total: float
    dt: float


def chain_worst_case(
    per_hop_delay: Sequence[float], propagation: Sequence[float]
) -> float:
    """Theorem-7 accounting: the per-hop worst delays plus propagation.

    The one formula behind :attr:`FluidChainResult.worst_case_delay`,
    shared with callers of :func:`adversarial_chain_delays`.
    """
    return float(sum(per_hop_delay)) + float(np.sum(propagation))


def _chain_grid(
    tagged_trace: PacketTrace,
    cross_traces_per_hop: Sequence[Sequence[PacketTrace]],
    envelopes: Sequence[ArrivalEnvelope],
    capacity,
    propagation: Optional[Sequence[float]],
    dt: float,
    horizon: Optional[float],
) -> tuple[list[float], list[float], float, float, int]:
    """Validate a chain call and size its full grid.

    Returns ``(capacities, propagation, horizon, total, n_bins)``: one
    capacity and one propagation delay per hop, the injection horizon,
    and the ``n_bins + 1``-point grid ``dt * arange(n_bins + 1)`` that
    spans ``total`` -- the horizon plus the drain margin of every hop
    plus the propagation.
    """
    check_positive(dt, "dt")
    hops = len(cross_traces_per_hop)
    if hops < 1:
        raise ValueError("at least one hop is required")
    k = len(envelopes)
    if propagation is None:
        propagation = [0.0] * hops
    if len(propagation) != hops:
        raise ValueError("propagation must have one entry per hop")
    for h, delay in enumerate(propagation):
        check_non_negative(delay, f"propagation[{h}]")
    if np.ndim(capacity) == 0:
        capacities = [float(capacity)] * hops
    else:
        capacities = [float(c) for c in capacity]
        if len(capacities) != hops:
            raise ValueError("capacity must be scalar or one entry per hop")
    for h, cross in enumerate(cross_traces_per_hop):
        if len(cross) != k - 1:
            raise ValueError(
                f"hop {h}: expected {k - 1} cross traces, got {len(cross)}"
            )
    if horizon is None:
        horizon = float(tagged_trace.times[-1]) + dt if len(tagged_trace) else 1.0
    margin = _default_drain_margin(envelopes, min(capacities)) * hops
    total = horizon + margin + float(np.sum(propagation))
    n_bins = int(np.ceil(total / dt))
    return capacities, list(propagation), horizon, total, n_bins


def _chain_hops(
    source_cum: np.ndarray,
    t_grid: np.ndarray,
    cross_cum,
    cross_traces_per_hop: Sequence[Sequence[PacketTrace]],
    envelopes: Sequence[ArrivalEnvelope],
    *,
    mode: str,
    capacities: Sequence[float],
    stagger_phase: float,
    propagation: Sequence[float],
    forward_last: bool,
):
    """The per-hop stages of a chain on ``t_grid``, one hop at a time.

    Yields ``(arrivals, shaped, agg, dep_agg, fwd)`` per hop: the
    hop's inputs (the tagged flow first), its regulator outputs, their
    aggregate and the aggregate's work-conserving departures, and the
    tagged flow's FIFO share -- the curve forwarded to the next hop
    after its propagation delay.  ``fwd`` is ``None`` on the last hop
    unless ``forward_last``.  ``cross_cum(trace)`` returns a cross
    trace's cumulative arrivals on ``t_grid``.

    In σ-ρ mode each cross trace is shaped once per call per
    (envelope, hop capacity), keyed by the trace object.  Every stage
    is elementwise or a forward running pass except the FIFO share's
    level lookup, which reads the aggregate only up to the level the
    aggregate has departed.
    """
    hops = len(cross_traces_per_hop)
    current = _shift_cum(source_cum, t_grid, propagation[0])
    shaped_cache: dict = {}
    for h in range(hops):
        cap_h = capacities[h]
        cross = cross_traces_per_hop[h]
        arrivals = [current] + [cross_cum(tr) for tr in cross]
        _, shaped = _regulator_stage(
            arrivals, t_grid, envelopes, mode, cap_h,
            stagger_phase=(stagger_phase + h * 0.37) % 1.0,
            shaped_cache=shaped_cache,
            cache_keys=[None] + [id(tr) for tr in cross],
        )
        # One aggregate pass (the arithmetic of fluid_mux's FIFO branch)
        # serves both the measurement and the forwarding.
        agg = np.sum(shaped, axis=0)
        service = t_grid - t_grid[0]
        service *= cap_h
        dep_agg = fluid_work_conserving(agg, service)
        last = h + 1 == hops
        # Physical forwarding to the next hop is FIFO; only the tagged
        # flow's share is read, so only it is composed.
        fwd = (
            _compose_by_level(dep_agg, agg, shaped[0])
            if forward_last or not last
            else None
        )
        yield arrivals, shaped, agg, dep_agg, fwd
        if not last:
            current = _shift_cum(fwd, t_grid, propagation[h + 1])


def _cross_cum_cache(horizon: float, dt: float, total: float, n_bins: int):
    """``cross_cum`` for :func:`_chain_hops`: each distinct cross trace's
    cumulative arrivals on the first ``n_bins + 1`` points of the grid
    sized by ``total``, binned once per call and keyed by the trace
    object (the entry holds the trace, so its id cannot be reused)."""
    cache: dict[int, tuple[PacketTrace, np.ndarray]] = {}

    def cross_cum(tr: PacketTrace) -> np.ndarray:
        entry = cache.get(id(tr))
        if entry is None:
            entry = cache[id(tr)] = (tr, _trace_cum(tr, horizon, dt, total, n_bins))
        return entry[1]

    return cross_cum


def simulate_fluid_chain(
    tagged_trace: PacketTrace,
    cross_traces_per_hop: Sequence[Sequence[PacketTrace]],
    envelopes: Sequence[ArrivalEnvelope],
    *,
    mode: str = "sigma-rho",
    capacity=1.0,
    discipline: str = "priority",
    stagger_phase: float = 0.0,
    propagation: Optional[Sequence[float]] = None,
    dt: float = 1e-3,
    horizon: Optional[float] = None,
) -> FluidChainResult:
    """Fluid counterpart of :func:`repro.simulation.chain.simulate_regulated_chain`.

    The tagged flow (index 0) traverses every hop; each hop serves K-1
    fresh cross flows.  Worst-case delay is the horizontal deviation
    between the tagged source curve and its arrival curve at the final
    receiver (propagation included).

    ``capacity`` may be a scalar or one value per hop -- the
    capacity-aware scheme divides each host's output capacity by its
    fan-out (every packet is replicated to every child), yielding
    hop-specific effective service rates.

    Work per call and per hop (:func:`_chain_hops`):

    * **once per call**, keyed by the trace object: each distinct cross
      trace's cumulative arrivals, and in σ-ρ mode its token-bucket
      output per (envelope, hop capacity) -- callers typically pass the
      same cross list at every hop;
    * **per hop**: the tagged flow's regulator (its input changes), the
      λ-mode regulators of all flows (their stagger offsets change),
      the adaptive mode choice (it depends on the hop capacity), one
      aggregate sum and work-conserving pass shared by the measurement
      and the forwarding, and the tagged flow's FIFO share only -- the
      curve forwarded to the next hop, which the FIFO discipline also
      measures.  The priority discipline adds its one-vs-rest MUX.

    This is the full-grid reference: every hop runs to the end of the
    drain margin.  :func:`adversarial_chain_delays` returns the same
    adversarial per-hop delays from a grid cut where every hop is
    quiet.
    """
    capacities, propagation, horizon, total, n_bins = _chain_grid(
        tagged_trace, cross_traces_per_hop, envelopes, capacity,
        propagation, dt, horizon,
    )
    if discipline not in ("adversarial", "priority", "fifo"):
        raise ValueError(f"unknown discipline {discipline!r}")
    t_grid = dt * np.arange(n_bins + 1)
    source_cum = _trace_cum(tagged_trace, horizon, dt, total)
    per_hop_delay = []
    hop_stages = _chain_hops(
        source_cum, t_grid, _cross_cum_cache(horizon, dt, total, n_bins),
        cross_traces_per_hop, envelopes, mode=mode, capacities=capacities,
        stagger_phase=stagger_phase, propagation=propagation,
        forward_last=True,
    )
    for cap_h, (arrivals, shaped, agg, dep_agg, fwd) in zip(
        capacities, hop_stages
    ):
        # Per-hop worst-case measurement under the requested discipline.
        if discipline == "adversarial":
            next_empty = _next_empty(t_grid, agg, dep_agg)
            per_hop_delay.append(
                _adversarial_worst(t_grid, arrivals[0], shaped[0], next_empty)
            )
        elif discipline == "priority":
            deps_adv = fluid_mux(shaped, t_grid, cap_h, discipline="priority", tagged=0)
            per_hop_delay.append(_worst_delay(t_grid, arrivals[0], deps_adv[0]))
        else:  # fifo measures the forwarded curve itself
            per_hop_delay.append(_worst_delay(t_grid, arrivals[0], fwd))
    # The last hop's forwarded curve is what the final receiver gets.
    fifo_e2e = _worst_delay(t_grid, source_cum, fwd)
    return FluidChainResult(
        mode=mode,
        hops=len(capacities),
        worst_case_delay=chain_worst_case(per_hop_delay, propagation),
        per_hop_delay=tuple(per_hop_delay),
        fifo_end_to_end=fifo_e2e,
        propagation_total=float(np.sum(propagation)),
        dt=dt,
    )


def adversarial_chain_delays(
    tagged_trace: PacketTrace,
    cross_traces_per_hop: Sequence[Sequence[PacketTrace]],
    envelopes: Sequence[ArrivalEnvelope],
    *,
    mode: str = "sigma-rho",
    capacity=1.0,
    stagger_phase: float = 0.0,
    propagation: Optional[Sequence[float]] = None,
    dt: float = 1e-3,
    horizon: Optional[float] = None,
    stats: Optional[dict] = None,
) -> tuple[float, ...]:
    """Per-hop adversarial delays of a fluid chain, without the drain tail.

    Equal to ``simulate_fluid_chain(..., discipline="adversarial")
    .per_hop_delay`` (and :func:`chain_worst_case` of it to its
    ``worst_case_delay``), computed on a prefix of the same grid.
    The full grid of ``n`` bins is sized exactly as
    :func:`simulate_fluid_chain` sizes it, and its drain margin is
    mostly idle: the chain is simulated on ``t_grid[:m + 1]`` only,
    starting at ``m = 2 ceil((horizon + sum(propagation)) / dt) + 64``
    and doubling ``m`` (capped at ``n``) until every hop is *quiet* at
    the cut ``t[m]``:

    * the hop's tagged input has reached the source total;
    * every regulator output of the hop has reached its input;
    * the hop's MUX is empty, by :func:`_next_empty`'s own predicate.

    The first two use the kernels' tolerance ``1e-9 max(total, 1)``,
    ``total`` being the flow's own input at the cut.  The last attempt
    is the full grid itself, so a chain that never goes quiet (an
    overloaded hop) gets the full grid's result.

    Why a quiet cut gives the full grid's delays: every stage of
    :func:`_chain_hops` is a prefix pass -- binning, shifting, the
    regulators and the work-conserving MUX read nothing after an index
    to compute it -- except two reads of the future, both bounded by
    the cut.  The FIFO share looks up the aggregate at the level the
    aggregate has departed, which it has reached by the same index.
    The backward running minimum of :func:`_next_empty` finds, from any
    index up to ``m``, the empty instant ``t[m]`` at the latest.  In
    the measurement (:func:`_adversarial_worst`), a tagged arrival bin
    before the cut releases before the cut (its regulator has caught up
    there); one after the cut -- at a later hop, the forwarded curve's
    last rounding steps -- releases before the cut too, since the
    tagged input had reached its total, and finds the MUX empty there,
    so its delay is negative and the maximum ignores it.

    One last-bit caveat: the tolerances ``tol`` of
    :func:`_adversarial_worst` and ``scale`` of :func:`_next_empty` are
    read off the grid's last point (``arr[-1]``, ``agg[-1]``), and at a
    quiet cut those equal the full grid's only up to the tolerance.  A
    comparison within a last-bit rescaling of the tolerance could flip.
    None does in the equivalence tests, nor in any adversarial chain or
    tree cell of the ``thousand`` matrix at seeds 2006, 7 and 517 or of
    the ``des`` matrix at seed 11.

    Only what the verdict reads is computed: no FIFO end-to-end delay
    and no forwarding out of the last hop.  ``stats`` (optional, a
    mutable mapping) accumulates ``sim_bins`` (grid points simulated,
    over every attempt), ``grid_bins`` (the full grid's points) and
    ``cut_attempts``.
    """
    capacities, propagation, horizon, total, n = _chain_grid(
        tagged_trace, cross_traces_per_hop, envelopes, capacity,
        propagation, dt, horizon,
    )

    def delays_on(m: int) -> Optional[tuple[float, ...]]:
        """The per-hop delays on ``t_grid[:m + 1]``, or ``None`` as soon
        as a hop is not quiet at the cut (never on the full grid)."""
        t_grid = dt * np.arange(m + 1)
        source_cum = _trace_cum(tagged_trace, horizon, dt, total, m)
        per_hop = []
        for arrivals, shaped, agg, dep_agg, _ in _chain_hops(
            source_cum, t_grid, _cross_cum_cache(horizon, dt, total, m),
            cross_traces_per_hop, envelopes, mode=mode,
            capacities=capacities, stagger_phase=stagger_phase,
            propagation=propagation, forward_last=False,
        ):
            next_empty = _next_empty(t_grid, agg, dep_agg)
            if m < n and not _quiet(
                float(source_cum[-1]), arrivals, shaped, next_empty
            ):
                return None
            per_hop.append(
                _adversarial_worst(t_grid, arrivals[0], shaped[0], next_empty)
            )
        return tuple(per_hop)

    m = min(2 * int(np.ceil((horizon + float(np.sum(propagation))) / dt)) + 64, n)
    while True:
        per_hop = delays_on(m)
        if stats is not None:
            stats["sim_bins"] = stats.get("sim_bins", 0) + m + 1
            stats["cut_attempts"] = stats.get("cut_attempts", 0) + 1
        if per_hop is not None:
            break
        m = min(2 * m, n)
    if stats is not None:
        stats["grid_bins"] = stats.get("grid_bins", 0) + n + 1
    return per_hop


def _quiet(
    source_total: float,
    arrivals: Sequence[np.ndarray],
    shaped: Sequence[np.ndarray],
    next_empty: np.ndarray,
) -> bool:
    """Whether a hop is quiet at the grid's last point: the tagged input
    (``arrivals[0]``) has reached ``source_total``, every regulator
    output has reached its input, and the MUX is empty there."""
    if arrivals[0][-1] < source_total - 1e-9 * max(source_total, 1.0):
        return False
    for a, s in zip(arrivals, shaped):
        level = float(a[-1])
        if s[-1] < level - 1e-9 * max(level, 1.0):
            return False
    return bool(np.isfinite(next_empty[-1]))


def _shift_cum(cum: np.ndarray, t_grid: np.ndarray, delay: float) -> np.ndarray:
    """Cumulative curve delayed by ``delay``: ``A'(t) = A(t - delay)``."""
    if delay == 0.0:
        return cum
    check_non_negative(delay, "delay")
    shifted = np.interp(t_grid - delay, t_grid, cum, left=cum[0])
    return shifted

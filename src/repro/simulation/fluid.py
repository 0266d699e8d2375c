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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.calculus.envelope import ArrivalEnvelope
from repro.core.adaptive import AdaptiveController, ControlMode
from repro.core.regulator import SigmaRhoLambdaRegulator
from repro.simulation.flow import PacketTrace
from repro.utils.piecewise import PiecewiseLinearCurve
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "fluid_work_conserving",
    "fluid_token_bucket",
    "fluid_on_time",
    "fluid_vacation_regulator",
    "fluid_mux",
    "batch_fluid_work_conserving",
    "batch_fluid_token_bucket",
    "batch_fluid_on_time",
    "batch_fluid_next_empty",
    "FluidHostResult",
    "simulate_fluid_host",
    "FluidChainResult",
    "simulate_fluid_chain",
]

#: Interpolation tolerance of the lean first-passage replica -- the
#: same value as :data:`repro.utils.piecewise._EPS`, on which the
#: bit-identity of `_first_passage_arrays` with
#: :meth:`PiecewiseLinearCurve.first_passage` rests.
_CURVE_EPS = 1e-12


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def fluid_work_conserving(
    arrivals_cum: np.ndarray, service_cum: np.ndarray
) -> np.ndarray:
    """Departures of a work-conserving server with cumulative service ``S``.

    ``D = S + running_min(A - S)``; both inputs must be non-decreasing
    arrays on the same grid with ``A[0] >= 0`` and ``S[0] = 0``.

    One temporary total: the gap buffer is accumulated and re-added in
    place (HPC guidance: avoid copies in O(n) kernels).
    """
    gap = arrivals_cum - service_cum
    np.minimum.accumulate(gap, out=gap)
    np.add(gap, service_cum, out=gap)
    return gap


def fluid_token_bucket(
    arrivals_cum: np.ndarray, t_grid: np.ndarray, sigma: float, rho: float
) -> np.ndarray:
    """Greedy (sigma, rho) shaper (token bucket, initially full).

    ``D(t) = min( A(t), sigma + rho t + min_{u<=t}[A(u) - rho u] )``.
    An input already conforming to (sigma, rho) passes unchanged.

    Two temporaries total (the ramp and the running buffer); all other
    arithmetic is in place.
    """
    check_positive(sigma, "sigma")
    check_non_negative(rho, "rho")
    ramp = rho * t_grid
    run = arrivals_cum - ramp
    np.minimum.accumulate(run, out=run)
    np.add(run, ramp, out=run)
    run += sigma
    np.minimum(arrivals_cum, run, out=run)
    return run


def fluid_on_time(
    t_grid: np.ndarray, working: float, period: float, offset: float = 0.0
) -> np.ndarray:
    """Cumulative on-time of a periodic window schedule, in closed form.

    Windows are ``[offset + m P, offset + m P + W)`` for ``m >= 0``.
    """
    check_positive(working, "working")
    check_positive(period, "period")
    check_non_negative(offset, "offset")
    if working > period + 1e-12:
        raise ValueError("working period cannot exceed the cycle period")
    shifted = np.maximum(t_grid - offset, 0.0)
    full = np.floor(shifted / period)
    phase = shifted - full * period
    return full * working + np.minimum(phase, working)


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
    capacity: float = 1.0,
    tol: float = 1e-9,
) -> np.ndarray:
    """For every grid instant, the next time the aggregate queue is empty.

    This is the worst feasible departure time of a bit present at that
    instant under the *general MUX* (no service-order guarantee): an
    adversarial discipline may serve the bit behind everything that
    arrives before the busy period ends.  Grid points beyond the last
    empty instant map to ``inf`` (extend the horizon).
    """
    dep = fluid_work_conserving(arrivals_agg, capacity * (t_grid - t_grid[0]))
    return _next_empty(t_grid, arrivals_agg, dep, tol)


def _next_empty(
    t_grid: np.ndarray,
    arrivals_agg: np.ndarray,
    dep_agg: np.ndarray,
    tol: float = 1e-9,
) -> np.ndarray:
    """:func:`fluid_next_empty` from the aggregate's departures ``dep_agg``."""
    backlog = arrivals_agg - dep_agg
    scale = max(float(arrivals_agg[-1]), 1.0)
    empty = backlog <= tol * scale
    empty_times = np.where(empty, t_grid, np.inf)
    # Backward running minimum: next empty time at or after each index.
    return np.minimum.accumulate(empty_times[::-1])[::-1]


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
# Batched (structure-of-arrays) kernels
# ----------------------------------------------------------------------
# Many lanes (one lane = one flow of one cell) share a single grid whose
# per-lane prefix ``t_grid[:n_i + 1]`` equals that lane's own grid; all
# kernels here are elementwise/prefix operations along axis 1, so every
# lane's valid prefix is bit-identical to the scalar kernel run on that
# lane alone.  Rows are padded on the right; padded arrival tails must
# be *flat* (repeat the last valid value) wherever a kernel's output is
# consumed beyond pure prefix reads (see :func:`batch_fluid_next_empty`).


def batch_fluid_work_conserving(
    arrivals_cum: np.ndarray, service_cum: np.ndarray
) -> np.ndarray:
    """Row-wise :func:`fluid_work_conserving` over ``(lanes, grid)`` matrices."""
    gap = arrivals_cum - service_cum
    np.minimum.accumulate(gap, axis=1, out=gap)
    np.add(gap, service_cum, out=gap)
    return gap


def batch_fluid_token_bucket(
    arrivals_cum: np.ndarray,
    t_grid: np.ndarray,
    sigmas: np.ndarray,
    rhos: np.ndarray,
) -> np.ndarray:
    """Row-wise :func:`fluid_token_bucket`: lane ``i`` is shaped by
    ``(sigmas[i], rhos[i])``.  All lanes share ``t_grid``."""
    sigmas = np.asarray(sigmas, dtype=np.float64)
    rhos = np.asarray(rhos, dtype=np.float64)
    if np.any(sigmas <= 0):
        raise ValueError("sigmas must be > 0")
    if np.any(rhos < 0):
        raise ValueError("rhos must be >= 0")
    ramp = rhos[:, None] * t_grid[None, :]
    run = arrivals_cum - ramp
    np.minimum.accumulate(run, axis=1, out=run)
    np.add(run, ramp, out=run)
    run += sigmas[:, None]
    np.minimum(arrivals_cum, run, out=run)
    return run


def batch_fluid_on_time(
    t_grid: np.ndarray,
    working: np.ndarray,
    period: np.ndarray,
    offset: np.ndarray,
) -> np.ndarray:
    """Row-wise :func:`fluid_on_time`: one window schedule per lane."""
    working = np.asarray(working, dtype=np.float64)
    period = np.asarray(period, dtype=np.float64)
    offset = np.asarray(offset, dtype=np.float64)
    if np.any(working <= 0):
        raise ValueError("working periods must be > 0")
    if np.any(period <= 0):
        raise ValueError("cycle periods must be > 0")
    if np.any(offset < 0):
        raise ValueError("offsets must be >= 0")
    if np.any(working > period + 1e-12):
        raise ValueError("working period cannot exceed the cycle period")
    shifted = np.maximum(t_grid[None, :] - offset[:, None], 0.0)
    full = np.floor(shifted / period[:, None])
    phase = shifted - full * period[:, None]
    return full * working[:, None] + np.minimum(phase, working[:, None])


def batch_fluid_next_empty(
    t_grid: np.ndarray,
    arrivals_agg: np.ndarray,
    capacity: np.ndarray,
    n_valid: np.ndarray,
    tol: float = 1e-9,
) -> np.ndarray:
    """Row-wise :func:`fluid_next_empty` over per-cell aggregate rows.

    ``arrivals_agg[i]`` must be *flat-padded* beyond ``n_valid[i]``
    (repeat the last valid value): the flat tail keeps the row-end
    ``scale`` read equal to the scalar kernel's, and the padded region
    of ``empty_times`` is forced to ``inf`` before the backward running
    minimum so an unstable cell's ``inf`` tail is never masked by
    padded-bin drainage.  Each row's valid prefix is then bit-identical
    to the scalar kernel on that cell's own grid.
    """
    capacity = np.asarray(capacity, dtype=np.float64)
    n_valid = np.asarray(n_valid, dtype=np.int64)
    base = t_grid - t_grid[0]
    dep = batch_fluid_work_conserving(arrivals_agg, capacity[:, None] * base)
    backlog = arrivals_agg - dep
    scale = np.maximum(arrivals_agg[:, -1], 1.0)
    empty = backlog <= tol * scale[:, None]
    empty_times = np.where(empty, t_grid[None, :], np.inf)
    beyond = np.arange(t_grid.shape[0])[None, :] > n_valid[:, None]
    empty_times[beyond] = np.inf
    return np.minimum.accumulate(empty_times[:, ::-1], axis=1)[:, ::-1]


def _first_passage_arrays(
    t: np.ndarray, v: np.ndarray, levels: np.ndarray
) -> np.ndarray:
    """Lean replica of :meth:`PiecewiseLinearCurve.first_passage`.

    Operates on the raw breakpoint arrays, skipping the curve
    constructor (whose validation and defensive copies dominate the
    scalar call for grid-sized arrays but never change the values) --
    every arithmetic step below matches the method line for line, so
    the outputs are bit-identical.
    """
    idx = np.searchsorted(v, levels, side="left")
    out = np.empty_like(levels)
    beyond = idx >= len(v)
    out[beyond] = np.inf
    ok = ~beyond
    i = idx[ok]
    prev = np.maximum(i - 1, 0)
    t0, t1 = t[prev], t[i]
    v0, v1 = v[prev], v[i]
    rise = v1 - v0
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(
            rise > _CURVE_EPS,
            (levels[ok] - v0) / np.where(rise > _CURVE_EPS, rise, 1.0),
            1.0,
        )
    frac = np.clip(frac, 0.0, 1.0)
    res = t0 + frac * (t1 - t0)
    res = np.where(levels[ok] <= v[0], t[0], res)
    out[ok] = res
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
    controller = AdaptiveController(envelopes, capacity)
    if mode == "adaptive":
        mode = (
            "sigma-rho"
            if controller.select_mode() is ControlMode.SIGMA_RHO
            else "sigma-rho-lambda"
        )
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
        plan = controller.build_stagger_plan()
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
    arrays (:func:`_first_passage_arrays`, bit-identical to
    :meth:`PiecewiseLinearCurve.first_passage`).
    """
    inc = np.diff(arr_cum)
    bins = np.nonzero(inc > 0)[0]
    if bins.size == 0:
        return 0.0
    t_arr = t_grid[bins + 1]  # data in bin j has fully arrived by t[j+1]
    levels = arr_cum[bins + 1]
    tol = 1e-9 * max(float(arr_cum[-1]), 1.0)
    release = _first_passage_arrays(
        t_grid, reg_cum, np.maximum(levels - tol, 0.0)
    )
    idx = np.searchsorted(t_grid, release, side="left")
    idx = np.clip(idx, 0, len(next_empty) - 1)
    worst_dep = next_empty[idx]
    if not np.all(np.isfinite(worst_dep)):
        return float("inf")
    return float(max((worst_dep - t_arr).max(), 0.0))


def _trace_cum(
    trace: PacketTrace, horizon: float, dt: float, total: float
) -> np.ndarray:
    """Cumulative arrivals of ``trace`` (injection cut at ``horizon``) on
    the grid ``dt * arange(ceil(total / dt) + 1)``."""
    binned = trace.restrict(horizon).binned_arrivals(dt, total)
    return np.concatenate(([0.0], np.cumsum(binned)))


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

    Work per call and per hop:

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
    """
    hops = len(cross_traces_per_hop)
    if hops < 1:
        raise ValueError("at least one hop is required")
    k = len(envelopes)
    if propagation is None:
        propagation = [0.0] * hops
    if len(propagation) != hops:
        raise ValueError("propagation must have one entry per hop")
    if np.ndim(capacity) == 0:
        capacities = [float(capacity)] * hops
    else:
        capacities = [float(c) for c in capacity]
        if len(capacities) != hops:
            raise ValueError("capacity must be scalar or one entry per hop")
    if discipline not in ("adversarial", "priority", "fifo"):
        raise ValueError(f"unknown discipline {discipline!r}")
    if horizon is None:
        horizon = float(tagged_trace.times[-1]) + dt if len(tagged_trace) else 1.0
    margin = _default_drain_margin(envelopes, min(capacities)) * hops
    total = horizon + margin + float(np.sum(propagation))
    n_bins = int(np.ceil(total / dt))
    t_grid = dt * np.arange(n_bins + 1)

    source_cum = _trace_cum(tagged_trace, horizon, dt, total)
    current = _shift_cum(source_cum, t_grid, propagation[0])
    # Hop-invariant work, done once per call and keyed by the trace
    # object, since hops may carry different cross traces: each cross
    # trace's cumulative arrivals (the entry holds the trace so its id
    # cannot be reused) and, in σ-ρ mode, its shaped curve.
    cross_cum: dict[int, tuple[PacketTrace, np.ndarray]] = {}
    shaped_cache: dict = {}
    per_hop_delay = []
    for h in range(hops):
        cap_h = capacities[h]
        cross = cross_traces_per_hop[h]
        if len(cross) != k - 1:
            raise ValueError(f"hop {h}: expected {k - 1} cross traces, got {len(cross)}")
        for tr in cross:
            if id(tr) not in cross_cum:
                cross_cum[id(tr)] = (tr, _trace_cum(tr, horizon, dt, total))
        arrivals = [current] + [cross_cum[id(tr)][1] for tr in cross]
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
        # Physical forwarding to the next hop is FIFO; only the tagged
        # flow's share is read, so only it is composed.
        fwd = _compose_by_level(dep_agg, agg, shaped[0])
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
        if h + 1 < hops:
            fwd = _shift_cum(fwd, t_grid, propagation[h + 1])
        current = fwd
    fifo_e2e = _worst_delay(t_grid, source_cum, current)
    prop_total = float(np.sum(propagation))
    worst = float(sum(per_hop_delay)) + prop_total
    return FluidChainResult(
        mode=mode,
        hops=hops,
        worst_case_delay=worst,
        per_hop_delay=tuple(per_hop_delay),
        fifo_end_to_end=fifo_e2e,
        propagation_total=prop_total,
        dt=dt,
    )


def _shift_cum(cum: np.ndarray, t_grid: np.ndarray, delay: float) -> np.ndarray:
    """Cumulative curve delayed by ``delay``: ``A'(t) = A(t - delay)``."""
    if delay == 0.0:
        return cum
    check_non_negative(delay, "delay")
    shifted = np.interp(t_grid - delay, t_grid, cum, left=cum[0])
    return shifted

"""Vectorised piecewise-linear cumulative curves.

Network calculus (Cruz's (sigma, rho) calculus, which the paper builds
on) reasons about *cumulative* functions ``F(t)`` = amount of traffic
seen in ``[0, t]``.  This module provides the one data structure the
whole library shares for such functions: a non-decreasing
piecewise-linear curve stored as two NumPy breakpoint arrays.

Two families of curves occur:

* **fluid curves** -- continuous, e.g. regulator output at rate
  ``rho`` or the zig-zag output of a (sigma, rho, lambda) regulator
  (Fig. 2 of the paper).  All binary operations (sum, minimum) are
  supported.
* **staircase curves** -- packet arrivals, with instantaneous jumps.
  A jump at time ``q`` is represented by two consecutive breakpoints
  with the same time coordinate.  Staircases support evaluation,
  first-passage queries and deviation measures, but not binary
  operations (which would need full left/right-limit bookkeeping that
  nothing in the library requires).

The two deviation measures are the bridge between curves and delays:

* :meth:`PiecewiseLinearCurve.max_vertical_deviation` -- the worst-case
  *backlog* between an arrival and a departure curve.
* :meth:`PiecewiseLinearCurve.max_horizontal_deviation` -- the
  worst-case *FIFO delay*: ``sup_y [T_D(y) - T_A(y)]`` where ``T(y)``
  is the first time a curve reaches level ``y``.

Everything is vectorised; curves with millions of breakpoints (packet
traces) are handled without Python-level loops, per the project's
HPC guidance (vectorise, avoid copies).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["PiecewiseLinearCurve", "first_passage"]

_EPS = 1e-12


def first_passage(t: np.ndarray, v: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """First times the curve with breakpoints ``(t, v)`` reaches each of
    ``levels`` (a 1-D float array): the body of
    :meth:`PiecewiseLinearCurve.first_passage`, on raw breakpoint arrays
    a caller has already validated (the constructor's checks and copies
    dominate a single query on grid-sized arrays)."""
    idx = np.searchsorted(v, levels, side="left")  # first i with v[i] >= y
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
        frac = np.where(rise > _EPS, (levels[ok] - v0) / np.where(rise > _EPS, rise, 1.0), 1.0)
    frac = np.clip(frac, 0.0, 1.0)
    res = t0 + frac * (t1 - t0)
    # Levels at/below the initial value are reached at the start.
    res = np.where(levels[ok] <= v[0], t[0], res)
    out[ok] = res
    return out


class PiecewiseLinearCurve:
    """A non-decreasing piecewise-linear cumulative function.

    Parameters
    ----------
    times:
        Breakpoint time coordinates, non-decreasing.  Equal consecutive
        times encode an instantaneous jump (staircase curves).
    values:
        Breakpoint values, non-decreasing, same length as ``times``.

    Notes
    -----
    The curve is defined on ``[times[0], times[-1]]``.  Evaluation
    outside the domain clamps to the boundary values (a cumulative
    process is flat before it starts and after it ends).
    """

    __slots__ = ("_t", "_v")

    def __init__(self, times: Sequence[float], values: Sequence[float]):
        t = np.asarray(times, dtype=np.float64)
        v = np.asarray(values, dtype=np.float64)
        if t.ndim != 1 or v.ndim != 1:
            raise ValueError("times and values must be one-dimensional")
        if t.shape != v.shape:
            raise ValueError(
                f"times and values must have equal length, got {t.shape[0]} "
                f"and {v.shape[0]}"
            )
        if t.shape[0] < 1:
            raise ValueError("a curve needs at least one breakpoint")
        if np.any(np.diff(t) < -_EPS):
            raise ValueError("times must be non-decreasing")
        if np.any(np.diff(v) < -_EPS):
            raise ValueError("values must be non-decreasing (cumulative curve)")
        # Copy so the curve owns immutable state.
        self._t = np.array(t, dtype=np.float64)
        self._v = np.array(v, dtype=np.float64)
        self._t.setflags(write=False)
        self._v.setflags(write=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_segments(
        cls,
        start_time: float,
        start_value: float,
        durations: Iterable[float],
        rates: Iterable[float],
    ) -> "PiecewiseLinearCurve":
        """Build a fluid curve from consecutive (duration, rate) segments."""
        dur = np.asarray(list(durations), dtype=np.float64)
        rate = np.asarray(list(rates), dtype=np.float64)
        if dur.shape != rate.shape:
            raise ValueError("durations and rates must have equal length")
        if np.any(dur < 0):
            raise ValueError("durations must be >= 0")
        if np.any(rate < 0):
            raise ValueError("rates must be >= 0 for a cumulative curve")
        t = np.concatenate(([start_time], start_time + np.cumsum(dur)))
        v = np.concatenate(([start_value], start_value + np.cumsum(dur * rate)))
        return cls(t, v)

    @classmethod
    def from_rate_grid(
        cls,
        dt: float,
        rates: Sequence[float],
        *,
        start_time: float = 0.0,
        start_value: float = 0.0,
    ) -> "PiecewiseLinearCurve":
        """Build a fluid curve from rates sampled on a uniform grid.

        This is the fast path used by the fluid simulation backend: the
        cumulative curve is a single ``cumsum``.
        """
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        r = np.asarray(rates, dtype=np.float64)
        if r.ndim != 1:
            raise ValueError("rates must be one-dimensional")
        if np.any(r < 0):
            raise ValueError("rates must be >= 0")
        n = r.shape[0]
        t = start_time + dt * np.arange(n + 1, dtype=np.float64)
        v = np.empty(n + 1, dtype=np.float64)
        v[0] = start_value
        np.cumsum(r * dt, out=v[1:])
        v[1:] += start_value
        return cls(t, v)

    @classmethod
    def from_packet_arrivals(
        cls, times: Sequence[float], sizes: Sequence[float]
    ) -> "PiecewiseLinearCurve":
        """Build a right-continuous staircase from packet (time, size) pairs.

        ``times`` must be non-decreasing; simultaneous packets merge into
        a single jump.  The curve starts at value 0 at the first arrival
        time (use :meth:`shift` to reposition).
        """
        t = np.asarray(times, dtype=np.float64)
        s = np.asarray(sizes, dtype=np.float64)
        if t.shape != s.shape:
            raise ValueError("times and sizes must have equal length")
        if t.size == 0:
            return cls([0.0], [0.0])
        if np.any(np.diff(t) < 0):
            raise ValueError("packet times must be non-decreasing")
        if np.any(s <= 0):
            raise ValueError("packet sizes must be > 0")
        # Merge simultaneous arrivals into one jump.
        uniq_t, inverse = np.unique(t, return_inverse=True)
        jump = np.zeros(uniq_t.shape[0], dtype=np.float64)
        np.add.at(jump, inverse, s)
        cum = np.cumsum(jump)
        # Each jump needs a pre-jump and post-jump breakpoint at the
        # same time; the pre-jump value is the previous cumulative total.
        bt = np.repeat(uniq_t, 2)
        bv = np.empty_like(bt)
        bv[0::2] = np.concatenate(([0.0], cum[:-1]))
        bv[1::2] = cum
        return cls(bt, bv)

    @classmethod
    def affine(
        cls, sigma: float, rho: float, horizon: float
    ) -> "PiecewiseLinearCurve":
        """The token-bucket envelope ``gamma(t) = sigma + rho * t`` on [0, horizon].

        Note ``gamma(0) = sigma`` (the instantaneous burst), matching the
        (sigma, rho) constraint of the paper.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        if sigma < 0 or rho < 0:
            raise ValueError("sigma and rho must be >= 0")
        return cls([0.0, horizon], [sigma, sigma + rho * horizon])

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        """Breakpoint times (read-only view)."""
        return self._t

    @property
    def values(self) -> np.ndarray:
        """Breakpoint values (read-only view)."""
        return self._v

    @property
    def start_time(self) -> float:
        return float(self._t[0])

    @property
    def end_time(self) -> float:
        return float(self._t[-1])

    @property
    def total(self) -> float:
        """Final cumulative value."""
        return float(self._v[-1])

    @property
    def is_staircase(self) -> bool:
        """True if the curve contains at least one instantaneous jump."""
        return bool(np.any(np.diff(self._t) <= _EPS))

    def __len__(self) -> int:
        return int(self._t.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PiecewiseLinearCurve(n={len(self)}, "
            f"domain=[{self.start_time:g}, {self.end_time:g}], "
            f"total={self.total:g})"
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def __call__(self, q, side: str = "right"):
        return self.evaluate(q, side=side)

    def evaluate(self, q, side: str = "right"):
        """Evaluate the curve at time(s) ``q``.

        ``side='right'`` returns the right-continuous value (post-jump at
        jump instants), ``side='left'`` the left limit (pre-jump).
        Values outside the domain clamp to the boundary values.
        """
        q_arr = np.asarray(q, dtype=np.float64)
        scalar = q_arr.ndim == 0
        q_arr = np.atleast_1d(q_arr)
        t, v = self._t, self._v
        if side == "right":
            idx = np.searchsorted(t, q_arr, side="right") - 1
        elif side == "left":
            idx = np.searchsorted(t, q_arr, side="left") - 1
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        idx = np.clip(idx, 0, len(t) - 1)
        nxt = np.minimum(idx + 1, len(t) - 1)
        t0, t1 = t[idx], t[nxt]
        v0, v1 = v[idx], v[nxt]
        span = t1 - t0
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(span > _EPS, (q_arr - t0) / np.where(span > _EPS, span, 1.0), 0.0)
        frac = np.clip(frac, 0.0, 1.0)
        out = v0 + frac * (v1 - v0)
        # Clamp strictly outside the domain (exact boundary hits are
        # handled by the index logic above, preserving left/right limits
        # at boundary jumps).
        out = np.where(q_arr < t[0], v[0], out)
        out = np.where(q_arr > t[-1], v[-1], out)
        return float(out[0]) if scalar else out

    def first_passage(self, levels):
        """First time(s) the curve reaches the given cumulative level(s).

        For a level inside a jump the jump instant is returned; for a
        level on a plateau the left edge of the plateau is returned.
        Levels above :attr:`total` yield ``inf``; levels at or below the
        initial value yield the start time.
        """
        y = np.asarray(levels, dtype=np.float64)
        out = first_passage(self._t, self._v, np.atleast_1d(y))
        return float(out[0]) if y.ndim == 0 else out

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def shift(self, dt: float = 0.0, dv: float = 0.0) -> "PiecewiseLinearCurve":
        """Translate the curve by ``dt`` in time and ``dv`` in value."""
        return PiecewiseLinearCurve(self._t + dt, self._v + dv)

    def scale(self, factor: float) -> "PiecewiseLinearCurve":
        """Scale values by a non-negative ``factor``."""
        if factor < 0:
            raise ValueError(f"factor must be >= 0, got {factor}")
        return PiecewiseLinearCurve(self._t, self._v * factor)

    def restrict(self, t_end: float) -> "PiecewiseLinearCurve":
        """Restrict the curve to ``[start_time, t_end]``."""
        if t_end < self.start_time:
            raise ValueError("t_end precedes the curve domain")
        if t_end >= self.end_time:
            return self
        keep = self._t <= t_end
        t = np.append(self._t[keep], t_end)
        v = np.append(self._v[keep], self.evaluate(t_end, side="left"))
        return PiecewiseLinearCurve(t, v)

    def segment_rates(self) -> np.ndarray:
        """Slope of each segment (``inf`` for jumps)."""
        dt = np.diff(self._t)
        dv = np.diff(self._v)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(dt > _EPS, dv / np.where(dt > _EPS, dt, 1.0), np.inf)
        r = np.where((dt <= _EPS) & (dv <= _EPS), 0.0, r)
        return r

    # ------------------------------------------------------------------
    # Binary operations (fluid curves only)
    # ------------------------------------------------------------------
    def _require_fluid(self, op: str) -> None:
        if self.is_staircase:
            raise ValueError(
                f"{op} requires a continuous (fluid) curve; this curve has "
                "instantaneous jumps. Deviation measures support staircases."
            )

    def __add__(self, other: "PiecewiseLinearCurve") -> "PiecewiseLinearCurve":
        """Pointwise sum on the union breakpoint grid (fluid curves)."""
        if not isinstance(other, PiecewiseLinearCurve):
            return NotImplemented
        self._require_fluid("curve addition")
        other._require_fluid("curve addition")
        grid = np.union1d(self._t, other._t)
        return PiecewiseLinearCurve(grid, self.evaluate(grid) + other.evaluate(grid))

    def minimum(self, other: "PiecewiseLinearCurve") -> "PiecewiseLinearCurve":
        """Pointwise minimum, inserting segment-crossing breakpoints."""
        if not isinstance(other, PiecewiseLinearCurve):
            raise TypeError("minimum expects another PiecewiseLinearCurve")
        self._require_fluid("pointwise minimum")
        other._require_fluid("pointwise minimum")
        grid = np.union1d(self._t, other._t)
        a = self.evaluate(grid)
        b = other.evaluate(grid)
        # Where the sign of (a-b) flips inside a segment the min has a
        # kink; insert the crossing point.
        d = a - b
        flip = np.nonzero(d[:-1] * d[1:] < 0)[0]
        if flip.size:
            t0, t1 = grid[flip], grid[flip + 1]
            d0, d1 = d[flip], d[flip + 1]
            tc = t0 + (t1 - t0) * (d0 / (d0 - d1))
            grid = np.sort(np.concatenate([grid, tc]))
            a = self.evaluate(grid)
            b = other.evaluate(grid)
        return PiecewiseLinearCurve(grid, np.minimum(a, b))

    # ------------------------------------------------------------------
    # Deviation measures
    # ------------------------------------------------------------------
    def max_vertical_deviation(self, departure: "PiecewiseLinearCurve") -> float:
        """Worst-case backlog ``sup_t [A(t) - D(t)]`` (self is the arrival).

        Both left and right limits are examined at every breakpoint of
        either curve, so staircase arrivals are handled exactly.
        """
        grid = np.union1d(self._t, departure._t)
        hi = self.evaluate(grid, side="right") - departure.evaluate(grid, side="right")
        lo = self.evaluate(grid, side="left") - departure.evaluate(grid, side="left")
        return float(max(hi.max(), lo.max(), 0.0))

    def max_horizontal_deviation(
        self, departure: "PiecewiseLinearCurve", *, level_rtol: float = 1e-9
    ) -> float:
        """Worst-case FIFO delay between this arrival curve and ``departure``.

        Computed as ``sup_y [T_D(y) - T_A(y)]`` over the union of the
        curves' breakpoint levels (the supremum of a piecewise-linear
        function of the level is attained at a level breakpoint).
        Returns ``inf`` if the departure curve never delivers all the
        arrived traffic (caller should extend the simulation horizon).

        ``level_rtol`` guards against floating-point creep in
        numerically reconstructed departure curves (e.g. the fluid
        backend's ``S + runmin(A - S)`` form, whose top plateau can sit
        a few ULPs below the arrival total and push the top level's
        first passage arbitrarily late): departure passages are queried
        at ``y - level_rtol * total``, an under-estimate of at most
        ``tol / service_rate``.
        """
        tol = level_rtol * max(abs(self.total), 1.0)
        if departure.total < self.total - tol:
            return float("inf")
        levels = np.union1d(self._v, departure._v)
        # Exclude only the degenerate zero level: an arrival curve that
        # starts above zero (e.g. a (sigma, rho) envelope with its
        # instantaneous burst) attains its worst deviation exactly at
        # the initial level sigma.
        levels = levels[(levels > _EPS) & (levels <= self.total + tol)]
        if levels.size == 0:
            return 0.0
        ta = self.first_passage(levels)
        td = departure.first_passage(np.maximum(levels - tol, 0.0))
        return float(max((td - ta).max(), 0.0))

    # ------------------------------------------------------------------
    # (sigma, rho) envelope queries
    # ------------------------------------------------------------------
    def min_sigma(self, rho: float) -> float:
        """Smallest burst ``sigma`` such that the curve conforms to (sigma, rho).

        This is ``sup_{t1<=t2} [F(t2) - F(t1) - rho (t2 - t1)]``, the
        empirical burstiness of the paper's constraint
        ``R ~ (sigma, rho)``.  For a piecewise-linear ``F`` the supremum
        is attained at breakpoints, so a running-minimum scan suffices.
        """
        if rho < 0:
            raise ValueError(f"rho must be >= 0, got {rho}")
        g = self._v - rho * self._t
        run_min = np.minimum.accumulate(g)
        return float(max((g - run_min).max(), 0.0))

    def conforms(self, sigma: float, rho: float, tol: float = 1e-9) -> bool:
        """Whether the curve satisfies the (sigma, rho) burstiness constraint."""
        return self.min_sigma(rho) <= sigma + tol

    def mean_rate(self) -> float:
        """Average rate over the curve's domain."""
        span = self.end_time - self.start_time
        if span <= _EPS:
            return 0.0
        return (self.total - float(self._v[0])) / span

"""The input rate threshold ``rho*`` (Theorems 3 and 4).

The adaptive control algorithm switches from the (sigma, rho) regulator
to the (sigma, rho, lambda) regulator when the average input rate
``rho_bar`` of the ``K`` flows entering a host crosses a threshold
``rho*``.  The threshold is the unique crossing point of the two
worst-case delay bounds:

* homogeneous flows (Theorem 4):  ``g1(rho) = K/(1-rho) + 2/(rho(1-rho))``
  (Theorem 2 with ``sigma0 = sigma``, divided by ``sigma``) versus
  ``g2(rho) = K/(1-K rho)`` (Remark 1);
* heterogeneous flows (Theorem 3): ``g1(rho) = K/(1-rho) +
  2/(rho(1-rho)) + 1/rho`` (inequality (8) of the paper, divided by
  ``sigma``) versus the same ``g2``; the paper reduces ``g1 = g2`` to the
  quadratic ``(K^2 - 2K) rho^2 + (3K + 1) rho - 3 = 0``.

Units: the functions return the *per-flow* threshold
``rho* in (0, 1/K)``.  The paper reports the *aggregate* threshold
``K rho*`` (their "``rho* = 0.73 C``" is ``K rho*`` -- consistent with
the asymptotic control ranges ``1 - K rho* -> 2 - sqrt(3) ~ 0.27`` and
``(5 - sqrt(21))/2 ~ 0.21``).  Use ``aggregate=True`` to get the
paper-style value.
"""

from __future__ import annotations

import functools
import math

from scipy.optimize import brentq

from repro.utils.validation import check_positive

__all__ = [
    "homogeneous_threshold",
    "heterogeneous_threshold",
    "heterogeneous_threshold_quadratic",
    "control_range_homogeneous_limit",
    "control_range_heterogeneous_limit",
    "homogeneous_threshold_asymptotic",
    "heterogeneous_threshold_asymptotic",
]

_BRACKET_EPS = 1e-9


def _check_k(k: int) -> int:
    if isinstance(k, bool) or not isinstance(k, int):
        raise TypeError(f"k must be an int, got {type(k).__name__}")
    if k < 2:
        raise ValueError(f"the threshold theorems require K >= 2, got {k}")
    return k


# The crossing depends on K alone, and every AdaptiveController solves
# it again: cache the unit-capacity root per K.  Callers scale it by the
# capacity afterwards, exactly as the uncached solve did.
@functools.lru_cache(maxsize=None)
def _homogeneous_root(k: int) -> float:
    def gap(rho: float) -> float:
        g1 = k / (1.0 - rho) + 2.0 / (rho * (1.0 - rho))
        g2 = k / (1.0 - k * rho)
        return g1 - g2

    lo, hi = _BRACKET_EPS, 1.0 / k - _BRACKET_EPS
    return brentq(gap, lo, hi, xtol=1e-14, rtol=1e-13)


@functools.lru_cache(maxsize=None)
def _heterogeneous_root(k: int) -> float:
    def gap(rho: float) -> float:
        g1 = k / (1.0 - rho) + 2.0 / (rho * (1.0 - rho)) + 1.0 / rho
        g2 = k / (1.0 - k * rho)
        return g1 - g2

    lo, hi = _BRACKET_EPS, 1.0 / k - _BRACKET_EPS
    return brentq(gap, lo, hi, xtol=1e-14, rtol=1e-13)


def homogeneous_threshold(
    k: int, capacity: float = 1.0, *, aggregate: bool = False
) -> float:
    """Per-flow rate threshold ``rho*`` for K homogeneous flows (Theorem 4).

    Solves ``K/(1-rho) + 2/(rho(1-rho)) = K/(1-K rho)`` on ``(0, 1/K)``.
    The equation is independent of sigma, so the threshold depends only
    on ``K`` (scaled by ``capacity``).

    Parameters
    ----------
    k:
        Number of input flows (groups joined), ``K >= 2``.
    capacity:
        Output link capacity ``C`` (1.0 under the paper's normalisation).
    aggregate:
        If true, return the aggregate threshold ``K rho*`` -- the form
        the paper quotes ("``rho* = 0.73 C``").
    """
    k = _check_k(k)
    check_positive(capacity, "capacity")
    rho_star = _homogeneous_root(k) * capacity
    return k * rho_star if aggregate else rho_star


def heterogeneous_threshold(
    k: int, capacity: float = 1.0, *, aggregate: bool = False
) -> float:
    """Per-flow rate threshold ``rho*`` for K heterogeneous flows (Theorem 3).

    Solves ``K/(1-rho) + 2/(rho(1-rho)) + 1/rho = K/(1-K rho)`` on
    ``(0, 1/K)`` -- the exact crossing of inequality (8) with Remark 1.
    Algebraically equivalent to the paper's quadratic
    ``(K^2-2K) rho^2 + (3K+1) rho - 3 = 0``
    (see :func:`heterogeneous_threshold_quadratic`).
    """
    k = _check_k(k)
    check_positive(capacity, "capacity")
    rho_star = _heterogeneous_root(k) * capacity
    return k * rho_star if aggregate else rho_star


def heterogeneous_threshold_quadratic(
    k: int, capacity: float = 1.0, *, aggregate: bool = False
) -> float:
    """The paper's closed form for Theorem 3's threshold.

    ``rho* = [-(3K+1) + sqrt((3K+1)^2 + 12 (K^2 - 2K))] / (2 (K^2 - 2K))``.
    At ``K = 2`` the quadratic degenerates to the linear equation
    ``7 rho = 3`` -- but ``3/7 > 1/2 = 1/K``, i.e. the dropped terms
    matter there; we fall back to the exact numeric crossing, matching
    the theorem's domain ``rho* in (0, 1/K)``.
    """
    k = _check_k(k)
    check_positive(capacity, "capacity")
    a = float(k * k - 2 * k)
    b = float(3 * k + 1)
    c = -3.0
    if a == 0.0:  # K == 2
        return heterogeneous_threshold(k, capacity, aggregate=aggregate)
    disc = b * b - 4.0 * a * c
    rho_star = (-b + math.sqrt(disc)) / (2.0 * a)
    rho_star *= capacity
    return k * rho_star if aggregate else rho_star


def control_range_homogeneous_limit() -> float:
    """``lim_{K->inf} (1/K - rho*) / (1/K) = 2 - sqrt(3) ~ 0.27`` (Theorem 4 ii)."""
    return 2.0 - math.sqrt(3.0)


def control_range_heterogeneous_limit() -> float:
    """``lim_{K->inf} (1/K - rho*) / (1/K) = (5 - sqrt(21))/2 ~ 0.21`` (Theorem 3 ii)."""
    return (5.0 - math.sqrt(21.0)) / 2.0


def homogeneous_threshold_asymptotic(k: int) -> float:
    """Large-K approximation of the homogeneous per-flow threshold.

    ``rho* ~ (sqrt(3) - 1) / K`` -- the aggregate threshold tends to
    ``sqrt(3) - 1 ~ 0.732``, the paper's "``rho* = 0.73 C``".
    """
    k = _check_k(k)
    return (math.sqrt(3.0) - 1.0) / k


def heterogeneous_threshold_asymptotic(k: int) -> float:
    """Large-K approximation of the heterogeneous per-flow threshold.

    ``rho* ~ (sqrt(21) - 3) / (2K)`` (stated inside the proof of
    Theorem 5) -- the aggregate threshold tends to
    ``(sqrt(21) - 3)/2 ~ 0.791``, the paper's "``rho* = 0.79 C``".
    """
    k = _check_k(k)
    return (math.sqrt(21.0) - 3.0) / (2.0 * k)


def control_range(k: int, *, heterogeneous: bool) -> float:
    """Finite-K control range ``(1/K - rho*) / (1/K) = 1 - K rho*``.

    The fraction of the stable rate region in which the
    (sigma, rho, lambda) regulator wins (part (ii) of Theorems 3/4).
    """
    rho_star = (
        heterogeneous_threshold(k) if heterogeneous else homogeneous_threshold(k)
    )
    return 1.0 - k * rho_star

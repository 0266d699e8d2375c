"""Vectorised batched evaluation of the Section IV/V delay bounds.

The scalar theorem implementations in :mod:`repro.core.delay_bounds`
are the reference; a scenario matrix evaluates *hundreds* of
(sigma_i, rho_i) populations at once, so this module restates
Theorem 1, Theorem 2 and Remark 1 as NumPy kernels over a padded
``(n_scenarios, K_max)`` parameter matrix.  The test suite pins the
batch kernels to the scalar functions element by element.

Padding convention: flows beyond a scenario's ``K`` are ``NaN``; the
kernels reduce with ``nansum``/``nanmin``/``nanmax`` so padded slots
never contribute.  Unstable scenarios (``sum_i rho_i > C``) get
``inf`` bounds, mirroring the scalar code.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.calculus.envelope import ArrivalEnvelope
from repro.calculus.mux import STABILITY_TOL as _STAB_TOL

__all__ = [
    "pack_envelopes",
    "batch_theorem1_wdb",
    "batch_remark1_wdb",
    "batch_bounds",
]


def pack_envelopes(
    envelope_sets: Sequence[Sequence[ArrivalEnvelope]],
) -> tuple[np.ndarray, np.ndarray]:
    """Pack ragged per-scenario envelope lists into NaN-padded matrices.

    Returns ``(sigmas, rhos)`` of shape ``(n_scenarios, K_max)``.
    """
    if not envelope_sets:
        raise ValueError("at least one scenario is required")
    k_max = max(len(envs) for envs in envelope_sets)
    if k_max == 0:
        raise ValueError("every scenario needs at least one flow")
    n = len(envelope_sets)
    sigmas = np.full((n, k_max), np.nan)
    rhos = np.full((n, k_max), np.nan)
    for i, envs in enumerate(envelope_sets):
        sigmas[i, : len(envs)] = [e.sigma for e in envs]
        rhos[i, : len(envs)] = [e.rho for e in envs]
    return sigmas, rhos


def _normalise(
    sigmas: np.ndarray, rhos: np.ndarray, capacity: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray]:
    cap = np.asarray(capacity, dtype=np.float64)
    if cap.ndim == 1:
        cap = cap[:, None]
    return sigmas / cap, rhos / cap


def batch_theorem1_wdb(
    sigmas: np.ndarray,
    rhos: np.ndarray,
    capacity: np.ndarray | float = 1.0,
) -> np.ndarray:
    """Theorem 1 WDB for every row of a padded parameter matrix.

    Row-wise identical to
    :func:`repro.core.delay_bounds.theorem1_wdb_heterogeneous` (which
    also covers Theorem 2's homogeneous case).
    """
    s, r = _normalise(sigmas, rhos, capacity)
    with np.errstate(invalid="ignore", divide="ignore"):
        per_flow_period = s / (r * (1.0 - r))
        common_period = np.nanmin(per_flow_period, axis=1)
        stars = r * (1.0 - r) * common_period[:, None]
        mux_term = np.nansum(stars / (1.0 - r), axis=1)
        stagger_term = 2.0 * common_period
        # fmax skips NaN padding like nanmax, without nanmax's warning
        # on the all-NaN row of a K = 1 cell at rho = C.
        excess_term = np.fmax.reduce((s - stars) / r, axis=1)
    out = mux_term + stagger_term + np.maximum(excess_term, 0.0)
    unstable = np.nansum(r, axis=1) > 1.0 + _STAB_TOL
    out = np.where(unstable, np.inf, out)
    return out


def batch_remark1_wdb(
    sigmas: np.ndarray,
    rhos: np.ndarray,
    capacity: np.ndarray | float = 1.0,
) -> np.ndarray:
    """Remark 1 baseline ``sum sigma_i / (C - sum rho_i)`` per row.

    Stability uses the same ``_STAB_TOL`` band as
    :func:`batch_theorem1_wdb` (and the scalar bounds): rows whose load
    sits within the tolerance of the critical point stay finite, priced
    at the tolerance-wide slack -- so Theorem 1 and Remark 1 never
    disagree on finiteness for the same row.
    """
    s, r = _normalise(sigmas, rhos, capacity)
    agg_sigma = np.nansum(s, axis=1)
    slack = 1.0 - np.nansum(r, axis=1)
    unstable = slack < -_STAB_TOL
    safe = np.where(slack > 0.0, slack, _STAB_TOL)
    out = np.where(unstable, np.inf, agg_sigma / safe)
    return out


def batch_bounds(
    envelope_sets: Sequence[Sequence[ArrivalEnvelope]],
    modes: Sequence[str],
    *,
    hops: Sequence[int] | None = None,
    propagation_total: Sequence[float] | None = None,
    capacity: Sequence[float] | float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """End-to-end analytic bounds for a batch of scenarios, in one pass.

    Parameters
    ----------
    envelope_sets:
        Per-scenario flow envelopes (ragged).
    modes:
        Effective control mode per scenario (``"sigma-rho"`` cells check
        against Remark 1/2, ``"sigma-rho-lambda"`` against Theorem 1/7).
    hops:
        Number of regulated hosts the tagged flow crosses (1 for the
        single-host topology); multiplies the per-hop bound, the
        Theorem 7 / Remark 2 accounting.
    propagation_total:
        Total underlay propagation added on top (0 for hosts).
    capacity:
        Per-scenario (or shared scalar) output capacity.

    Returns
    -------
    (bounds, baselines):
        ``bounds[i]`` -- the bound matching ``modes[i]``;
        ``baselines[i]`` -- the Remark 1/2 baseline for reference.
    """
    n = len(envelope_sets)
    if len(modes) != n:
        raise ValueError("modes must align with envelope_sets")
    sigmas, rhos = pack_envelopes(envelope_sets)
    cap = np.broadcast_to(np.asarray(capacity, dtype=np.float64), (n,))
    hop_arr = (
        np.ones(n) if hops is None else np.asarray(hops, dtype=np.float64)
    )
    prop_arr = (
        np.zeros(n)
        if propagation_total is None
        else np.asarray(propagation_total, dtype=np.float64)
    )
    if hop_arr.shape != (n,) or prop_arr.shape != (n,):
        raise ValueError("hops and propagation_total must align with scenarios")
    theorem1 = batch_theorem1_wdb(sigmas, rhos, cap)
    remark1 = batch_remark1_wdb(sigmas, rhos, cap)
    is_lambda = np.array(
        [m == "sigma-rho-lambda" for m in modes], dtype=bool
    )
    for m in modes:
        if m not in ("sigma-rho", "sigma-rho-lambda"):
            raise ValueError(
                f"modes must be resolved (sigma-rho / sigma-rho-lambda), got {m!r}"
            )
    per_hop = np.where(is_lambda, theorem1, remark1)
    with np.errstate(invalid="ignore"):
        bounds = hop_arr * per_hop + prop_arr
        baselines = hop_arr * remark1 + prop_arr
    return bounds, baselines

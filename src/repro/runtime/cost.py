"""Cost-model-driven campaign scheduling.

The ROADMAP's scheduling open item: tree/DES cells are 10-100x dearer
than fluid host cells, so uniform contiguous chunking (PR 2) leaves the
long tail of a campaign serialised behind whichever worker drew the
expensive chunk.  This module closes that gap:

:class:`CellCostModel`
    Predicts one cell's wall-clock seconds from its spec alone --
    ``(backend, members/K, hops, horizon, dt)`` -- as
    ``coefficient[backend] * workload(spec)``, where ``workload`` is
    the backend's natural size measure (grid points for the fluid
    engine, expected packet-events for the DES backends).  Default
    coefficients ship from measured campaigns;
    :meth:`CellCostModel.fit` re-derives them from any result store's
    recorded per-cell ``wall_time`` (every campaign run appends the
    features needed, so the model is refittable from real data).

:func:`plan_chunks`
    Turns per-cell cost estimates into an executor chunk plan:
    dearest-first ordering (expensive cells start immediately, cheap
    cells backfill), chunk boundaries that equalise *cost* rather than
    count, and deliberately smaller chunks for high-variance backends
    (a mispredicted DES cell strands at most a sliver of work, so idle
    workers steal the tail naturally).

The plan changes **scheduling only**: results are returned in payload
order and every cell's RNG stream is spec-derived, so a cost-scheduled
campaign is bit-identical to a naively chunked one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "DEFAULT_COEFFICIENTS",
    "REALISE_COEFFICIENT",
    "BACKEND_VARIANCE",
    "CellCostModel",
    "spec_group_key",
    "plan_chunks",
    "plan_leases",
    "backend_profile",
]

#: Seconds per unit of backend workload (see ``workload``), measured on
#: the reference container over the PR-3/PR-5 benchmark campaigns.
#: Absolute scale only matters relative to other backends -- scheduling
#: uses cost *ratios* -- so stale coefficients degrade gracefully.
#: The ``*_primed`` entries are *feature labels*, not spec backends:
#: cells the simulators resolve on the closed-form fast paths (batched
#: engine + adversarial discipline, PR 5) cost an order of magnitude
#: less per packet than their evented twins and are priced separately.
DEFAULT_COEFFICIENTS: dict[str, float] = {
    "fluid": 3.0e-8,          # per grid point x flow x hop
    "des": 4.0e-6,            # per expected packet x flow x hop
    "des_primed": 3.0e-7,     # per expected packet (array kernels)
    "tree_des": 6.0e-6,       # per expected packet x flow x member
    "tree_des_primed": 4.0e-7,
}

#: Seconds per expected packet of trace realisation (seed derivation,
#: source generation, sigma measurement, envelope/fragmentation) by the
#: cross-cell batch kernels of :mod:`repro.scenarios.tracebatch`, on
#: the reference container; their per-packet cost is dominated by flat
#: array passes plus a small per-lane constant.
REALISE_COEFFICIENT = 8.0e-8

#: Fixed per-lane overhead of batch realisation (seconds).
_REALISE_LANE_OVERHEAD = 6.0e-6

#: Relative cost-prediction variance per backend family.  DES cells'
#: realised packet counts (and the vacation fit's fluid fallback) swing
#: far more than the fluid grid size, so their chunks shrink.  The
#: primed paths are straight array passes over realised packet counts,
#: so their predictions are tighter than the evented DES ones.
BACKEND_VARIANCE: dict[str, float] = {
    "fluid": 0.15,
    "des": 0.8,
    "des_primed": 0.4,
    "tree_des": 1.0,
    "tree_des_primed": 0.5,
}

#: Fallbacks for unknown backends (forward compatibility).
_DEFAULT_COEFF = 1.0e-5
_DEFAULT_VARIANCE = 1.0

#: Nominal packets-per-second-of-horizon per unit rate at the default
#: MTU (1 / DEFAULT_MTU); only the relative scale matters.
_PACKETS_PER_SEC = 500.0


#: Evented-vs-array per-packet weight inside the primed workloads: the
#: tagged flow's remaining evented hosts cost roughly this many array
#: packets each.
_EVENTED_WEIGHT = 3.0


def _spec_features(spec: Any) -> tuple[str, float]:
    """``(feature label, workload)`` for one scenario spec.

    Accepts :class:`~repro.scenarios.spec.Scenario` instances or
    mapping-shaped records (store rows); unknown fields default
    conservatively.  Cells that resolve on the closed-form primed fast
    paths (PR 5) are classified under the ``*_primed`` labels: for
    store records the recorded ``primed`` execution fact decides; for
    specs it is inferred the way the simulators route
    (``backend="des"``/``"tree_des"`` + ``discipline="adversarial"`` --
    every resolved control mode is primeable).
    """
    get = (
        spec.get
        if isinstance(spec, Mapping)
        else lambda name, default=None: getattr(spec, name, default)
    )
    # Prefer the recorded execution fact over the requested backend: a
    # des cell that fell back to the fluid engine (`_des_lambda_fit`
    # returning None) records ``backend="des", eff_backend="fluid"`` and
    # must be priced as fluid -- classifying it under ``des`` would drag
    # the des coefficient down with fluid wall clocks.  Specs (no
    # ``eff_backend`` yet) keep using the requested backend.
    eff_backend = get("eff_backend", None)
    backend = str(eff_backend if eff_backend is not None else get("backend", "fluid"))
    horizon = float(get("horizon", 2.0) or 2.0)
    k = float(get("k", 0) or len(get("kinds", ()) or ()) or 2)
    hops = float(get("hops", 1) or 1)
    members = float(get("tree_members", 0) or 0)
    dt = float(get("dt", 2e-3) or 2e-3)
    primed = get("primed", None)
    discipline = get("discipline", None)
    sub = get("spec", None)
    if isinstance(sub, Mapping) and discipline is None:
        discipline = sub.get("discipline")
    if primed is None:
        primed = backend in ("des", "tree_des") and discipline == "adversarial"
    if members > 0:
        # Tree specs carry hops=1; the realised critical path is about
        # the DSCT height (Lemma 2) -- use it as the hop estimate.
        hops = max(hops, float(np.log2(max(members, 2.0))) + 1.0)
    if backend == "fluid":
        # Grid points x flows x hops: the vectorised kernels are O(n)
        # in the (horizon + drain margin) / dt grid.
        return backend, (3.0 * horizon / dt) * k * hops
    packets = horizon * _PACKETS_PER_SEC * k
    if backend.startswith("tree_des"):
        if primed and backend == "tree_des":
            # Cross traffic is one array pass per member; only the
            # tagged flow (1/k of the packets) stays event-driven.
            per_flow = horizon * _PACKETS_PER_SEC
            workload = per_flow * (k + _EVENTED_WEIGHT * max(members, 4.0))
            return "tree_des_primed", workload
        # Every member runs the full pipeline for all K flows.
        return backend, packets * max(members, 4.0)
    if primed and backend == "des":
        # Hop 0 (all K flows) is one array pass; later hops carry only
        # the tagged flow, evented.
        per_flow = horizon * _PACKETS_PER_SEC
        workload = per_flow * (k + _EVENTED_WEIGHT * max(hops - 1.0, 0.0))
        return "des_primed", workload
    return backend, packets * hops


@dataclass(frozen=True)
class CellCostModel:
    """Per-backend linear cost model ``cost = coeff[backend] * workload``."""

    coefficients: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_COEFFICIENTS)
    )
    variance: Mapping[str, float] = field(
        default_factory=lambda: dict(BACKEND_VARIANCE)
    )

    def estimate(self, spec: Any) -> float:
        """Predicted wall-clock seconds for one cell."""
        backend, workload = _spec_features(spec)
        return self.coefficients.get(backend, _DEFAULT_COEFF) * workload

    def estimate_many(self, specs: Sequence[Any]) -> np.ndarray:
        return np.array([self.estimate(sc) for sc in specs], dtype=np.float64)

    def relative_variance(self, spec: Any) -> float:
        backend, _ = _spec_features(spec)
        return self.variance.get(backend, _DEFAULT_VARIANCE)

    def estimate_realise(self, specs: Sequence[Any]) -> float:
        """Predicted wall-clock seconds to batch-realise ``specs``.

        Prices the realisation stage alone (trace synthesis, empirical
        sigma, envelopes, fragmentation) by the batch kernels of
        :mod:`repro.scenarios.tracebatch` as ``coeff * expected packets
        + lane overhead``, summed over all flows of all cells.  The
        grouped evaluator records this prediction next to the measured
        batch seconds in its grouping summary, so realisation-cost
        calibration is observable in ``scenarios report``.
        """
        coeff = self.coefficients.get("realise_batched", REALISE_COEFFICIENT)
        total = 0.0
        for spec in specs:
            get = (
                spec.get
                if isinstance(spec, Mapping)
                else lambda name, default=None: getattr(spec, name, default)
            )
            horizon = float(get("horizon", 2.0) or 2.0)
            k = float(get("k", 0) or len(get("kinds", ()) or ()) or 2)
            total += k * (
                coeff * horizon * _PACKETS_PER_SEC + _REALISE_LANE_OVERHEAD
            )
        return total

    @classmethod
    def fit(
        cls,
        records: Iterable[Mapping[str, Any]],
        *,
        base: Optional["CellCostModel"] = None,
        report: Optional[dict] = None,
    ) -> "CellCostModel":
        """Refit coefficients from store records (recorded wall clocks).

        Every campaign record carries ``wall_time`` plus the feature
        fields (``backend``/``eff_backend``, ``k``, ``hops``,
        ``tree_members``, ``horizon``, ``dt``), so the model can be
        re-derived from any real campaign.  Per backend the coefficient
        is the median of ``wall_time / workload`` -- robust to the odd
        cold-start or GC outlier -- and backends absent from the data
        keep their prior coefficient.

        Degenerate refits are guarded rather than propagated: an empty
        store, records with missing/zero/non-finite wall clocks or
        workloads (the ratio model's analogue of singular or constant
        feature columns), and samples whose median would be
        non-positive or non-finite all fall back to the prior
        coefficient -- a refit can never poison the scheduler with NaN
        or zero costs.

        ``report`` (optional, a mutable mapping) receives the fit
        ledger so the guards are observable rather than silent:
        ``records`` seen, ``accepted`` samples, ``dropped`` total, a
        per-reason ``dropped_reasons`` tally (``missing-wall`` /
        ``bad-wall`` / ``bad-features`` / ``bad-workload``), and per
        backend ``accepted``/``refit``/``rejected-median`` under
        ``backends``.
        """
        prior = base if base is not None else cls()
        samples: dict[str, list[float]] = {}
        seen = 0
        dropped: dict[str, int] = {}

        def _drop(reason: str) -> None:
            dropped[reason] = dropped.get(reason, 0) + 1

        for rec in records:
            seen += 1
            wall = rec.get("wall_time") if isinstance(rec, Mapping) else None
            if not isinstance(wall, (int, float)):
                _drop("missing-wall")
                continue
            wall = float(wall)
            if not np.isfinite(wall) or wall <= 0:
                _drop("bad-wall")
                continue
            try:
                backend, workload = _spec_features(rec)
            except (TypeError, ValueError):
                _drop("bad-features")  # malformed fields: unusable record
                continue
            if not np.isfinite(workload) or workload <= 0:
                _drop("bad-workload")
                continue
            samples.setdefault(backend, []).append(wall / workload)
        coeffs = dict(prior.coefficients)
        backends: dict[str, dict] = {}
        for backend, ratios in samples.items():
            coeff = float(np.median(ratios))
            refit = bool(np.isfinite(coeff) and coeff > 0)
            if refit:
                coeffs[backend] = coeff
            backends[backend] = {
                "accepted": len(ratios),
                "refit": refit,
                "coefficient": coeff if refit else prior.coefficients.get(
                    backend, _DEFAULT_COEFF
                ),
            }
        if report is not None:
            report.update(
                records=seen,
                accepted=sum(len(r) for r in samples.values()),
                dropped=sum(dropped.values()),
                dropped_reasons=dict(sorted(dropped.items())),
                backends=backends,
            )
        return cls(coefficients=coeffs, variance=dict(prior.variance))


def spec_group_key(spec: Any) -> tuple:
    """Structural SoA-group key of a scenario *spec* (no realisation).

    The scheduling-layer twin of ``repro.scenarios.cellmatrix.group_key``:
    that one keys *realised* cells (it knows the effective backend and
    mode after fallbacks resolve); this one keys raw specs on the facts
    available before realisation -- backend, discipline, topology, mode
    shape, grid resolution.  Cells sharing a spec key land in the same
    realised group unless a per-cell fallback splits them, so chunking
    parallel submissions by this key keeps grouped-eligible cells
    travelling together.
    """
    return (
        str(getattr(spec, "backend", "fluid")),
        str(getattr(spec, "discipline", "priority")),
        str(getattr(spec, "topology", "host")),
        str(getattr(spec, "mode", "adaptive")),
        float(getattr(spec, "dt", 0.0)),
    )


def plan_chunks(
    costs: Sequence[float],
    jobs: int,
    *,
    variances: Optional[Sequence[float]] = None,
    chunks_per_worker: int = 4,
    max_chunk: int = 16,
    groups: Optional[Sequence] = None,
) -> list[list[int]]:
    """Cost-aware executor chunk plan over payload indices.

    Orders cells dearest-first, then cuts chunks that target an equal
    *cost* share (``total / (jobs * chunks_per_worker)``) instead of an
    equal count.  A chunk's size is additionally capped by the inverse
    of its cells' predicted cost variance: high-variance (DES) cells
    travel in chunks of one or two, so a misprediction strands at most
    one cell's tail and idle workers steal the rest naturally.

    ``groups`` (optional, one hashable key per cell -- see
    :func:`spec_group_key`) makes chunks group-coherent: cells are
    blocked by key before chunking, blocks are ordered by their
    dearest cell, and no chunk spans two blocks -- so a worker that
    batch-evaluates its chunk sees one SoA group per chunk.

    Every index appears in exactly one chunk; an empty ``costs`` yields
    an empty plan.  Scheduling-only: the executor still returns results
    in payload order.
    """
    n = len(costs)
    if n == 0:
        return []
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    costs_arr = np.asarray(costs, dtype=np.float64)
    if np.any(costs_arr < 0):
        raise ValueError("costs must be >= 0")
    if variances is None:
        var_arr = np.zeros(n)
    else:
        if len(variances) != n:
            raise ValueError("one variance per cost is required")
        var_arr = np.asarray(variances, dtype=np.float64)
    order = np.argsort(-costs_arr, kind="stable")
    if groups is not None:
        if len(groups) != n:
            raise ValueError("one group key per cost is required")
        # Stable block-by-key: blocks keep dearest-first order inside,
        # and are themselves ordered by their dearest member.
        blocks: dict = {}
        for idx in order:
            blocks.setdefault(groups[int(idx)], []).append(idx)
        order = [i for block in blocks.values() for i in block]
        boundaries = set()
        pos = 0
        for block in blocks.values():
            pos += len(block)
            boundaries.add(pos)
    else:
        boundaries = None
    target = float(costs_arr.sum()) / max(1, jobs * chunks_per_worker)
    if target <= 0.0:
        target = float("inf")  # all-zero costs: fall back to count caps
    plan: list[list[int]] = []
    chunk: list[int] = []
    chunk_cost = 0.0
    chunk_cap = max_chunk
    for pos, idx in enumerate(order):
        i = int(idx)
        # High-variance cells shrink the cap for the chunk they join.
        cap = max(1, int(round(max_chunk / (1.0 + 4.0 * float(var_arr[i])))))
        chunk_cap = min(chunk_cap, cap)
        chunk.append(i)
        chunk_cost += float(costs_arr[i])
        at_boundary = boundaries is not None and (pos + 1) in boundaries
        if chunk_cost >= target or len(chunk) >= chunk_cap or at_boundary:
            plan.append(chunk)
            chunk, chunk_cost, chunk_cap = [], 0.0, max_chunk
    if chunk:
        plan.append(chunk)
    return plan


def plan_leases(
    costs: Sequence[float],
    workers: int,
    *,
    max_cells: int = 16,
    leases_per_worker: int = 4,
) -> list[list[int]]:
    """Cost-sized lease plan over cell indices for the coordinator.

    The distributed twin of :func:`plan_chunks`, shaped for leases that
    cross process (and host) boundaries: cells are ordered dearest
    first, and each lease targets the *remaining* cost divided by
    ``workers * leases_per_worker`` -- a guided self-scheduling decay,
    so early leases carry the expensive head in big cost bites while
    leases shrink toward the tail and the final stragglers travel alone.
    A dead worker near the end of a campaign therefore strands at most
    a sliver of work for the reclaim path to steal.

    Every index appears in exactly one lease; an empty ``costs`` yields
    an empty plan.  Scheduling-only, like every cost-model consumer:
    leases change which worker runs a cell, never its seed or verdict.
    """
    n = len(costs)
    if n == 0:
        return []
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if max_cells < 1:
        raise ValueError(f"max_cells must be >= 1, got {max_cells}")
    costs_arr = np.asarray(costs, dtype=np.float64)
    if np.any(costs_arr < 0):
        raise ValueError("costs must be >= 0")
    order = np.argsort(-costs_arr, kind="stable")
    remaining = float(costs_arr.sum())
    denom = max(1, workers * leases_per_worker)
    plan: list[list[int]] = []
    lease: list[int] = []
    lease_cost = 0.0
    target = remaining / denom if remaining > 0 else float("inf")
    for idx in order:
        i = int(idx)
        lease.append(i)
        lease_cost += float(costs_arr[i])
        if lease_cost >= target or len(lease) >= max_cells:
            plan.append(lease)
            remaining = max(0.0, remaining - lease_cost)
            target = remaining / denom if remaining > 0 else float("inf")
            lease, lease_cost = [], 0.0
    if lease:
        plan.append(lease)
    return plan


def backend_profile(
    records: Iterable[Mapping[str, Any]]
) -> list[dict[str, Any]]:
    """Per-backend cell-cost breakdown from store records.

    Returns one row per effective backend, sorted by total wall time
    descending: cell count, total/mean/max wall seconds, and share of
    the campaign's total -- the data behind ``scenarios run --profile``.
    """
    groups: dict[str, list[float]] = {}
    for rec in records:
        if not isinstance(rec, Mapping):
            continue
        backend = str(rec.get("eff_backend") or rec.get("backend") or "?")
        wall = rec.get("wall_time")
        if isinstance(wall, (int, float)) and wall >= 0:
            groups.setdefault(backend, []).append(float(wall))
    total = sum(sum(v) for v in groups.values())
    rows = []
    for backend, walls in groups.items():
        sub = sum(walls)
        rows.append(
            {
                "backend": backend,
                "cells": len(walls),
                "wall_total": sub,
                "wall_mean": sub / len(walls),
                "wall_max": max(walls),
                "share": sub / total if total > 0 else 0.0,
            }
        )
    rows.sort(key=lambda r: -r["wall_total"])
    return rows

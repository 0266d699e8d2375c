"""Structure-of-arrays grouped evaluation of a scenario matrix.

Evaluating cells one at a time makes every cell pay its own kernel
dispatch, regulator passes and curve bookkeeping even when the matrix
holds hundreds of cells that differ only in parameters.  This module
evaluates a *batch of cells* instead:

1. **Batch realisation** -- every cell's traces and envelopes are
   realised once, in flat cross-cell passes, by
   :func:`repro.scenarios.tracebatch.realise_batch` (the only
   realiser).  A cell it cannot realise is re-run through
   :func:`evaluate_cell`, which reproduces the exact error.
2. **Grouping and dispatch** -- realised cells are keyed by
   ``(backend, discipline, topology, mode shape)``; two group kernels
   exist today, the adversarial fluid host and the adversarial primed
   DES host.  :func:`simulate_cells` is the one way a realised cell is
   simulated: a group kernel for a group, :func:`runner._simulate
   <repro.scenarios.runner._simulate>` for each cell outside both
   groups.  :func:`evaluate_cell` is a batch of one through the same
   realiser and dispatch, so a cell whose realisation or simulation
   raises is re-run through it: its error (traceback included) is the
   one a pool worker records, and a failing cell fails only its own
   verdict.
3. **Packed evaluation** -- each fluid group packs its unique
   (trace, envelope) lanes into padded ``(n_lanes, n_bins_max + 1)``
   matrices and shapes them with the ``batch_fluid_*`` kernels of
   :mod:`repro.simulation.fluid` in one vectorised pass per group; the
   DES group runs :func:`repro.simulation.batched.primed_adversarial_host`
   per cell with the regulator pass deduplicated across flows sharing
   a trace.

Equivalence contract: grouped evaluation is throughput-only.  Every
``CellResult`` field must equal the per-cell reference (the scalar
simulators on a per-cell realisation, ``tests/reference.py``) bit for
bit -- the shared-grid prefix property of the batch kernels, the
exact-selection property of float min/max and the float-op-for-float-op
lean replicas are what make that hold;
``tests/test_scenarios_cellmatrix.py`` enforces it over the corpus and
generated matrices.  Only the ``wall_time`` attribution differs: batch
realisation and group kernel time are amortised evenly over their
cells.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.adaptive import AdaptiveController
from repro.runtime.executor import TaskResult, _run_one
from repro.runtime.telemetry import begin_cell, counter_add, end_cell, span
from repro.scenarios.runner import (
    CellResult,
    _cell_result,
    _Realised,
    _simulate,
    evaluate_cell,
)
from repro.scenarios.spec import Scenario
from repro.scenarios.tracebatch import realise_batch
from repro.simulation.batched import PRIMED_MODES, primed_adversarial_host
from repro.simulation.fluid import (
    _adversarial_worst,
    _default_drain_margin,
    batch_fluid_next_empty,
    batch_fluid_on_time,
    batch_fluid_token_bucket,
    batch_fluid_work_conserving,
)

__all__ = [
    "evaluate_grouped",
    "group_key",
    "simulate_cells",
]

#: Ceiling on one packed fluid sub-batch, in float64 elements per
#: matrix (lanes x padded grid).  Groups whose lanes exceed it are
#: split into sub-batches of similar grid width (cells sorted by
#: ``n_bins`` first, so padding waste stays small); splitting is
#: invisible to results -- every kernel's valid prefix is independent
#: of the batch it rides in.
MAX_PACK_ELEMENTS = 4_000_000

#: Ceiling on padding waste within one pack: a cell whose grid is more
#: than this factor wider than the pack's narrowest starts a new pack.
#: Every lane pads to the pack maximum, so without this cap one
#: near-critical cell (drain margin ~ sigma/(C - rho) blows up the
#: grid) would multiply the whole pack's kernel cost; with cells
#: sorted ascending the waste per pack is bounded by the factor.
MAX_PACK_WIDTH_RATIO = 1.3


# ----------------------------------------------------------------------
# Grouping
# ----------------------------------------------------------------------
def group_key(r: _Realised) -> Optional[tuple]:
    """The SoA group of a realised cell, or ``None`` (per-cell only).

    Group members must share every structural fact a packed kernel
    depends on: effective backend, discipline, topology, effective mode
    and (fluid) the grid resolution.  Capacities, envelopes, horizons
    and flow counts may vary freely -- they are per-lane/per-cell
    parameters of the kernels.
    """
    sc = r.scenario
    if sc.topology != "host" or sc.discipline != "adversarial":
        return None
    if r.eff_backend == "fluid":
        return ("fluid", "adversarial", "host", r.eff_mode, sc.dt)
    if r.eff_backend == "des" and r.eff_mode in PRIMED_MODES:
        return ("des", "adversarial", "host", r.eff_mode)
    return None


def _fallback_reason(r: _Realised) -> str:
    """Why :func:`group_key` rejected a realised cell (telemetry label).

    Mirrors the rejection order of :func:`group_key` so the label names
    the *first* disqualifying fact -- the "no silent caps" counters in
    the grouping summary aggregate these per reason.
    """
    sc = r.scenario
    if sc.topology != "host":
        return f"topology:{sc.topology}"
    if sc.discipline != "adversarial":
        return f"discipline:{sc.discipline}"
    if r.eff_backend == "des":
        return f"mode:{r.eff_mode}"
    return f"backend:{r.eff_backend}"


def _annotate_fallback(task: TaskResult, reason: str) -> None:
    """Stamp a per-cell fallback reason onto a ``_run_one`` result."""
    if task.telemetry is not None:
        task.telemetry.extra["fallback_reason"] = reason
        task.telemetry.counters["fallback_cells"] = 1


# ----------------------------------------------------------------------
# DES group: primed adversarial hosts
# ----------------------------------------------------------------------
def _eval_des_group(
    mode: str, realised: Sequence[_Realised]
) -> list[Union[CellResult, Exception]]:
    """Evaluate one primed-DES group: a result or the raised exception
    per cell."""
    out: list[Union[CellResult, Exception]] = []
    dedupe = mode in ("sigma-rho", "none")
    for r in realised:
        try:
            sc = r.scenario
            traces = r.traces
            # Same derivation (and the same all-empty ValueError) as
            # simulate_regulated_host; the horizon always exceeds every
            # emission, so its restrict() is the identity value-wise.
            max(tr.times[-1] + 1e-9 for tr in traces if len(tr))
            keys = (
                [
                    (id(tr), e.sigma, e.rho)
                    for tr, e in zip(traces, r.envelopes)
                ]
                if dedupe
                else None
            )
            host = primed_adversarial_host(
                [(tr.times, tr.sizes) for tr in traces],
                r.envelopes,
                mode,
                capacity=sc.capacity,
                stagger_phase=sc.stagger_phase,
                dep_cache={} if dedupe else None,
                cache_keys=keys,
            )
            worst = max(
                (float(d.max()) for d in host.per_flow_delays if d.size),
                default=0.0,
            )
            out.append(_cell_result(r, worst, host.batch_events, 0, True))
        except Exception as exc:
            out.append(exc)
    return out


# ----------------------------------------------------------------------
# Fluid group: adversarial fluid hosts
# ----------------------------------------------------------------------
class _FluidCell:
    """One fluid cell's packed-evaluation state."""

    __slots__ = (
        "realised", "n_bins", "arr_rows", "arr_of_flow", "lane_params",
        "measure_key",
    )

    def __init__(self, realised, n_bins, arr_rows, arr_of_flow,
                 lane_params, measure_key):
        self.realised = realised
        self.n_bins = n_bins
        #: Unique cumulative-arrival rows (one per shaped lane).
        self.arr_rows = arr_rows
        #: Flow index -> lane index into ``arr_rows``.
        self.arr_of_flow = arr_of_flow
        #: Per-lane shaper parameters (mode-dependent).
        self.lane_params = lane_params
        #: Flow index -> measurement-dedupe key (``None``: no sharing).
        self.measure_key = measure_key


def _binned_cum(tr, dt: float, horizon: float, total: float) -> np.ndarray:
    """``concatenate(([0], cumsum(tr.restrict(horizon).binned_arrivals(dt, total))))``.

    Fused: the restrict copy is skipped, its keep-mask is AND-ed into
    the bin mask instead (masking preserves element order, so the
    ``np.add.at`` accumulation order -- and every float -- matches).
    """
    n_bins = int(np.ceil(total / dt))
    bins = np.zeros(n_bins, dtype=np.float64)
    if len(tr):
        idx = np.floor(tr.times / dt).astype(np.int64)
        keep = (tr.times < horizon) & (idx < n_bins)
        np.add.at(bins, idx[keep], tr.sizes[keep])
    return np.concatenate(([0.0], np.cumsum(bins)))


def _prep_fluid_cell(r: _Realised, mode: str, dt: float) -> _FluidCell:
    """Realise one fluid cell's lanes.

    Mirrors ``simulate_fluid_host`` head for head: horizon and drain
    margin derivation, binned cumulative arrivals, the stagger plan and
    its offsets.  Every predicate a scalar kernel would raise on
    (``fluid_on_time`` window validation, the stagger-plan tiling
    check) is evaluated here, so exactly the cells the scalar
    simulator rejects raise.
    """
    sc = r.scenario
    traces, envelopes = r.traces, r.envelopes
    horizon = max(float(tr.times[-1]) for tr in traces if len(tr)) + dt
    total = horizon + _default_drain_margin(envelopes, sc.capacity)
    n_bins = int(np.ceil(total / dt))

    arr_rows: list[np.ndarray] = []
    arr_of_flow: list[int] = []
    lane_of: dict[tuple, int] = {}
    for tr in traces:
        key = (id(tr),)
        lane = lane_of.get(key)
        if lane is None:
            lane = len(arr_rows)
            lane_of[key] = lane
            arr_rows.append(_binned_cum(tr, dt, horizon, total))
        arr_of_flow.append(lane)

    k = len(traces)
    if mode == "none":
        # Shaping is the identity; one lane per unique arrival row.
        lane_params = [()] * len(arr_rows)
        shape_of_flow = list(arr_of_flow)
        measure_key = list(arr_of_flow)
    elif mode == "sigma-rho":
        # One shaped lane per unique (arrival row, sigma, rho/C).
        lane_params = []
        shape_of_flow = []
        shape_lane_of: dict[tuple, int] = {}
        for f in range(k):
            e = envelopes[f]
            skey = (arr_of_flow[f], e.sigma, e.rho / sc.capacity)
            lane = shape_lane_of.get(skey)
            if lane is None:
                lane = len(lane_params)
                shape_lane_of[skey] = lane
                lane_params.append(skey)
            shape_of_flow.append(lane)
        measure_key = list(shape_of_flow)
    else:  # sigma-rho-lambda: per-flow offsets, one lane per flow
        plan = AdaptiveController(envelopes, sc.capacity).build_stagger_plan()
        base = (sc.stagger_phase % 1.0) * plan.period
        lane_params = []
        for f, (reg, off) in enumerate(zip(plan.regulators, plan.offsets)):
            working, period = reg.working_period, reg.regulator_period
            offset = base + off
            # fluid_on_time's own validation, pre-flighted per lane.
            if not (working > 0.0 and period > 0.0 and offset >= 0.0):
                raise ValueError("invalid vacation window parameters")
            if working > period + 1e-12:
                raise ValueError(
                    "working period cannot exceed the cycle period"
                )
            lane_params.append((arr_of_flow[f], working, period, offset))
        shape_of_flow = list(range(k))
        measure_key = [None] * k
    return _FluidCell(
        r, n_bins, arr_rows,
        {"arr": arr_of_flow, "shape": shape_of_flow}, lane_params,
        measure_key,
    )


def _fluid_subbatches(
    cells: Sequence[tuple[int, _FluidCell]]
) -> list[list[tuple[int, _FluidCell]]]:
    """Split a fluid group into packs bounded by :data:`MAX_PACK_ELEMENTS`.

    Cells are sorted by grid length so each pack pads to a similar
    width; the split has no effect on results (kernel prefixes are
    batch-independent), only on peak memory.
    """
    ordered = sorted(cells, key=lambda item: item[1].n_bins)
    packs: list[list[tuple[int, _FluidCell]]] = []
    cur: list[tuple[int, _FluidCell]] = []
    lanes = 0
    for item in ordered:
        cell = item[1]
        n_lanes = len(cell.lane_params)
        width = cell.n_bins + 1  # sorted ascending: this is the pack max
        if cur and (
            (lanes + n_lanes) * width > MAX_PACK_ELEMENTS
            or width > MAX_PACK_WIDTH_RATIO * (cur[0][1].n_bins + 1)
        ):
            packs.append(cur)
            cur, lanes = [], 0
        cur.append(item)
        lanes += n_lanes
    if cur:
        packs.append(cur)
    return packs


def _eval_fluid_pack(
    mode: str, dt: float, pack: Sequence[tuple[int, _FluidCell]]
) -> dict[int, CellResult]:
    """Shape + measure one packed sub-batch of fluid cells."""
    n_max = max(cell.n_bins for _slot, cell in pack)
    t_grid = dt * np.arange(n_max + 1)
    lane_rows = []
    lane_base: dict[int, int] = {}
    sigmas, rhos = [], []
    workings, periods, offsets, caps = [], [], [], []
    for slot, cell in pack:
        lane_base[slot] = len(lane_rows)
        width = cell.n_bins + 1
        for params in cell.lane_params:
            if mode == "sigma-rho":
                sigmas.append(params[1])
                rhos.append(params[2])
            elif mode == "sigma-rho-lambda":
                workings.append(params[1])
                periods.append(params[2])
                offsets.append(params[3])
                caps.append(cell.realised.scenario.capacity)
        # "none" lanes are the arrival rows themselves.
        rows = (
            cell.arr_rows
            if mode == "none"
            else [cell.arr_rows[p[0]] for p in cell.lane_params]
        )
        for row in rows:
            padded = np.empty(n_max + 1, dtype=np.float64)
            padded[:width] = row
            padded[width:] = row[-1]
            lane_rows.append(padded)

    packed = np.asarray(lane_rows) if lane_rows else np.zeros((0, n_max + 1))
    if mode == "none" or packed.shape[0] == 0:
        shaped = packed
    elif mode == "sigma-rho":
        shaped = batch_fluid_token_bucket(
            packed, t_grid, np.asarray(sigmas), np.asarray(rhos)
        )
    else:
        on = batch_fluid_on_time(
            t_grid,
            np.asarray(workings),
            np.asarray(periods),
            np.asarray(offsets),
        )
        service = np.asarray(caps)[:, None] * on
        shaped = batch_fluid_work_conserving(packed, service)

    # Per-cell aggregates of the shaped flows (duplicates included:
    # np.sum over the k views runs the same stacked reduction as the
    # scalar path's np.sum(shaped, axis=0)).
    agg_pad = np.empty((len(pack), n_max + 1), dtype=np.float64)
    cell_caps = np.empty(len(pack))
    n_valid = np.empty(len(pack), dtype=np.int64)
    for c, (slot, cell) in enumerate(pack):
        base = lane_base[slot]
        n = cell.n_bins
        views = [
            shaped[base + lane, : n + 1]
            for lane in cell.arr_of_flow["shape"]
        ]
        agg = np.sum(views, axis=0)
        agg_pad[c, : n + 1] = agg
        agg_pad[c, n + 1:] = agg[n]
        cell_caps[c] = cell.realised.scenario.capacity
        n_valid[c] = n
    next_empty = batch_fluid_next_empty(t_grid, agg_pad, cell_caps, n_valid)

    results: dict[int, CellResult] = {}
    for c, (slot, cell) in enumerate(pack):
        base = lane_base[slot]
        n = cell.n_bins
        tg = t_grid[: n + 1]
        ne = next_empty[c, : n + 1]
        worst_cache: dict[int, float] = {}
        per_flow_worst = []
        k = len(cell.realised.traces)
        for f in range(k):
            mkey = cell.measure_key[f]
            if mkey is not None and mkey in worst_cache:
                per_flow_worst.append(worst_cache[mkey])
                continue
            arr = cell.arr_rows[cell.arr_of_flow["arr"][f]]
            shp = shaped[base + cell.arr_of_flow["shape"][f], : n + 1]
            worst = _adversarial_worst(tg, arr, shp, ne)
            if mkey is not None:
                worst_cache[mkey] = worst
            per_flow_worst.append(worst)
        results[slot] = _cell_result(
            cell.realised, max(per_flow_worst), 0, 0, False
        )
    return results


def _eval_fluid_group(
    mode: str,
    dt: float,
    realised: Sequence[_Realised],
    pack_stats: Optional[dict] = None,
) -> list[Union[CellResult, Exception]]:
    """Evaluate one fluid group: a result or the raised exception per
    cell (every member of a failing pack gets the pack's exception).

    ``pack_stats`` (optional, a mutable mapping) accumulates lane
    packing telemetry across the group's sub-batches: ``packs``,
    ``lanes``, and padded vs. valid float64 elements (their ratio is
    the padding-waste the pack-width cap bounds).
    """
    out: list[Union[CellResult, Exception, None]] = [None] * len(realised)
    cells: list[tuple[int, _FluidCell]] = []
    for slot, r in enumerate(realised):
        try:
            cells.append((slot, _prep_fluid_cell(r, mode, dt)))
        except Exception as exc:
            out[slot] = exc
    for pack in _fluid_subbatches(cells):
        if pack_stats is not None and pack:
            n_max = max(cell.n_bins for _s, cell in pack)
            lanes = sum(len(cell.lane_params) for _s, cell in pack)
            pack_stats["packs"] = pack_stats.get("packs", 0) + 1
            pack_stats["lanes"] = pack_stats.get("lanes", 0) + lanes
            pack_stats["pad_elements"] = (
                pack_stats.get("pad_elements", 0) + lanes * (n_max + 1)
            )
            pack_stats["valid_elements"] = pack_stats.get(
                "valid_elements", 0
            ) + sum(
                len(cell.lane_params) * (cell.n_bins + 1) for _s, cell in pack
            )
        try:
            for slot, cell_result in _eval_fluid_pack(mode, dt, pack).items():
                out[slot] = cell_result
        except Exception as exc:
            for slot, _cell in pack:
                out[slot] = exc
    return out


def simulate_cells(
    key: Optional[tuple],
    realised: Sequence[_Realised],
    pack_stats: Optional[dict] = None,
) -> list[Union[CellResult, Exception]]:
    """Simulate realised cells sharing :func:`group_key` ``key``.

    The one way a realised cell is simulated: the group kernel for a
    group, :func:`repro.scenarios.runner._simulate` per cell for
    ``key is None``.  Returns, per cell in input order, its
    :class:`CellResult` or the exception its simulation raised.
    ``pack_stats``: see :func:`_eval_fluid_group`.
    """
    if key is not None:
        if key[0] == "des":
            return _eval_des_group(key[3], realised)
        return _eval_fluid_group(key[3], key[4], realised, pack_stats)
    out: list[Union[CellResult, Exception]] = []
    for r in realised:
        try:
            out.append(_cell_result(r, *_simulate(r)))
        except Exception as exc:
            out.append(exc)
    return out


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def evaluate_grouped(
    scenarios: Sequence[Scenario],
    *,
    tick: Optional[callable] = None,
    stats: Optional[dict] = None,
    cost_model=None,
) -> list[TaskResult]:
    """Evaluate a matrix with SoA grouping; per-scenario task results.

    The in-process evaluation path of every serial campaign, with the
    contract of ``SerialExecutor.map_tasks(evaluate_cell, ...)``: one
    :class:`TaskResult` per scenario in input order, failures captured
    per cell, bit-identical values.  ``tick(done, total)`` is called as
    cells complete (grouped cells complete per group).

    Every cell is realised once, in one
    :func:`repro.scenarios.tracebatch.realise_batch` pass, and
    simulated through :func:`simulate_cells`: grouped cells by their
    group kernel, the rest (the *fallback* cells, labelled with the
    :func:`group_key` fact that excluded them) one at a time, each with
    its own telemetry record.  Only a cell whose realisation (reason
    ``realise-error``) or simulation raised is re-run through
    :func:`evaluate_cell`, which reproduces the exact error.

    ``cost_model`` (optional,
    :class:`repro.runtime.cost.CellCostModel`) prices the batch's
    realisation cost (``estimate_realise``); the prediction lands in the
    grouping summary record next to the measured batch seconds, so
    realisation-cost calibration is observable in ``scenarios report``.

    ``stats`` (optional, a mutable mapping) receives
    ``stats["records"]``: one mapping per evaluated group
    (``kind == "grouping"``: cells, kernel seconds, lane packing and
    padding waste) plus one ``kind == "grouping_summary"`` mapping
    (grouped vs. fallback cell counts, per-reason fallback tallies, the
    realisation source-cache hit rate, and the batch-realisation tally:
    cells realised, lanes generated, batch seconds vs. the cost model's
    prediction) -- the "no silent caps" ledger of the grouped path.
    """
    scenarios = list(scenarios)
    n = len(scenarios)
    results: list[Optional[TaskResult]] = [None] * n
    groups: dict[tuple, list[tuple]] = {}
    reasons: dict[str, int] = {}
    records: list[dict] = []
    done = 0

    def _fallback(i: int, task: TaskResult, reason: str) -> None:
        nonlocal done
        results[i] = task
        _annotate_fallback(task, reason)
        reasons[reason] = reasons.get(reason, 0) + 1
        done += 1
        if tick is not None:
            tick(done, n)

    def _rerun(i: int, reason: str) -> None:
        _fallback(i, _run_one(evaluate_cell, i, scenarios[i]), reason)

    predicted_realise_s = None
    if cost_model is not None and hasattr(cost_model, "estimate_realise"):
        try:
            predicted_realise_s = float(cost_model.estimate_realise(scenarios))
        except Exception:
            predicted_realise_s = None
    batch_info: dict = {}
    t0 = time.perf_counter()
    try:
        realised, batch_info = realise_batch(scenarios)
    except Exception as exc:
        realised = [exc] * n
    batch_s = time.perf_counter() - t0
    n_realised = sum(not isinstance(r, Exception) for r in realised)
    # The batch pass ran cells batch-wise: amortise its wall time
    # evenly over the cells it realised (the same attribution rule as
    # the group kernels below).
    batch_share = batch_s / max(n_realised, 1)

    for i, r in enumerate(realised):
        if isinstance(r, Exception):
            _rerun(i, "realise-error")
            continue
        tel = begin_cell(scenarios[i].name)
        t0 = time.perf_counter()
        if tel is not None:
            # Batch-realised before this cell's telemetry began: credit
            # the amortised share so the report's phase breakdown still
            # accounts for realisation honestly.
            tel.add_phase("realise", batch_share, offset=0.0)
        key = group_key(r)
        if key is not None:
            end_cell(tel)
            prep = time.perf_counter() - t0 + batch_share
            groups.setdefault(key, []).append((i, r, prep, tel))
            continue
        with span("simulate"):
            (cell,) = simulate_cells(None, [r])
        if isinstance(cell, Exception):
            end_cell(tel)
            _rerun(i, _fallback_reason(r))
            continue
        if cell.primed:
            counter_add("primed_cells")
        end_cell(tel)
        wall = time.perf_counter() - t0 + batch_share
        if tel is not None:
            tel.dur = wall
        _fallback(
            i,
            TaskResult(index=i, value=cell, wall_time=wall, telemetry=tel),
            _fallback_reason(r),
        )

    grouped_cells = 0
    for key, members in groups.items():
        pack_stats: dict = {}
        t0 = time.perf_counter()
        cell_results = simulate_cells(
            key, [m[1] for m in members], pack_stats
        )
        kernel_s = time.perf_counter() - t0
        share = kernel_s / max(len(members), 1)
        kernel_fallbacks = 0
        for (i, _r, prep, tel), cell in zip(members, cell_results):
            if isinstance(cell, Exception):
                _rerun(i, "kernel-error")
                kernel_fallbacks += 1
                continue
            if tel is not None:
                # The kernel ran cells batch-wise: credit each cell its
                # amortised share, anchored at the kernel start so trace
                # slices line up on the timeline.
                tel.add_phase("simulate", share, offset=t0 - tel.t0)
                tel.dur = prep + share
                tel.counters["grouped_cells"] = 1
                if cell.primed:
                    tel.counters["primed_cells"] = 1
            results[i] = TaskResult(
                index=i, value=cell, wall_time=prep + share, telemetry=tel,
            )
            grouped_cells += 1
            done += 1
            if tick is not None:
                tick(done, n)
        rec = {
            "kind": "grouping",
            "backend": key[0],
            "mode": key[3],
            "cells": len(members),
            "kernel_fallbacks": kernel_fallbacks,
            "prep_s": float(sum(m[2] for m in members)),
            "kernel_s": kernel_s,
        }
        if pack_stats:
            rec.update(pack_stats)
            pad = pack_stats.get("pad_elements", 0)
            if pad:
                rec["padding_waste"] = (
                    1.0 - pack_stats.get("valid_elements", 0) / pad
                )
        records.append(rec)

    summary = {
        "kind": "grouping_summary",
        "cells": n,
        "grouped_cells": grouped_cells,
        "fallback_cells": n - grouped_cells,
        "fallback_reasons": dict(sorted(reasons.items())),
        "source_cache_hits": batch_info.get("source_cache_hits", 0),
        "source_cache_misses": batch_info.get("source_cache_misses", 0),
        "batch_realised_cells": n_realised,
        "batch_realise_s": batch_s,
    }
    if batch_info:
        summary["batch_lanes_generated"] = batch_info.get("lanes_generated", 0)
        summary["batch_sigma_lanes"] = batch_info.get("sigma_lanes", 0)
    if predicted_realise_s is not None:
        summary["predicted_realise_s"] = predicted_realise_s
    records.append(summary)
    if stats is not None:
        stats["records"] = records
    return results

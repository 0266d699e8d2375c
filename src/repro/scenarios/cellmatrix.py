"""Structure-of-arrays grouped evaluation of a scenario matrix.

Evaluating cells one at a time makes every cell pay its own kernel
dispatch, regulator passes and curve bookkeeping even when the matrix
holds hundreds of cells that differ only in parameters.  This module
evaluates a *batch of cells* instead, one slice of at most
:data:`SLICE_CELLS` cells at a time, in input order: a slice is
realised, simulated and dropped before the next is realised, so a
matrix's peak memory is one slice's working set plus one small result
per cell.

1. **Batch realisation** -- every cell's traces and envelopes are
   realised once, in flat cross-cell passes over its slice, by
   :func:`repro.scenarios.tracebatch.realise_batch` (the only
   realiser).  A cell it cannot realise is re-run through
   :func:`evaluate_cell`, which reproduces the exact error.
2. **Grouping and dispatch** -- realised cells are keyed by
   ``(backend, discipline, topology, mode shape)``; three group kernels
   exist today: the adversarial fluid host (one group per mode and
   grid resolution), the primed DES host (one group per discipline and
   mode) and the adversarial fluid chain (one group for every fluid
   adversarial chain and tree; a tree is its critical-path chain once
   realised).  :func:`simulate_cells` is the one way a realised cell is
   simulated: a group kernel for a group, :func:`runner._simulate
   <repro.scenarios.runner._simulate>` for each cell outside every
   group.  :func:`evaluate_cell` is a batch of one through the same
   realiser and dispatch, so a cell whose realisation or simulation
   raises is re-run through it: its error (traceback included) is the
   one a cell evaluated on its own records, and a failing cell fails
   only its own verdict.
3. **Packed evaluation** -- each fluid host group packs its unique
   (trace, envelope) lanes into padded ``(n_lanes, n_bins_max + 1)``
   matrices and shapes them with the fluid kernels of
   :mod:`repro.simulation.fluid`, one vectorised pass per pack.  Packs
   are capped at :data:`MAX_PACK_ELEMENTS`, and a cell's arrivals are
   binned only when its pack is built and dropped once the pack is
   measured, so a group holds the rows and matrices of one pack at a
   time, however many cells it has.  A DES group runs
   :func:`repro.simulation.batched.primed_host` per cell with the
   regulator pass deduplicated across flows sharing a trace.
   The chain group is not packed: its cost is elementwise work over a
   grid that is mostly drain tail, so each cell runs
   :func:`repro.simulation.fluid.adversarial_chain_delays`, which
   simulates only the grid prefix up to where every hop is quiet.

Equivalence contract: grouped evaluation is throughput-only.  Every
``CellResult`` field must equal the per-cell reference (the scalar
simulators on a per-cell realisation, ``tests/reference.py``) bit for
bit -- the shared-grid prefix property of the fluid kernels, the
exact-selection property of float min/max and the float-op-for-float-op
lean sigma replica are what make that hold;
``tests/test_scenarios_cellmatrix.py`` enforces it over the corpus and
generated matrices.  Only the ``wall_time`` attribution differs: batch
realisation time is amortised evenly over the realised cells, and so is
a fluid host pack's kernel time; the chain and DES groups run their
members one at a time, and each member is credited its own time.
"""

from __future__ import annotations

import functools
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
from repro.simulation.batched import PRIMED_MODES, primed_host
from repro.simulation.fluid import (
    _adversarial_worst,
    _default_drain_margin,
    _trace_cum,
    _window_params,
    adversarial_chain_delays,
    chain_worst_case,
    fluid_next_empty,
    fluid_on_time,
    fluid_token_bucket,
    fluid_work_conserving,
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
#: of the batch it rides in.  The cap bounds a fluid host group's peak
#: memory: beside the realised traces, a group holds one pack's binned
#: rows, its matrix and a few matrix-sized kernel temporaries.  Chosen
#: when a serial campaign still realised its whole matrix at once: at
#: 1M elements (8 MB a matrix) the 16,384 hosts of the ``realise_bound``
#: benchmark campaign (then 7 packs) peaked at 220 MB RSS, against
#: 283 MB at 2M and 408 MB at 4M, with no trend in wall time across
#: the caps (single runs, 2-vCPU host).  A group now spans one
#: :data:`SLICE_CELLS` slice, whose 256 hosts fit in one pack.
MAX_PACK_ELEMENTS = 1_000_000

#: Cells :func:`evaluate_grouped` realises and simulates at a time, and
#: :func:`repro.runtime.campaign.commit_outcomes` commits at a time.
#: A serial campaign's peak memory is one slice's realised traces, lane
#: plans, packs and store lines plus one small result per cell; pool
#: chunks and leases (at most 16 cells) are one slice.  Slicing is
#: invisible to results.  On the 16,384 hosts of ``realise_bound``
#: (single in-process campaigns, 2-vCPU host) slices of 16,384, 4096,
#: 1024, 512 and 256 cells peaked at 220, 201, 158, 152 and 152 MB
#: RSS, in 3.9-4.3 s with no trend; ``thousand`` peaked at 168 MB
#: whole and 138 MB in slices of 256.
SLICE_CELLS = 256

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
    and (fluid hosts) the grid resolution.  Capacities, envelopes,
    horizons and flow counts may vary freely -- they are
    per-lane/per-cell parameters of the kernels.  The chain group runs
    cell by cell, so its key is the topology alone; fluid trees join
    it as their critical-path chains.
    """
    sc = r.scenario
    if r.eff_backend == "fluid":
        if sc.discipline != "adversarial":
            return None
        if sc.topology == "host":
            return ("fluid", "adversarial", "host", r.eff_mode, sc.dt)
        return ("fluid", "adversarial", "chain")
    if sc.topology != "host":
        return None
    if r.eff_backend == "des" and r.eff_mode in PRIMED_MODES:
        return ("des", sc.discipline, "host", r.eff_mode)
    return None


def _fallback_reason(r: _Realised) -> str:
    """Why :func:`group_key` rejected a realised cell (telemetry label).

    Mirrors the rejection order of :func:`group_key` so the label names
    the *first* disqualifying fact -- the "no silent caps" counters in
    the grouping summary aggregate these per reason.
    """
    sc = r.scenario
    if r.eff_backend == "fluid":
        return f"discipline:{sc.discipline}"
    if sc.topology != "host":
        return f"topology:{sc.topology}"
    if r.eff_backend == "des":
        return f"mode:{r.eff_mode}"
    return f"backend:{r.eff_backend}"


def _annotate_fallback(task: TaskResult, reason: str) -> None:
    """Stamp a per-cell fallback reason onto a ``_run_one`` result."""
    if task.telemetry is not None:
        task.telemetry.extra["fallback_reason"] = reason
        task.telemetry.counters["fallback_cells"] = 1


# ----------------------------------------------------------------------
# DES group: primed hosts
# ----------------------------------------------------------------------
def _des_cell(discipline: str, mode: str, r: _Realised) -> CellResult:
    """Evaluate one member of a primed-DES group."""
    sc = r.scenario
    traces = r.traces
    # Same derivation (and the same all-empty ValueError) as
    # simulate_regulated_host; the horizon always exceeds every
    # emission, so its restrict() is the identity value-wise.
    max(tr.times[-1] + 1e-9 for tr in traces if len(tr))
    dedupe = mode in ("sigma-rho", "none")
    keys = (
        [(id(tr), e.sigma, e.rho) for tr, e in zip(traces, r.envelopes)]
        if dedupe
        else None
    )
    host = primed_host(
        [(tr.times, tr.sizes) for tr in traces],
        r.envelopes,
        mode,
        discipline=discipline,
        capacity=sc.capacity,
        stagger_phase=sc.stagger_phase,
        dep_cache={} if dedupe else None,
        cache_keys=keys,
    )
    worst = max(
        (float(d.max()) for d in host.per_flow_delays if d.size),
        default=0.0,
    )
    return _cell_result(r, worst, host.batch_events, 0, True)


# ----------------------------------------------------------------------
# Fluid group: adversarial fluid hosts
# ----------------------------------------------------------------------
class _FluidCell:
    """One fluid cell's packed-evaluation state.

    Every member of a group is prepared before the group is split into
    packs, so this holds only the cell's lane plan and the traces its
    lanes bin.  The binned arrival rows (``arr_rows``) are filled when
    the cell's pack is built and dropped once it is measured: a group
    holds the rows of one pack at a time.
    """

    __slots__ = (
        "realised", "n_bins", "horizon", "total", "lane_traces",
        "arr_rows", "arr_of_flow", "lane_params", "measure_key",
    )

    def __init__(self, realised, n_bins, horizon, total, lane_traces,
                 arr_of_flow, lane_params, measure_key):
        self.realised = realised
        self.n_bins = n_bins
        #: Injection cut and grid span (s) the arrival rows are binned on.
        self.horizon = horizon
        self.total = total
        #: The unique traces, one per arrival row.
        self.lane_traces = lane_traces
        #: Unique cumulative-arrival rows (``None`` outside the pack).
        self.arr_rows = None
        #: Flow index -> lane index into ``arr_rows``.
        self.arr_of_flow = arr_of_flow
        #: Per-lane shaper parameters (mode-dependent).
        self.lane_params = lane_params
        #: Flow index -> measurement-dedupe key (``None``: no sharing).
        self.measure_key = measure_key

    def bin(self, dt: float) -> None:
        """Fill ``arr_rows`` (see :func:`repro.simulation.fluid._trace_cum`)."""
        self.arr_rows = [
            _trace_cum(tr, self.horizon, dt, self.total)
            for tr in self.lane_traces
        ]


def _prep_fluid_cell(r: _Realised, mode: str, dt: float) -> _FluidCell:
    """Plan one fluid cell's lanes.

    Mirrors ``simulate_fluid_host`` head for head: horizon and drain
    margin derivation, the stagger plan and its offsets (the binned
    cumulative arrivals follow in :meth:`_FluidCell.bin`).  Every
    predicate a scalar kernel would raise on (``fluid_on_time`` window
    validation, the stagger-plan tiling check) is evaluated here, so
    exactly the cells the scalar simulator rejects raise.
    """
    sc = r.scenario
    traces, envelopes = r.traces, r.envelopes
    horizon = max(float(tr.times[-1]) for tr in traces if len(tr)) + dt
    total = horizon + _default_drain_margin(envelopes, sc.capacity)
    n_bins = int(np.ceil(total / dt))

    lane_traces: list = []
    arr_of_flow: list[int] = []
    lane_of: dict[tuple, int] = {}
    for tr in traces:
        key = (id(tr),)
        lane = lane_of.get(key)
        if lane is None:
            lane = len(lane_traces)
            lane_of[key] = lane
            lane_traces.append(tr)
        arr_of_flow.append(lane)

    k = len(traces)
    if mode == "none":
        # Shaping is the identity; one lane per unique arrival row.
        lane_params = [()] * len(lane_traces)
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
            # fluid_on_time's own validation, pre-flighted per lane.
            lane_params.append((arr_of_flow[f], *_window_params(
                reg.working_period, reg.regulator_period, base + off
            )))
        shape_of_flow = list(range(k))
        measure_key = [None] * k
    return _FluidCell(
        r, n_bins, horizon, total, lane_traces,
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
    """Shape + measure one packed sub-batch of binned fluid cells."""
    n_max = max(cell.n_bins for _slot, cell in pack)
    t_grid = dt * np.arange(n_max + 1)
    packed = np.empty(
        (sum(len(cell.lane_params) for _slot, cell in pack), n_max + 1)
    )
    lane_base: dict[int, int] = {}
    sigmas, rhos = [], []
    workings, periods, offsets, caps = [], [], [], []
    lane = 0
    for slot, cell in pack:
        lane_base[slot] = lane
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
            packed[lane, :width] = row
            packed[lane, width:] = row[-1]
            lane += 1

    if mode == "none" or packed.shape[0] == 0:
        shaped = packed
    elif mode == "sigma-rho":
        shaped = fluid_token_bucket(
            packed, t_grid, np.asarray(sigmas), np.asarray(rhos)
        )
    else:
        on = fluid_on_time(
            t_grid,
            np.asarray(workings),
            np.asarray(periods),
            np.asarray(offsets),
        )
        shaped = fluid_work_conserving(packed, np.asarray(caps)[:, None] * on)

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
    next_empty = fluid_next_empty(t_grid, agg_pad, cell_caps, n_valid=n_valid)

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
    cell.  A cell whose lane plan or binning raises gets its own
    exception; every other member of a pack whose kernels raise gets
    the pack's exception.

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
        binned: list[tuple[int, _FluidCell]] = []
        for slot, cell in pack:
            try:
                cell.bin(dt)
            except Exception as exc:
                out[slot] = exc
                continue
            binned.append((slot, cell))
        try:
            if binned:
                for slot, res in _eval_fluid_pack(mode, dt, binned).items():
                    out[slot] = res
        except Exception as exc:
            for slot, _cell in binned:
                out[slot] = exc
        finally:
            for _slot, cell in binned:
                cell.arr_rows = None
    return out


# ----------------------------------------------------------------------
# Chain group: adversarial fluid chains and trees
# ----------------------------------------------------------------------
def _fluid_chain_cell(
    r: _Realised, cut_stats: Optional[dict] = None
) -> CellResult:
    """Evaluate one member of the chain group.

    The arguments and the Theorem-7 total are those
    :func:`repro.scenarios.runner._simulate` gives
    :func:`repro.simulation.fluid.simulate_fluid_chain`, so the values
    are that reference's.  ``cut_stats`` (optional, a mutable mapping)
    accumulates the kernel's grid-cut telemetry: ``sim_bins``,
    ``grid_bins`` and ``cut_attempts``.
    """
    sc = r.scenario
    propagation = list(r.propagation)
    per_hop = adversarial_chain_delays(
        r.traces[0],
        [list(r.traces[1:])] * r.hops,
        r.envelopes,
        mode=r.eff_mode,
        capacity=sc.capacity,
        stagger_phase=sc.stagger_phase,
        propagation=propagation,
        dt=sc.dt,
        stats=cut_stats,
    )
    return _cell_result(r, chain_worst_case(per_hop, propagation), 0, 0, False)


def _simulated_cell(r: _Realised) -> CellResult:
    """Evaluate one cell outside every group."""
    return _cell_result(r, *_simulate(r))


def simulate_cells(
    key: Optional[tuple],
    realised: Sequence[_Realised],
    pack_stats: Optional[dict] = None,
    marks: Optional[list] = None,
) -> list[Union[CellResult, Exception]]:
    """Simulate realised cells sharing :func:`group_key` ``key``.

    The one way a realised cell is simulated: the group kernel for a
    group, :func:`repro.scenarios.runner._simulate` per cell for
    ``key is None``.  Returns, per cell in input order, its
    :class:`CellResult` or the exception its simulation raised.
    ``pack_stats``: see :func:`_eval_fluid_group` and
    :func:`_fluid_chain_cell`.

    Every kernel but the fluid host pack runs its cells one at a time;
    those append ``time.perf_counter()`` to ``marks`` (optional) as each
    cell ends, so callers can time each member on its own.  A fluid
    host pack appends nothing: its members share one kernel pass.
    """
    if key is None:
        one = _simulated_cell
    elif key[0] == "des":
        one = functools.partial(_des_cell, key[1], key[3])
    elif key[2] == "chain":
        one = functools.partial(_fluid_chain_cell, cut_stats=pack_stats)
    else:
        return _eval_fluid_group(key[3], key[4], realised, pack_stats)
    out: list[Union[CellResult, Exception]] = []
    for r in realised:
        try:
            out.append(one(r))
        except Exception as exc:
            out.append(exc)
        if marks is not None:
            marks.append(time.perf_counter())
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

    The grouped half of the worker stage
    (:func:`repro.scenarios.runner.evaluate_batch`), which runs every
    clean first attempt through it: a serial campaign's matrix, a pool
    worker's chunk, a lease.  Its contract is that of
    ``run_each(evaluate_cell, ...)``: one :class:`TaskResult` per
    scenario in input order, failures captured per cell, bit-identical
    values.  ``tick(done, total)`` is called as cells complete (grouped
    cells complete per group).

    The matrix is evaluated in consecutive slices of at most
    :data:`SLICE_CELLS` cells, in input order.  Each slice is realised
    in one :func:`repro.scenarios.tracebatch.realise_batch` pass and
    simulated through :func:`simulate_cells`: grouped cells by their
    group kernel, the rest (the *fallback* cells, labelled with the
    :func:`group_key` fact that excluded them) one at a time, each with
    its own telemetry record.  Its realised cells, lane plans and packs
    are dropped before the next slice is realised.  Only a cell whose
    realisation (reason ``realise-error``) or simulation raised is
    re-run through :func:`evaluate_cell`, which reproduces the exact
    error.

    ``cost_model`` (optional,
    :class:`repro.runtime.cost.CellCostModel`) prices the batch's
    realisation cost (``estimate_realise``); the prediction lands in the
    grouping summary record next to the measured batch seconds, so
    realisation-cost calibration is observable in ``scenarios report``.

    ``stats`` (optional, a mutable mapping) receives
    ``stats["records"]``: one mapping per group key
    (``kind == "grouping"``: backend, topology, mode, cells, kernel
    seconds, and lane packing and padding waste for fluid host packs
    or grid-cut bins and attempts for the chain group) plus one
    ``kind == "grouping_summary"`` mapping
    (grouped vs. fallback cell counts, per-reason fallback tallies, the
    realisation source-cache hit rate, and the batch-realisation tally:
    cells realised, lanes generated, batch seconds vs. the cost model's
    prediction) -- the "no silent caps" ledger of the grouped path.
    Every count, second, pack and bin field is summed over the slices
    (``padding_waste`` is that of the sums), so the records describe
    the whole call however many slices it took.
    """
    scenarios = list(scenarios)
    n = len(scenarios)
    results: list[Optional[TaskResult]] = [None] * n
    #: One ``grouping`` record per group key, in first-seen order.
    grouping: dict[tuple, dict] = {}
    reasons: dict[str, int] = {}
    #: ``realise_batch``'s info, summed over the slices it returned.
    batch_info: dict[str, int] = {}
    done = grouped_cells = n_realised = 0
    batch_s = 0.0

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

    def _slice(lo: int, hi: int) -> None:
        """Realise and simulate ``scenarios[lo:hi]``; its realised cells
        die with this call."""
        nonlocal done, grouped_cells, n_realised, batch_s
        part = scenarios[lo:hi]
        t0 = time.perf_counter()
        try:
            realised, info = realise_batch(part)
        except Exception as exc:
            realised, info = [exc] * len(part), {}
        slice_s = time.perf_counter() - t0
        for name, count in info.items():
            batch_info[name] = batch_info.get(name, 0) + count
        slice_realised = sum(not isinstance(r, Exception) for r in realised)
        n_realised += slice_realised
        batch_s += slice_s
        # The batch pass ran the slice batch-wise: amortise its wall
        # time evenly over the cells it realised (the same attribution
        # rule as the group kernels below).
        batch_share = slice_s / max(slice_realised, 1)

        groups: dict[tuple, list[tuple]] = {}
        for i, r in enumerate(realised, start=lo):
            if isinstance(r, Exception):
                _rerun(i, "realise-error")
                continue
            tel = begin_cell(scenarios[i].name)
            t0 = time.perf_counter()
            if tel is not None:
                # Batch-realised before this cell's telemetry began:
                # credit the amortised share so the report's phase
                # breakdown still accounts for realisation honestly.
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

        for key, members in groups.items():
            pack_stats: dict = {}
            marks: list[float] = []
            t0 = time.perf_counter()
            cell_results = simulate_cells(
                key, [m[1] for m in members], pack_stats, marks
            )
            t_end = time.perf_counter()
            kernel_s = t_end - t0
            if marks:
                # The kernel ran its members one at a time: credit each
                # the time up to its own end mark (the last one also the
                # return), so the shares sum to kernel_s.
                starts = [t0, *marks[:-1]]
                ends = [*marks[:-1], t_end]
                shares = [b - a for a, b in zip(starts, ends)]
            else:
                # A packed kernel ran its members batch-wise: credit
                # each the amortised share, anchored at the kernel start
                # so trace slices line up on the timeline.
                starts = [t0] * len(members)
                shares = [kernel_s / max(len(members), 1)] * len(members)
            kernel_fallbacks = 0
            for (i, _r, prep, tel), cell, start, share in zip(
                members, cell_results, starts, shares
            ):
                if isinstance(cell, Exception):
                    _rerun(i, "kernel-error")
                    kernel_fallbacks += 1
                    continue
                if tel is not None:
                    tel.add_phase("simulate", share, offset=start - tel.t0)
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
            rec = grouping.setdefault(key, {
                "kind": "grouping",
                "backend": key[0],
                "topology": key[2],
                # The chain group spans every mode.
                "mode": key[3] if len(key) > 3 else "mixed",
                "cells": 0,
                "kernel_fallbacks": 0,
                "prep_s": 0.0,
                "kernel_s": 0.0,
            })
            rec["cells"] += len(members)
            rec["kernel_fallbacks"] += kernel_fallbacks
            rec["prep_s"] += float(sum(m[2] for m in members))
            rec["kernel_s"] += kernel_s
            for name, value in pack_stats.items():
                rec[name] = rec.get(name, 0) + value

    predicted_realise_s = None
    if cost_model is not None and hasattr(cost_model, "estimate_realise"):
        try:
            predicted_realise_s = float(cost_model.estimate_realise(scenarios))
        except Exception:
            predicted_realise_s = None
    for lo in range(0, n, SLICE_CELLS):
        _slice(lo, lo + SLICE_CELLS)

    if stats is not None:
        for rec in grouping.values():
            pad = rec.get("pad_elements", 0)
            if pad:
                rec["padding_waste"] = 1.0 - rec.get("valid_elements", 0) / pad
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
            summary["batch_lanes_generated"] = batch_info.get(
                "lanes_generated", 0
            )
            summary["batch_sigma_lanes"] = batch_info.get("sigma_lanes", 0)
        if predicted_realise_s is not None:
            summary["predicted_realise_s"] = predicted_realise_s
        stats["records"] = [*grouping.values(), summary]
    return results

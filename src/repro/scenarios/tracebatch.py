"""Batched cross-cell trace synthesis: the one realiser.

Every cell is realised here -- the grouped evaluator
(:mod:`repro.scenarios.cellmatrix`) passes the whole matrix, a worker
passes a batch of one.  What per-cell realisation pays in Python (seed
derivation, one ``TrafficSource.generate`` call per lane, one
empirical-sigma measurement per unique trace, envelope/fragmentation
object churn) this module pays once per batch, in flat passes:

* **Lane planning** replicates ``TrafficMix.generate_traces`` (no MTU)
  exactly -- the ``derive_seed(rng, "trace", name, ...)`` stream per
  generated lane, the per-cell shared-trace cache keyed
  ``(kind, round(rate, 12))`` -- while building each
  ``(kinds, utilization, capacity)`` source list once per batch and
  splitting the lanes by source kind.
* **Deterministic kinds** (cbr, the audio frame grid) ride shared
  arrays: one ``arange`` per unique ``(phase, interval, horizon)``
  serves every lane, and cbr lanes sharing ``(grid, packet_size)``
  share one :class:`~repro.simulation.flow.PacketTrace` object outright
  -- downstream ``id()``-keyed memoisation (fragmentation, sigma) then
  dedupes across *cells*, not just flows.
* **Stochastic kinds** (poisson, onoff, audio sizes, video) keep their
  per-lane RNG draws bit-identical -- each lane still consumes its own
  ``derive_seed`` stream -- with the surrounding object churn hoisted
  out of the loop (audio draws sizes straight onto the shared grid).
* **Batched measurement**: empirical sigmas are computed over packed
  padded matrices by :func:`batch_empirical_sigma`, the batch extension
  of :func:`_empirical_sigma_fast`, deduped by ``(trace, rho)`` across
  the whole batch.

The tail of every cell (backend fallback, fragmentation, topology
resolution) goes through :func:`repro.scenarios.runner._realise_from`.
A cell whose realisation raises comes back as the exception it raised,
so one bad cell never fails its batch-mates.  Equivalence contract:
every trace, envelope and ``_Realised`` field matches the per-cell
reference realiser in ``tests/reference.py`` bit for bit
(``tests/test_tracebatch.py`` enforces it over generated scenarios).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.calculus.envelope import ArrivalEnvelope
from repro.scenarios.runner import _Realised, _realise_from
from repro.scenarios.spec import Scenario
from repro.simulation.flow import AudioSource, CBRSource, trace_from_arrays
from repro.utils.rng import derive_seed

__all__ = [
    "batch_empirical_sigma",
    "realise_batch",
]

#: Ceiling on one packed sigma sub-batch, in float64 elements per
#: matrix (lanes x padded trace length).  Mirrors the fluid pack cap:
#: splitting is invisible to results (each row's prefix is independent
#: of the batch it rides in), it only bounds peak memory.
MAX_SIGMA_PACK_ELEMENTS = 2_000_000

#: Ceiling on padding waste within one sigma pack: a lane more than
#: this factor longer than the pack's shortest starts a new pack
#: (lanes are sorted by length first, so waste per pack is bounded).
MAX_SIGMA_PACK_RATIO = 1.5


# ----------------------------------------------------------------------
# Empirical sigma: scalar kernel + batch extension
# ----------------------------------------------------------------------
def _empirical_sigma_fast(
    times: np.ndarray, sizes: np.ndarray, rho: float
) -> float:
    """``PacketTrace.empirical_sigma`` without building the curve.

    Restates ``PiecewiseLinearCurve.from_packet_arrivals(t, s)
    .min_sigma(rho)`` on flat arrays.  Bit-identical: the staircase
    interleaves a pre-jump and post-jump value at every unique time;
    ``g_post[i] >= g_pre[i]`` and ``g_pre[i+1] <= g_post[i]`` make the
    interleaved running minimum equal the running minimum over the
    pre-jump values alone, and the supremum is attained at post-jump
    positions -- float min/max select existing values, so dropping the
    dominated positions changes no bits.
    """
    if times.shape[0] == 0:
        return 0.0
    uniq_t, inverse = np.unique(times, return_inverse=True)
    jump = np.zeros(uniq_t.shape[0], dtype=np.float64)
    np.add.at(jump, inverse, sizes)
    cum = np.cumsum(jump)
    ramp = rho * uniq_t
    g_pre = np.concatenate(([0.0], cum[:-1])) - ramp
    g_post = cum - ramp
    run_min = np.minimum.accumulate(g_pre)
    return float(max((g_post - run_min).max(), 0.0))


def _sigma_packs(order: list[int], lengths: list[int]) -> list[list[int]]:
    """Split sorted lane indices into packs bounded by the element cap."""
    packs: list[list[int]] = []
    cur: list[int] = []
    for i in order:
        width = lengths[i]  # sorted ascending: this is the pack max
        if cur and (
            (len(cur) + 1) * width > MAX_SIGMA_PACK_ELEMENTS
            or width > MAX_SIGMA_PACK_RATIO * lengths[cur[0]]
        ):
            packs.append(cur)
            cur = []
        cur.append(i)
    if cur:
        packs.append(cur)
    return packs


def batch_empirical_sigma(
    lanes: Sequence[tuple[np.ndarray, np.ndarray, float]]
) -> np.ndarray:
    """:func:`_empirical_sigma_fast` over many lanes in padded matrices.

    ``lanes`` is a sequence of ``(times, sizes, rho)``.  Lanes with
    strictly increasing times -- every generator grid, and (almost
    surely) every stochastic trace -- take the matrix path: for them
    ``np.unique`` is the identity and the jump accumulation reduces to
    the sizes themselves, so the row-wise ``cumsum`` / running-minimum
    / masked row-max replays the scalar kernel's float sequence exactly
    (time rows pad with the last time, size rows pad with ``0.0`` --
    ``x + 0.0`` preserves every bit -- and padded columns are masked to
    ``-inf`` before the max, which is exact selection).  Empty or
    duplicate-timestamp lanes route through the scalar kernel; either
    way ``out[i]`` equals ``_empirical_sigma_fast(*lanes[i])`` bit for
    bit.
    """
    n = len(lanes)
    out = np.empty(n, dtype=np.float64)
    batchable: list[int] = []
    lengths = [0] * n
    for i, (t, s, rho) in enumerate(lanes):
        lengths[i] = int(t.shape[0])
        if t.shape[0] >= 1 and (
            t.shape[0] == 1 or bool(np.all(np.diff(t) > 0))
        ):
            batchable.append(i)
        else:
            out[i] = _empirical_sigma_fast(t, s, rho)
    batchable.sort(key=lambda i: lengths[i])
    for pack in _sigma_packs(batchable, lengths):
        if len(pack) == 1:
            i = pack[0]
            out[i] = _empirical_sigma_fast(*lanes[i])
            continue
        rows = len(pack)
        width = lengths[pack[-1]]
        t_mat = np.empty((rows, width), dtype=np.float64)
        s_mat = np.zeros((rows, width), dtype=np.float64)
        rhos = np.empty((rows, 1), dtype=np.float64)
        valid = np.empty(rows, dtype=np.int64)
        for r, i in enumerate(pack):
            t, s, rho = lanes[i]
            m = lengths[i]
            t_mat[r, :m] = t
            t_mat[r, m:] = t[m - 1]
            s_mat[r, :m] = s
            rhos[r, 0] = rho
            valid[r] = m
        cum = np.cumsum(s_mat, axis=1)
        ramp = rhos * t_mat
        g_pre = np.empty_like(cum)
        g_pre[:, :1] = 0.0
        g_pre[:, 1:] = cum[:, :-1]
        g_pre -= ramp
        g_post = cum - ramp
        diff = g_post - np.minimum.accumulate(g_pre, axis=1)
        diff[np.arange(width) >= valid[:, None]] = -np.inf
        out[pack] = np.maximum(diff.max(axis=1), 0.0)
    return out


# ----------------------------------------------------------------------
# Batched realisation
# ----------------------------------------------------------------------
class _CellPlan:
    """One cell's lane plan (trace slots + pending generation jobs)."""

    __slots__ = ("scenario", "sources", "slots", "traces")

    def __init__(self, scenario, sources, slots):
        self.scenario = scenario
        self.sources = sources
        #: Flow index -> index of the flow whose trace it reuses
        #: (the per-cell shared-trace cache, resolved to slots).
        self.slots = slots
        #: Generated traces, indexed by owning flow.
        self.traces: dict[int, object] = {}


def realise_batch(
    scenarios: Sequence[Scenario],
) -> tuple[list[Union[_Realised, Exception]], dict]:
    """Realise a batch of cells in flat passes.

    Returns ``(realised, info)`` with one entry per scenario in input
    order -- its ``_Realised``, or the exception its planning,
    generation or tail raised (one bad cell never fails its
    batch-mates) -- and an ``info`` mapping carrying the source-cache
    hit/miss tally plus lane counters for the grouping telemetry.
    """
    n = len(scenarios)
    results: list[Union[_Realised, Exception, None]] = [None] * n
    plans: list[Optional[_CellPlan]] = [None] * n
    source_cache: dict[tuple, list] = {}
    fragment_cache: dict = {}
    by_kind: dict[str, list[tuple[int, int, object, int, float]]] = {}
    info = {
        "source_cache_hits": 0,
        "source_cache_misses": 0,
        "lanes_generated": 0,
        "sigma_lanes": 0,
    }

    # -- pass 1: plan lanes (exact per-cell cache/seed semantics) -------
    for ci, sc in enumerate(scenarios):
        try:
            skey = (tuple(sc.kinds), sc.utilization, sc.capacity)
            sources = source_cache.get(skey)
            if sources is None:
                sources = sc.mix().sources
                source_cache[skey] = sources
                info["source_cache_misses"] += 1
            else:
                info["source_cache_hits"] += 1
            rng = None
            cache: dict[tuple[str, float], int] = {}
            slots: list[int] = []
            for g, (src, kind) in enumerate(zip(sources, sc.kinds)):
                key = (kind, round(src.rate, 12))
                if sc.shared and key in cache:
                    slots.append(cache[key])
                    continue
                if type(src) is CBRSource:
                    # cbr generation never consumes its seed, and
                    # derive_seed is stateless (pure FNV over the int
                    # chain), so skipping the derivation is invisible
                    # to every other lane's stream.
                    seed = 0
                else:
                    if rng is None:
                        rng = derive_seed(sc.seed, "scenario", sc.name)
                    seed = derive_seed(
                        rng, "trace", sc.name, kind if sc.shared else g
                    )
                cache[key] = g
                slots.append(g)
                by_kind.setdefault(kind, []).append(
                    (ci, g, src, seed, sc.horizon)
                )
                info["lanes_generated"] += 1
            plans[ci] = _CellPlan(sc, sources, slots)
        except Exception as exc:
            results[ci] = exc

    # -- pass 2: generate, kind by kind ---------------------------------
    # Shared deterministic grids: one arange per unique (spec, horizon);
    # cbr lanes sharing (grid, packet_size) share the whole trace object
    # so id()-keyed memoisation downstream dedupes across cells.
    grid_cache: dict[tuple, np.ndarray] = {}
    cbr_trace_cache: dict[tuple, object] = {}
    for kind, jobs in by_kind.items():
        for ci, g, src, seed, horizon in jobs:
            plan = plans[ci]
            if plan is None:
                continue
            try:
                if type(src) is CBRSource:
                    gkey = ("cbr", src.phase, src.packet_size / src.rate,
                            horizon)
                    times = grid_cache.get(gkey)
                    if times is None:
                        times = src.time_grid(horizon)
                        grid_cache[gkey] = times
                    tkey = (id(times), src.packet_size)
                    trace = cbr_trace_cache.get(tkey)
                    if trace is None:
                        trace = src.trace_on_grid(times)
                        cbr_trace_cache[tkey] = trace
                elif type(src) is AudioSource:
                    gkey = ("audio", src.frame_interval, horizon)
                    times = grid_cache.get(gkey)
                    if times is None:
                        times = src.time_grid(horizon)
                        grid_cache[gkey] = times
                    trace = src.trace_on_grid(times, seed)
                else:
                    trace = src.generate(horizon, rng=seed)
                plan.traces[g] = trace
            except Exception as exc:
                results[ci] = exc
                plans[ci] = None

    # -- pass 3: offsets, batched sigma, per-cell tail ------------------
    sigma_lane_of: dict[tuple, int] = {}
    sigma_pins: list[object] = []  # keep id()-keyed traces alive
    sigma_lanes: list[tuple[np.ndarray, np.ndarray, float]] = []
    cell_lane_refs: list[Optional[tuple[list, list]]] = [None] * n
    for ci, plan in enumerate(plans):
        if plan is None:
            continue
        sc = plan.scenario
        try:
            traces = [plan.traces[slot] for slot in plan.slots]
            if sc.start_offsets:
                traces = [
                    trace_from_arrays(tr.times + off, tr.sizes)
                    if off > 0
                    else tr
                    for tr, off in zip(traces, sc.start_offsets)
                ]
            flow_lane: list[int] = []
            for tr, src in zip(traces, plan.sources):
                ek = (id(tr), src.rate)
                lane = sigma_lane_of.get(ek)
                if lane is None:
                    lane = len(sigma_lanes)
                    sigma_lane_of[ek] = lane
                    sigma_pins.append(tr)
                    sigma_lanes.append((tr.times, tr.sizes, src.rate))
                flow_lane.append(lane)
            cell_lane_refs[ci] = (traces, flow_lane)
        except Exception as exc:
            results[ci] = exc

    info["sigma_lanes"] = len(sigma_lanes)
    sigmas = (
        batch_empirical_sigma(sigma_lanes)
        if sigma_lanes
        else np.empty(0, dtype=np.float64)
    )
    env_of_lane: dict[tuple[int, float], ArrivalEnvelope] = {}

    for ci, plan in enumerate(plans):
        if plan is None or cell_lane_refs[ci] is None:
            continue
        sc = plan.scenario
        traces, flow_lane = cell_lane_refs[ci]
        try:
            envelopes = []
            for lane, src in zip(flow_lane, plan.sources):
                env = env_of_lane.get((lane, src.rate))
                if env is None:
                    env = ArrivalEnvelope(
                        max(float(sigmas[lane]), 1e-9), src.rate
                    )
                    env_of_lane[(lane, src.rate)] = env
                envelopes.append(env)
            results[ci] = _realise_from(sc, traces, envelopes, fragment_cache)
        except Exception as exc:
            results[ci] = exc
    return results, info

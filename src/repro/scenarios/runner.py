"""The batched analytic-vs-simulation cross-validation runner.

:func:`run_batch` is the engine behind ``scenarios run`` and the
``tests/test_scenarios_*`` matrix.  It is split into three stages so
campaigns parallelise over :mod:`repro.runtime`'s process pool and
lease workers:

1. **evaluate (worker side, picklable)** -- :func:`evaluate_batch`
   turns a batch of :class:`Scenario` specs (pure primitives) -- a
   serial campaign's matrix, a pool worker's chunk or a lease -- into
   one :class:`CellResult` of primitives per cell.
   :func:`repro.scenarios.tracebatch.realise_batch` realises the cells
   (traces generated, empirical envelopes measured, adaptive mode
   resolved, tree topologies built), and the one simulation dispatch
   (:func:`repro.scenarios.cellmatrix.simulate_cells`) runs a group
   kernel for groupable cells and :func:`_simulate` on the requested
   backend (vectorised fluid engine, packet DES on the critical-path
   reduction, or whole-tree packet DES) for the rest.  Both ends of
   the exchange pickle cheaply; heavyweight intermediates (traces,
   trees, simulators) never cross the process boundary.
2. **analytic (parent side, vectorised)** -- Theorem 1/2 per hop,
   scaled by the Theorem 7 / Remark 2 hop count, plus propagation, is
   evaluated for the whole batch in one NumPy pass
   (:func:`repro.scenarios.analytic.batch_bounds`) over the envelope
   parameters the workers measured.
3. **verdict (parent side)** -- each cell gets a soundness verdict
   ``measured <= bound + eps`` where ``eps`` covers the backend's
   quantisation (O(dt) per hop for the fluid grid, packet/window
   granularity for the DES).  A worker exception becomes an *error
   outcome* (``sound == False``) for that cell alone; cells may also
   carry a wall-clock ``perf_budget`` whose violation is reported
   separately from soundness.

A soundness violation is never tolerance-tuned away: the verdict line
is the repo's central regression net, and any `sound=False` cell is a
bug in either the theorems' implementation or a simulator.

Determinism contract: every random draw inside :func:`evaluate_batch`
derives from ``scenario.seed`` via :func:`repro.utils.rng.derive_seed`,
so serial and parallel executions of the same matrix produce
bit-identical traces, measurements and verdicts regardless of worker
count, chunking or completion order.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.calculus.envelope import ArrivalEnvelope
from repro.core.adaptive import AdaptiveController
from repro.core.delay_bounds import theorem1_wdb_heterogeneous
from repro.core.multicast_bounds import dsct_height_bound
from repro.overlay.groups import MultiGroupNetwork
from repro.runtime import faults
from repro.runtime.executor import (
    ProcessExecutor,
    RetryPolicy,
    TaskResult,
    _error_head,
    run_each,
    run_one_with_retry,
)
from repro.runtime.telemetry import (
    CellTelemetry,
    counter_add,
    enabled as telemetry_enabled,
    span,
)
from repro.scenarios.analytic import batch_bounds
from repro.scenarios.spec import Scenario
from repro.simulation.chain import simulate_regulated_chain
from repro.simulation.flow import PacketTrace
from repro.simulation.fluid import simulate_fluid_chain, simulate_fluid_host
from repro.simulation.host_sim import simulate_regulated_host
from repro.simulation.tree_sim import simulate_multicast_tree
from repro.topology.attach import attach_hosts
from repro.topology.transit_stub import transit_stub_backbone
from repro.utils.rng import derive_seed
from repro.workloads.profiles import DEFAULT_MTU

__all__ = [
    "CellResult",
    "ScenarioOutcome",
    "BatchReport",
    "evaluate_batch",
    "evaluate_cell",
    "finalise_batch",
    "run_batch",
    "run_scenario",
]

#: Relative slack of the soundness verdict (float accumulation).
EPS_REL = 1e-3
#: Absolute floor of the soundness verdict, in seconds.
EPS_ABS = 5e-3
#: Fluid-grid quantisation charged per hop, in units of ``dt``.
FLUID_GRID_FACTOR = 3.0
#: DES packet/window quantisation charged per hop, in units of the MTU.
DES_MTU_FACTOR = 6.0
#: Smallest MTU the DES backend will fragment to before falling back to
#: the fluid backend (tiny reduced bursts would explode packet counts).
MIN_DES_MTU = 2e-4


@dataclass(frozen=True)
class CellResult:
    """Worker-side product of one evaluated cell (picklable primitives).

    Everything the parent needs for the vectorised analytic pass and
    the verdict: the measured envelope parameters (``sigmas``/``rhos``),
    the effective execution facts, the simulated worst case and the
    backend quantisation term ``quant_eps`` (already scaled by hop
    count; the parent adds the float-noise slack on top).
    """

    name: str
    eff_mode: str
    eff_backend: str
    hops: int
    propagation_total: float
    sigmas: tuple[float, ...]
    rhos: tuple[float, ...]
    measured: float
    events: int
    cancelled_events: int
    height_ok: bool
    quant_eps: float
    #: Whether the simulator resolved the cell on a closed-form primed
    #: fast path (array kernels, no event loop); the cost model prices
    #: primed cells on their own coefficient.
    primed: bool = False


@dataclass(frozen=True)
class ScenarioOutcome:
    """One scenario's verdict (all delays in seconds)."""

    scenario: Scenario
    eff_mode: str
    eff_backend: str
    hops: int
    propagation_total: float
    measured: float
    bound: float
    baseline_bound: float
    eps: float
    events: int
    cancelled_events: int
    height_ok: bool = True
    #: Worker wall-clock spent realising + simulating this cell.
    wall_time: float = 0.0
    #: Captured worker traceback; a non-``None`` value fails the verdict.
    error: Optional[str] = None
    #: Closed-form fast path used (see :class:`CellResult`).
    primed: bool = False
    #: Worker-side telemetry (spans/counters; ``None`` when collection
    #: is off).  Excluded from equality: the serial==parallel==grouped
    #: bit-identity contract compares verdicts, never timings.
    telemetry: Optional[CellTelemetry] = field(
        default=None, compare=False, repr=False
    )
    #: Attempt-ledger fields (retry/fault-tolerance accounting), also
    #: excluded from equality: a recovered cell must compare equal to
    #: an undisturbed one -- the determinism-under-retry invariant.
    attempts: int = field(default=1, compare=False)
    attempt_errors: tuple = field(default=(), compare=False, repr=False)

    @property
    def sound(self) -> bool:
        """The invariant: simulated worst case within the analytic bound.

        An infinite bound (unstable cell) is vacuously satisfied, but
        the Lemma-2 height check still applies to tree cells; a worker
        error fails the verdict outright.
        """
        if self.error is not None:
            return False
        if not np.isfinite(self.bound):
            return self.height_ok
        return self.measured <= self.bound + self.eps and self.height_ok

    @property
    def retried(self) -> bool:
        """Needed more than one attempt or recorded a fault (a row of
        the attempt ledger)."""
        return self.attempts > 1 or bool(self.attempt_errors)

    @property
    def budget_ok(self) -> bool:
        """Perf verdict: worker wall time within the cell's budget."""
        budget = self.scenario.perf_budget
        return budget <= 0.0 or self.wall_time <= budget

    @property
    def tightness(self) -> float:
        """measured / bound (0 for infinite bounds and error cells)."""
        if self.error is not None:
            return 0.0
        if not np.isfinite(self.bound) or self.bound <= 0.0:
            return 0.0
        return self.measured / self.bound


@dataclass(frozen=True)
class BatchReport:
    """Aggregate over one :func:`run_batch` invocation."""

    outcomes: tuple[ScenarioOutcome, ...]
    elapsed: float
    #: Grouped-evaluation accounting (one mapping per SoA group plus a
    #: ``grouping_summary`` entry) when the structure-of-arrays path
    #: ran in process, the ``grouping_summary`` alone when it ran in
    #: pool workers; empty for per-cell evaluation.  Excluded from equality for
    #: the same reason as per-cell telemetry: timings are not verdicts.
    group_stats: tuple = field(default=(), compare=False, repr=False)

    @property
    def n_scenarios(self) -> int:
        return len(self.outcomes)

    @property
    def violations(self) -> tuple[ScenarioOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.sound)

    @property
    def errors(self) -> tuple[ScenarioOutcome, ...]:
        """Cells whose worker crashed (a subset of :attr:`violations`)."""
        return tuple(o for o in self.outcomes if o.error is not None)

    @property
    def perf_violations(self) -> tuple[ScenarioOutcome, ...]:
        """Cells over their declared wall-clock budget."""
        return tuple(o for o in self.outcomes if not o.budget_ok)

    @property
    def events_total(self) -> int:
        return sum(o.events for o in self.outcomes)

    @property
    def worker_wall_total(self) -> float:
        """Summed per-cell worker seconds (> elapsed when parallel)."""
        return sum(o.wall_time for o in self.outcomes)

    @property
    def scenarios_per_sec(self) -> float:
        if self.n_scenarios == 0 or self.elapsed <= 0:
            return 0.0
        return self.n_scenarios / self.elapsed

    @property
    def max_tightness(self) -> float:
        return max((o.tightness for o in self.outcomes), default=0.0)

    def summary_lines(self) -> list[str]:
        """Human-readable digest (the CLI prints these)."""
        lines = [
            f"scenarios evaluated: {self.n_scenarios}",
            f"soundness violations: {len(self.violations)}",
            f"worker errors: {len(self.errors)}",
            f"perf-budget violations: {len(self.perf_violations)}",
            f"max tightness (measured/bound): {self.max_tightness:.3f}",
            f"throughput: {self.scenarios_per_sec:.1f} scenarios/s "
            f"({self.elapsed:.1f}s wall, {self.worker_wall_total:.1f}s worker)",
            f"DES passes: {self.events_total}",
        ]
        for o in self.violations:
            if o.error is not None:
                first = o.error.strip().splitlines()[-1] if o.error.strip() else "?"
                lines.append(f"  ERROR {o.scenario.name}: {first}")
            else:
                lines.append(
                    f"  VIOLATION {o.scenario.name}: measured={o.measured:.6g} "
                    f"> bound={o.bound:.6g} + eps={o.eps:.3g}"
                )
        for o in self.perf_violations:
            lines.append(
                f"  OVER-BUDGET {o.scenario.name}: wall={o.wall_time:.3g}s "
                f"> budget={o.scenario.perf_budget:.3g}s"
            )
        return lines


# ----------------------------------------------------------------------
# Realisation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Realised:
    """A scenario with its traces, envelopes and topology resolved.

    Worker-internal: never pickled, so the tree context may hold
    heavyweight objects.
    """

    scenario: Scenario
    traces: list[PacketTrace]
    envelopes: list[ArrivalEnvelope]
    eff_mode: str
    eff_backend: str
    mtu: float
    hops: int
    propagation: tuple[float, ...]
    height_ok: bool
    #: Extra per-hop soundness slack (DES vacation-window quantisation).
    extra_eps: float = 0.0
    #: Whole-tree context ``(tree, latency_matrix)`` (tree_des only).
    tree_ctx: Optional[tuple] = None


def _build_tree(sc: Scenario):
    """Construct the DSCT tree over a transit-stub underlay.

    Returns ``(mgn, tree)``; seeded identically for the critical-path
    reduction and the whole-tree backend so both see the same topology.
    """
    base = derive_seed(sc.seed, "tree-topology", sc.name)
    # One independent stream per construction stage (the convention of
    # experiments/trees.py); a shared integer would restart the same
    # default_rng sequence at every stage and correlate the draws.
    g = transit_stub_backbone(3, 2, 3, rng=derive_seed(base, "backbone"))
    net = attach_hosts(g, sc.tree_members, rng=derive_seed(base, "attach"))
    mgn = MultiGroupNetwork.fully_joined(
        net, sc.k, rng=derive_seed(base, "groups")
    )
    tree = mgn.build_tree(0, "dsct", rng=derive_seed(base, "tree"))
    return mgn, tree


def _resolve_tree(sc: Scenario) -> tuple[int, tuple[float, ...], bool]:
    """Reduce a DSCT tree scenario to its critical-path chain.

    Returns ``(hops, per-hop propagation, height_ok)`` where
    ``height_ok`` asserts the constructed height against Lemma 2.
    """
    mgn, tree = _build_tree(sc)
    path = tree.critical_path()
    # Lemma 2 plus the one-layer slack small random domains can pack
    # (the same property the dsct construction tests assert).  The delay
    # verdict uses the *constructed* height, so this side-check never
    # loosens the bound accounting.
    height_ok = tree.height <= dsct_height_bound(tree.size) + 1
    if len(path) < 2:
        return 1, (0.0,), height_ok
    lat = mgn.latency
    prop = tuple(float(lat[a, b]) for a, b in zip(path, path[1:]))
    return len(path) - 1, prop, height_ok


def _resolve_tree_full(sc: Scenario):
    """Realise the whole tree for the ``tree_des`` backend.

    Returns ``(hops, propagation, height_ok, tree_ctx)``.  A receiver
    at depth ``d`` crosses ``d + 1`` regulated-host pipelines (every
    member, the leaf included, forwards through its own pipeline before
    local delivery), so the hop count charged to the analytic side is
    the tree *height* (layers, Lemma 2's ``H``), and the propagation
    term is the worst root-to-member latency sum -- together they
    dominate every receiver's path.
    """
    mgn, tree = _build_tree(sc)
    height_ok = tree.height <= dsct_height_bound(tree.size) + 1
    lat = mgn.latency
    worst_prop = 0.0
    for member in tree.members():
        path = tree.path_from_root(member)
        prop = sum(float(lat[a, b]) for a, b in zip(path, path[1:]))
        worst_prop = max(worst_prop, prop)
    return tree.height, (worst_prop,), height_ok, (tree, lat)


def _des_lambda_fit(
    sc: Scenario, envelopes: Sequence[ArrivalEnvelope]
) -> Optional[tuple[float, float]]:
    """Decide whether the DES can resolve a (sigma, rho, lambda) cell.

    The DES vacation regulator is non-preemptive with a fit check: a
    packet must fit inside one working period ``W_i = sigma_i*/(1-rho_i)``
    (built on the *reduced* bursts of Theorem 1, which can be far below
    the empirical sigma), so the MTU must shrink to a fraction of the
    smallest window.  On top of that, the minimum-feasible ``lambda``
    makes the window budget exactly tight (``rho P = W``): up to one
    packet serialisation is wasted per cycle by the fit check, and that
    waste accumulates over the run -- an honest quantisation term of
    ``(horizon / P) * mtu / rho`` that no per-packet slack covers.

    Returns ``(mtu, extra_eps_per_hop)``, or ``None`` when the packet
    count would explode (``mtu < MIN_DES_MTU``) or the accumulated
    window waste would swamp the bound -- the caller then falls back to
    the fluid backend, which resolves the cell exactly.
    """
    plan = AdaptiveController(envelopes, sc.capacity).build_stagger_plan()
    w_min = min(r.working_period for r in plan.regulators)
    mtu = min(DEFAULT_MTU, w_min * sc.capacity / 32.0)
    if mtu < MIN_DES_MTU:
        return None
    rho_min = min(e.rho for e in envelopes) / sc.capacity
    cycles = sc.horizon / plan.period + 1.0
    extra = cycles * (mtu / sc.capacity) / rho_min
    bound = theorem1_wdb_heterogeneous(
        [e.sigma for e in envelopes], [e.rho for e in envelopes], sc.capacity
    )
    if not np.isfinite(bound) or extra > 0.3 * bound:
        return None
    return mtu, extra


def _realise_from(
    sc: Scenario,
    raw: Sequence[PacketTrace],
    envelopes: Sequence[ArrivalEnvelope],
    fragment_cache: Optional[dict] = None,
) -> _Realised:
    """Finish realising a scenario whose traces/envelopes are known.

    The per-cell tail of the batch realiser
    (:func:`repro.scenarios.tracebatch.realise_batch`): backend
    fallback, fragmentation and topology resolution -- one source of
    truth for the effective execution facts.  ``raw`` are the
    unfragmented traces; empirical envelopes are fragmentation-invariant
    (fragments share the original emission times), so they are measured
    on ``raw``.  ``fragment_cache`` (optional, keyed by
    ``(id(trace), mtu)``) memoises :meth:`PacketTrace.fragment` across
    cells sharing trace objects; fragmentation is deterministic, so
    sharing is exact.
    """
    envelopes = list(envelopes)
    eff_mode = sc.effective_mode(envelopes)
    backend, mtu, extra_eps = sc.backend, DEFAULT_MTU, 0.0
    if backend == "des" and eff_mode == "sigma-rho-lambda":
        fit = _des_lambda_fit(sc, envelopes)
        if fit is None:
            backend = "fluid"
        else:
            mtu, extra_eps = fit
    if fragment_cache is None:
        traces = [tr.fragment(mtu) for tr in raw]
    else:
        traces = []
        for tr in raw:
            key = (id(tr), mtu)
            # The cached entry pins the source trace: ids are only
            # unique among *live* objects, so holding the reference
            # keeps the key valid for the cache's whole lifetime (and
            # the identity check catches any stale hit regardless).
            entry = fragment_cache.get(key)
            if entry is None or entry[0] is not tr:
                entry = (tr, tr.fragment(mtu))
                fragment_cache[key] = entry
            traces.append(entry[1])
    tree_ctx = None
    if sc.topology == "tree":
        if backend == "tree_des":
            hops, prop, height_ok, tree_ctx = _resolve_tree_full(sc)
        else:
            hops, prop, height_ok = _resolve_tree(sc)
    elif sc.topology == "chain":
        hops, prop, height_ok = sc.hops, (sc.propagation,) * sc.hops, True
    else:
        hops, prop, height_ok = 1, (0.0,), True
    return _Realised(
        sc, traces, envelopes, eff_mode, backend, mtu, hops, prop,
        height_ok, extra_eps, tree_ctx,
    )


# ----------------------------------------------------------------------
# Simulation
# ----------------------------------------------------------------------
def _simulate(r: _Realised) -> tuple[float, int, int, bool]:
    """Run one realised scenario.

    Returns ``(measured, events, cancelled, primed)`` where ``primed``
    reports whether the simulator resolved the cell on a closed-form
    pass (every DES cell does, in every discipline; the flag feeds the
    cost model, whose stored records may predate that).
    """
    sc = r.scenario
    if r.eff_backend == "tree_des":
        tree, latency = r.tree_ctx
        res = simulate_multicast_tree(
            [tree],
            0,
            r.traces,
            r.envelopes,
            latency,
            mode=r.eff_mode,
            capacity=sc.capacity,
            discipline=sc.discipline,
        )
        return res.worst_case_delay, res.events, 0, res.primed
    if sc.topology == "host":
        if r.eff_backend == "fluid":
            res = simulate_fluid_host(
                r.traces,
                r.envelopes,
                mode=r.eff_mode,
                capacity=sc.capacity,
                discipline=sc.discipline,
                stagger_phase=sc.stagger_phase,
                dt=sc.dt,
            )
            return res.worst_case_delay, 0, 0, False
        res = simulate_regulated_host(
            r.traces,
            r.envelopes,
            mode=r.eff_mode,
            capacity=sc.capacity,
            discipline=sc.discipline,
            stagger_phase=sc.stagger_phase,
        )
        return res.worst_case_delay, res.events, res.cancelled_events, res.primed
    tagged, cross = r.traces[0], list(r.traces[1:])
    cross_per_hop = [cross] * r.hops
    if r.eff_backend == "fluid":
        res = simulate_fluid_chain(
            tagged,
            cross_per_hop,
            r.envelopes,
            mode=r.eff_mode,
            capacity=sc.capacity,
            discipline=sc.discipline,
            stagger_phase=sc.stagger_phase,
            propagation=list(r.propagation),
            dt=sc.dt,
        )
        return res.worst_case_delay, 0, 0, False
    des = simulate_regulated_chain(
        tagged,
        cross_per_hop,
        r.envelopes,
        mode=r.eff_mode,
        capacity=sc.capacity,
        discipline=sc.discipline,
        stagger_phase=sc.stagger_phase,
        propagation=list(r.propagation),
    )
    return des.worst_case_delay, des.events, des.cancelled_events, des.primed


def _quant_eps(r: _Realised) -> float:
    """Backend quantisation slack, already scaled by hop count."""
    if r.eff_backend == "fluid":
        return FLUID_GRID_FACTOR * r.scenario.dt * r.hops
    if r.eff_backend == "tree_des":
        return DES_MTU_FACTOR * r.mtu * r.hops
    return (DES_MTU_FACTOR * r.mtu + r.extra_eps) * r.hops


def _cell_result(
    r: _Realised, measured: float, events: int, cancelled: int, primed: bool
) -> CellResult:
    """The :class:`CellResult` of realised cell ``r`` given its simulated
    side (every simulation path builds its result here)."""
    return CellResult(
        name=r.scenario.name,
        eff_mode=r.eff_mode,
        eff_backend=r.eff_backend,
        hops=r.hops,
        propagation_total=float(sum(r.propagation)),
        sigmas=tuple(float(e.sigma) for e in r.envelopes),
        rhos=tuple(float(e.rho) for e in r.envelopes),
        measured=float(measured),
        events=int(events),
        cancelled_events=int(cancelled),
        height_ok=r.height_ok,
        quant_eps=_quant_eps(r),
        primed=primed,
    )


# ----------------------------------------------------------------------
# Worker stage
# ----------------------------------------------------------------------
def evaluate_cell(scenario: Scenario) -> CellResult:
    """Realise and simulate one cell: a batch of one.

    The grouped path's realiser and simulation dispatch on one cell, so
    a cell :func:`evaluate_batch` runs on its own gets the grouped
    path's result.  Exceptions deliberately propagate: the executor
    layer captures them into per-cell error results, which
    :func:`finalise_batch` turns into failed verdicts.
    """
    # Looked up at call time: both modules import this one.
    from repro.scenarios.cellmatrix import group_key, simulate_cells
    from repro.scenarios.tracebatch import realise_batch

    with span("realise"):
        (r,), _info = realise_batch([scenario])
    if isinstance(r, Exception):
        raise r
    # Chaos-harness hook: a single None check when no FaultPlan is
    # active, an injected failure (raise/kill/delay/hang) when one is.
    faults.check_fault("kernel", scenario)
    with span("simulate"):
        (cell,) = simulate_cells(group_key(r), [r])
    if isinstance(cell, Exception):
        raise cell
    if cell.primed:
        counter_add("primed_cells")
    return cell


# ----------------------------------------------------------------------
# Parent stages: vectorised bounds + verdicts
# ----------------------------------------------------------------------
def _error_outcome(
    sc: Scenario, task: TaskResult
) -> ScenarioOutcome:
    return ScenarioOutcome(
        scenario=sc,
        eff_mode=sc.mode,
        eff_backend=sc.backend,
        hops=0,
        propagation_total=0.0,
        measured=float("nan"),
        bound=float("nan"),
        baseline_bound=float("nan"),
        eps=0.0,
        events=0,
        cancelled_events=0,
        height_ok=True,
        wall_time=task.wall_time,
        error=task.error or "unknown worker error",
        telemetry=task.telemetry,
        attempts=task.attempts,
        attempt_errors=tuple(task.attempt_errors),
    )


def finalise_batch(
    scenarios: Sequence[Scenario],
    tasks: Sequence[TaskResult],
    elapsed: float,
    *,
    progress: Optional[callable] = None,
) -> BatchReport:
    """Vectorised analytic pass + per-cell verdicts over worker results.

    ``progress`` (optional) is called as ``progress(i, n, outcome)``
    per finalised cell.
    """
    if len(tasks) != len(scenarios):
        raise ValueError("one task result per scenario is required")
    ok = [i for i, t in enumerate(tasks) if t.ok]
    bounds = np.full(len(scenarios), np.nan)
    baselines = np.full(len(scenarios), np.nan)
    t_bounds = time.perf_counter()
    if ok:
        cells: list[CellResult] = [tasks[i].value for i in ok]
        # Envelopes are frozen value records, and parameter sweeps
        # repeat (sigma, rho) points across many cells: build each
        # distinct envelope once for the whole batch.
        env_cache: dict[tuple[float, float], ArrivalEnvelope] = {}

        def _env(s: float, r: float) -> ArrivalEnvelope:
            e = env_cache.get((s, r))
            if e is None:
                e = ArrivalEnvelope(s, r)
                env_cache[(s, r)] = e
            return e

        ok_bounds, ok_baselines = batch_bounds(
            [
                [_env(s, r) for s, r in zip(c.sigmas, c.rhos)]
                for c in cells
            ],
            [c.eff_mode for c in cells],
            hops=[c.hops for c in cells],
            propagation_total=[c.propagation_total for c in cells],
            capacity=[scenarios[i].capacity for i in ok],
        )
        bounds[ok] = ok_bounds
        baselines[ok] = ok_baselines
    bounds_dur = time.perf_counter() - t_bounds
    t_verdict = time.perf_counter()
    outcomes: list[ScenarioOutcome] = []
    for i, (sc, task) in enumerate(zip(scenarios, tasks)):
        if not task.ok:
            outcome = _error_outcome(sc, task)
        else:
            cell: CellResult = task.value
            bound = float(bounds[i])
            rel = EPS_REL * bound if np.isfinite(bound) else 0.0
            outcome = ScenarioOutcome(
                scenario=sc,
                eff_mode=cell.eff_mode,
                eff_backend=cell.eff_backend,
                hops=cell.hops,
                propagation_total=cell.propagation_total,
                measured=cell.measured,
                bound=bound,
                baseline_bound=float(baselines[i]),
                eps=rel + EPS_ABS + cell.quant_eps,
                events=cell.events,
                cancelled_events=cell.cancelled_events,
                height_ok=cell.height_ok,
                wall_time=task.wall_time,
                primed=cell.primed,
                telemetry=task.telemetry,
                attempts=task.attempts,
                attempt_errors=tuple(task.attempt_errors),
            )
        outcomes.append(outcome)
        if progress is not None:
            progress(i, len(scenarios), outcome)
    verdict_dur = time.perf_counter() - t_verdict
    # The analytic pass and the verdict loop are batch-level (one NumPy
    # call / one Python loop for the whole matrix), so their cost is
    # amortised evenly across the cells that went through them -- the
    # per-cell phase breakdown then accounts for the full pipeline, not
    # just the worker stage.
    ok_tels = [
        tasks[i].telemetry for i in ok if tasks[i].telemetry is not None
    ]
    for tel in ok_tels:
        tel.add_phase("bounds", bounds_dur / len(ok_tels))
    all_tels = [o.telemetry for o in outcomes if o.telemetry is not None]
    for tel in all_tels:
        tel.add_phase("verdict", verdict_dur / len(all_tels))
    return BatchReport(outcomes=tuple(outcomes), elapsed=elapsed)


# ----------------------------------------------------------------------
# Batch driver
# ----------------------------------------------------------------------
def evaluate_batch(
    scenarios: Sequence[Scenario],
    start_attempt: int = 1,
    *,
    retry: Optional[RetryPolicy] = None,
    cell_timeout: Optional[float] = None,
    fault_plan: Optional[faults.FaultPlan] = None,
    prior_errors: Sequence[str] = (),
    tick: Optional[callable] = None,
    stats: Optional[dict] = None,
    cost_model=None,
) -> list[TaskResult]:
    """The worker stage: one :class:`TaskResult` per scenario, in order.

    Serial :func:`run_batch` calls it on the whole matrix, each pool
    worker on one chunk (it is the pool's batch function) and each
    lease worker on one lease.  A first attempt with no ``fault_plan``
    and no ``cell_timeout`` runs through the grouped cell matrix
    (:func:`repro.scenarios.cellmatrix.evaluate_grouped`, which takes
    ``tick``, ``stats`` and ``cost_model``); a cell whose grouped
    attempt errored retries on its own from attempt 2.  Anything else
    runs cell by cell from ``start_attempt``
    (:func:`repro.runtime.executor.run_each`), because injection lives
    in :func:`evaluate_cell`, ``SIGALRM`` caps one cell's attempt, and
    attempts spent by pool deaths or a reclaimed lease count per cell.
    ``prior_errors`` opens every cell's attempt ledger.
    """
    # Looked up at call time (cellmatrix imports this module).
    from repro.scenarios.cellmatrix import evaluate_grouped

    scenarios = list(scenarios)
    if fault_plan is None and cell_timeout is None and start_attempt == 1:
        tasks = evaluate_grouped(
            scenarios, tick=tick, stats=stats, cost_model=cost_model
        )
        if retry is not None and retry.max_attempts > 1:
            tasks = [
                t
                if t.ok
                else run_one_with_retry(
                    evaluate_cell,
                    t.index,
                    scenarios[t.index],
                    retry,
                    start_attempt=2,
                    prior_errors=(_error_head(t.error),),
                )
                for t in tasks
            ]
    else:
        with (
            faults.activate(fault_plan)
            if fault_plan is not None
            else nullcontext()
        ):
            tasks = run_each(
                evaluate_cell,
                scenarios,
                start_attempt,
                retry=retry,
                cell_timeout=cell_timeout,
                tick=tick,
            )
    if prior_errors:
        tasks = [
            dataclasses.replace(
                t, attempt_errors=(*prior_errors, *t.attempt_errors)
            )
            for t in tasks
        ]
    return tasks


def _grouping_summary(cells: Iterable[tuple[Mapping, Mapping]]) -> dict:
    """The ``grouping_summary`` of cells grouped in other processes.

    Pool and lease workers keep their ``grouping`` records; this
    tallies the ``grouped_cells``/``fallback_cells`` counters and
    ``fallback_reason`` annotations their cells' telemetry carries, one
    ``(counters, extra)`` pair per cell (empty for a cell without
    telemetry).  It has no batch-realisation fields: those are per
    worker batch.
    """
    n = grouped = fallback = 0
    reasons: dict[str, int] = {}
    for counters, extra in cells:
        n += 1
        grouped += counters.get("grouped_cells", 0)
        fallback += counters.get("fallback_cells", 0)
        reason = extra.get("fallback_reason")
        if reason is not None:
            reasons[reason] = reasons.get(reason, 0) + 1
    return {
        "kind": "grouping_summary",
        "cells": n,
        "grouped_cells": grouped,
        "fallback_cells": fallback,
        "fallback_reasons": dict(sorted(reasons.items())),
    }


def run_batch(
    scenarios: Sequence[Scenario],
    *,
    executor: Optional[ProcessExecutor] = None,
    progress: Optional[callable] = None,
    tick: Optional[callable] = None,
    cost_model=None,
    retry: Optional[RetryPolicy] = None,
    cell_timeout: Optional[float] = None,
    fault_plan: Optional[faults.FaultPlan] = None,
) -> BatchReport:
    """Evaluate a scenario matrix: batched cells, vectorised bounds.

    ``executor=None`` runs :func:`evaluate_batch` on the whole matrix
    in this process (its ``grouping`` records land in
    :attr:`BatchReport.group_stats`); a
    :class:`repro.runtime.executor.ProcessExecutor` maps it over
    chunks in worker processes (when they group, the one
    ``grouping_summary`` of :func:`_grouping_summary` lands there).
    Either way the parent finalises the
    whole matrix once, so outcomes are bit-identical (``wall_time``
    aside, which grouped evaluation amortises over batches and packs).
    ``tick(done, total)`` (optional) is called while cells are in
    flight, ``progress(i, n, outcome)`` (optional) per finalised cell.

    ``cost_model`` (a :class:`repro.runtime.cost.CellCostModel`,
    optional) cuts the pool's chunks dearest first, cost-equalised,
    variance-shrunk and group-coherent
    (:func:`repro.runtime.cost.plan_chunks`); scheduling only.
    ``retry``/``cell_timeout``/``fault_plan`` arm the fault-tolerant
    path (see :func:`evaluate_batch`).
    """
    # An empty matrix is a legal degenerate case (e.g. a generator asked
    # for zero cells): report nothing rather than raising, so callers
    # need no special case.
    if not scenarios:
        return BatchReport(outcomes=(), elapsed=0.0)
    scenarios = list(scenarios)
    t0 = time.perf_counter()
    stats: dict = {}
    if executor is None:
        tasks = evaluate_batch(
            scenarios,
            retry=retry,
            cell_timeout=cell_timeout,
            fault_plan=fault_plan,
            tick=tick,
            stats=stats,
            cost_model=cost_model,
        )
    else:
        plan = None
        if cost_model is not None and executor.jobs > 1:
            from repro.runtime.cost import plan_chunks, spec_group_key

            plan = plan_chunks(
                cost_model.estimate_many(scenarios),
                executor.jobs,
                variances=[
                    cost_model.relative_variance(sc) for sc in scenarios
                ],
                groups=[spec_group_key(sc) for sc in scenarios],
            )
        tasks = executor.map_tasks(
            functools.partial(evaluate_batch, fault_plan=fault_plan),
            scenarios,
            progress=tick,
            chunk_plan=plan,
            retry=retry,
            cell_timeout=cell_timeout,
        )
        if fault_plan is None and cell_timeout is None and telemetry_enabled():
            # The workers grouped their chunks and kept their grouping
            # records; their cells' telemetry still tells the tally.
            stats["records"] = [_grouping_summary(
                ({}, {}) if t.telemetry is None
                else (t.telemetry.counters, t.telemetry.extra)
                for t in tasks
            )]
    report = finalise_batch(
        scenarios, tasks, time.perf_counter() - t0, progress=progress
    )
    if stats:
        report = dataclasses.replace(
            report, group_stats=tuple(stats["records"])
        )
    return report


def run_scenario(scenario: Scenario) -> ScenarioOutcome:
    """Evaluate a single scenario (a batch of one)."""
    return run_batch([scenario]).outcomes[0]

"""Campaign driver: batched evaluation over a persistent store.

A *campaign* is a (usually generated) scenario matrix evaluated in
process or on a :class:`repro.runtime.executor.ProcessExecutor`, with
its verdicts appended to a :class:`repro.runtime.store.ResultStore`.
On top of :func:`repro.scenarios.runner.run_batch` this layer adds:

* **resume** -- cells whose content-hashed key already has a completed
  record in the store are skipped, so an interrupted thousand-cell
  campaign continues where it stopped and a finished one re-runs as a
  no-op;
* **persistence** -- one store record per cell (JSONL or SQLite
  backend, see :mod:`repro.runtime.store`) plus a rewritten
  ``summary.json`` after every run, diffable across campaigns;
* **perf budgets** -- per-cell wall-clock budgets (see
  ``Scenario.perf_budget``) verdicted alongside soundness.

:func:`commit_outcomes` is the one way a finalised batch reaches a
store: :func:`run_campaign` commits its whole matrix through it, and
the lease coordinator's workers (:mod:`repro.runtime.coordinator`)
each lease.

:class:`CampaignConfig` is the JSON-loadable description the CLI's
``--campaign`` flag consumes (see ``examples/campaign_thousand.json``).
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import nullcontext
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from repro.runtime import faults
from repro.runtime.executor import ProcessExecutor, RetryPolicy, _error_head
from repro.runtime.faults import FaultPlan, InjectedFault
from repro.runtime.store import (
    ResultStore,
    _spec_dict,
    cell_key,
    open_store,
    spec_fingerprint,
)
from repro.scenarios.runner import BatchReport, ScenarioOutcome, run_batch
from repro.scenarios.spec import Scenario
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
)

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "append_results_with_retry",
    "build_campaign",
    "commit_outcomes",
    "outcome_record",
    "run_campaign",
]


@dataclass(frozen=True)
class CampaignConfig:
    """JSON-loadable description of a generated campaign matrix."""

    name: str = "campaign"
    count: int = 1000
    seed: int = 0
    max_k: int = 6
    max_hops: int = 3
    horizon: float = 2.0
    dt: float = 2e-3
    #: Per-cell wall-clock budget in seconds (0 disables).
    perf_budget: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(
                f"name must be a non-empty string, got {self.name!r}"
            )
        check_positive_int(self.count, "count")
        # Exact type, as for Scenario.seed: True would build seed 1's
        # matrix.
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise TypeError(f"seed must be an int, got {self.seed!r}")
        # The generator draws K and chain hops from [2, max].
        for name in ("max_k", "max_hops"):
            value = check_positive_int(getattr(self, name), name)
            if value < 2:
                raise ValueError(f"{name} must be >= 2, got {value}")
        check_positive(self.horizon, "horizon")
        check_positive(self.dt, "dt")
        check_non_negative(self.perf_budget, "perf_budget")

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "CampaignConfig":
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ValueError(f"campaign config {path} must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"campaign config {path} has unknown keys {unknown}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**payload)


def build_campaign(config: CampaignConfig) -> list[Scenario]:
    """Generate the campaign's scenario matrix from its config."""
    from repro.scenarios.generator import generate_scenarios

    return generate_scenarios(
        config.count,
        seed=config.seed,
        max_k=config.max_k,
        max_hops=config.max_hops,
        horizon=config.horizon,
        dt=config.dt,
        perf_budget=config.perf_budget,
    )


def outcome_record(outcome: ScenarioOutcome) -> dict:
    """The store record (schema in :mod:`repro.runtime.store`)."""
    sc = outcome.scenario
    # One field dict serves both hashes and the stored spec.
    spec = _spec_dict(sc)
    return {
        "key": cell_key(spec),
        "fingerprint": spec_fingerprint(spec),
        "name": sc.name,
        "sound": bool(outcome.sound),
        "error": outcome.error,
        # json emits Infinity/NaN for non-finite floats and reads them back.
        "measured": float(outcome.measured),
        "bound": float(outcome.bound),
        "baseline_bound": float(outcome.baseline_bound),
        "eps": float(outcome.eps),
        "tightness": float(outcome.tightness),
        "eff_mode": outcome.eff_mode,
        "eff_backend": outcome.eff_backend,
        "hops": int(outcome.hops),
        "propagation_total": float(outcome.propagation_total),
        "events": int(outcome.events),
        "cancelled_events": int(outcome.cancelled_events),
        "height_ok": bool(outcome.height_ok),
        "wall_time": float(outcome.wall_time),
        "perf_budget": float(sc.perf_budget),
        "budget_ok": bool(outcome.budget_ok),
        "tags": list(sc.tags),
        # Cost-model features (spec side): together with ``wall_time``
        # these let CellCostModel.fit re-derive per-backend cost
        # coefficients from any real campaign store.  ``primed`` is an
        # execution fact (closed-form fast path used), which the fit
        # uses to price primed and evented cells separately.
        "backend": sc.backend,
        "discipline": sc.discipline,
        "topology": sc.topology,
        "mode": sc.mode,
        "primed": bool(outcome.primed),
        "k": int(sc.k),
        "tree_members": int(sc.tree_members),
        "horizon": float(sc.horizon),
        "dt": float(sc.dt),
        # The full spec (v2): makes the store self-contained, so
        # ``scenarios curate`` can re-materialise promising cells and
        # any record can be re-run without the generating code.
        "spec": spec,
    }


@dataclass(frozen=True)
class CampaignReport:
    """One campaign run: freshly evaluated cells + resume accounting.

    ``skipped_violations`` / ``skipped_budget_violations`` count this
    campaign's *resumed* cells whose stored verdicts already failed --
    skipping a known-bad cell must not launder it into a clean exit.
    (Stored budget verdicts stand as recorded; resume does not re-judge
    them against a changed budget.)
    """

    report: BatchReport
    requested: int
    skipped: int
    skipped_violations: int = 0
    skipped_budget_violations: int = 0
    store_root: Optional[str] = None
    store_kind: Optional[str] = None
    store_records: int = 0
    quarantined: int = 0
    #: Cost-model refit ledger (``CellCostModel.fit(report=...)``) when
    #: a resume refit ran; ``None`` otherwise.  Surfaced by the CLI's
    #: ``--profile`` so silently dropped degenerate samples are visible.
    cost_fit: Optional[dict] = None
    #: Telemetry records persisted to the store's telemetry table/file.
    telemetry_records: int = 0
    #: Fault-tolerance accounting (attempt ledger): cells that needed
    #: more than one attempt, cells that exhausted all retries (poison,
    #: persisted to the store's poison channel), and store-write
    #: retries spent (injected faults, transient I/O, SQLITE_BUSY).
    retried_cells: int = 0
    poisoned_cells: int = 0
    store_retries: int = 0

    @property
    def evaluated(self) -> int:
        return self.report.n_scenarios

    @property
    def clean(self) -> bool:
        """No soundness/budget failure, fresh or resumed from the store."""
        return (
            not self.report.violations
            and not self.report.perf_violations
            and self.skipped_violations == 0
            and self.skipped_budget_violations == 0
        )

    def summary_lines(self) -> list[str]:
        lines = [
            f"cells requested: {self.requested}",
            f"cells skipped (already in store): {self.skipped}",
        ]
        if self.skipped_violations or self.skipped_budget_violations:
            lines.append(
                f"  of which already-failed in store: "
                f"{self.skipped_violations} unsound, "
                f"{self.skipped_budget_violations} over budget"
            )
        lines.extend(self.report.summary_lines())
        if self.retried_cells or self.poisoned_cells or self.store_retries:
            lines.append(
                f"fault tolerance: {self.retried_cells} cells retried "
                f"({self.retried_cells - self.poisoned_cells} recovered, "
                f"{self.poisoned_cells} poison), "
                f"{self.store_retries} store-write retries"
            )
        if self.store_root is not None:
            lines.append(
                f"store: {self.store_root} "
                f"[{self.store_kind or 'jsonl'}] ({self.store_records} records"
                + (
                    f", {self.quarantined} corrupt lines quarantined)"
                    if self.quarantined
                    else ")"
                )
            )
        return lines


def _empty_report() -> BatchReport:
    return BatchReport(outcomes=(), elapsed=0.0)


def run_campaign(
    scenarios: Sequence[Scenario],
    *,
    executor: Optional[ProcessExecutor] = None,
    store: Optional[Union[str, Path, ResultStore]] = None,
    resume: bool = False,
    progress: Optional[callable] = None,
    tick: Optional[callable] = None,
    cost_model: Union[str, None, "CellCostModel"] = "auto",
    retry: Optional[RetryPolicy] = None,
    cell_timeout: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> CampaignReport:
    """Evaluate ``scenarios`` with persistence and resume/skip.

    With ``resume=True`` (requires ``store``), cells whose key already
    has a completed (non-error) record are skipped; crashed cells are
    retried, and skipped cells whose stored verdict already failed are
    surfaced (``skipped_violations``) so a resumed campaign can never
    report cleaner than the store it resumed from.  Every freshly
    evaluated cell is appended to the store and ``summary.json`` is
    rewritten.  ``tick(done, total)`` (optional) streams live progress
    from the executor as chunks complete.

    ``store`` accepts a store instance, a directory, or a backend URL
    (``sqlite:DIR`` / ``jsonl:DIR``, see
    :func:`repro.runtime.store.open_store`).

    ``cost_model`` steers the parallel scheduler (dearest-first,
    cost-equalised chunks): ``"auto"`` (default) uses the shipped
    coefficients -- refitted from the store's recorded per-cell wall
    clocks when resuming over existing records -- ``None`` disables
    cost-aware scheduling, and an explicit
    :class:`repro.runtime.cost.CellCostModel` is used as given.
    Scheduling-only in every case: cell outcomes are bit-identical.

    ``executor=None`` evaluates the matrix in this process, a
    :class:`repro.runtime.executor.ProcessExecutor` in chunks on its
    workers; both go through the same worker stage
    (:func:`repro.scenarios.runner.evaluate_batch`, see
    :func:`run_batch`), and outcomes and store records are
    bit-identical either way (``wall_time`` attribution aside).

    ``retry``/``cell_timeout``/``fault_plan`` are the fault-tolerance
    knobs (all off by default with zero overhead): bounded per-cell
    retries with replayable backoff, a per-attempt wall-clock cap, and
    the deterministic chaos harness (:mod:`repro.runtime.faults`).
    With a plan armed, store writes are retried under the same budget,
    a heal pass quarantines any torn write residue before the summary
    is computed, and the per-cell attempt ledger lands in the
    telemetry channel (``kind == "attempts"``).  Cells that exhaust
    all retries are appended to the store's poison channel with their
    diagnosis; their error records keep ``--resume`` retrying exactly
    them.  Determinism under retry is the campaign invariant: cell
    seeds derive from the spec alone, never the attempt number, so a
    run that survived injected worker kills writes a ``summary.json``
    byte-identical to an undisturbed run.
    """
    from repro.runtime.cost import CellCostModel

    result_store: Optional[ResultStore] = None
    if store is not None:
        result_store = open_store(store)
    if resume and result_store is None:
        raise ValueError("resume=True requires a store")

    todo = scenarios
    skipped = skipped_violations = skipped_budget = 0
    quarantined = 0
    stored_records: dict = {}
    if resume:
        stored_records = result_store.load()
        quarantined = result_store.quarantined
        todo = []
        for sc in scenarios:
            rec = stored_records.get(cell_key(sc))
            if rec is None or rec.get("error"):
                todo.append(sc)
                continue
            skipped += 1
            if not rec.get("sound"):
                skipped_violations += 1
            if rec.get("budget_ok") is False:
                skipped_budget += 1

    cost_fit: Optional[dict] = None
    if cost_model == "auto":
        model = CellCostModel()
        if stored_records:
            # Real campaigns beat shipped coefficients: refit from the
            # store's recorded per-cell wall clocks.
            cost_fit = {}
            model = CellCostModel.fit(
                stored_records.values(), base=model, report=cost_fit
            )
    else:
        model = cost_model

    report = (
        run_batch(
            todo,
            executor=executor,
            progress=progress,
            tick=tick,
            cost_model=model,
            retry=retry,
            cell_timeout=cell_timeout,
            fault_plan=fault_plan,
        )
        if todo
        else _empty_report()
    )

    poison = _poisoned(report, retry)
    store_records = 0
    telemetry_count = 0
    store_retries = 0
    if result_store is not None:
        store_retries, telemetry_count = commit_outcomes(
            result_store,
            report,
            retry=retry,
            fault_plan=fault_plan,
            poison=poison,
            model=model,
            run_records=[{"kind": "fit", **cost_fit}] if cost_fit else (),
        )
        if fault_plan is not None:
            # Heal pass: an injected torn write leaves residue on disk
            # exactly like a real crash; loading quarantines it (and
            # rewrites the JSONL file clean) *before* the summary
            # aggregates, so a recovered chaos campaign summarises
            # byte-identically to an undisturbed run.
            result_store.load()
            quarantined = max(quarantined, result_store.quarantined)
        # The summary is deterministic (content-derived aggregates
        # only, no run-local extras): a coordinated or pooled run's
        # final summary is bit-identical to the serial one over the
        # same records.
        # Telemetry lives in its own table/file and never feeds it.
        summary = result_store.write_summary()
        store_records = int(summary["cells"])
        quarantined = max(quarantined, result_store.quarantined)
        store_retries += getattr(result_store, "busy_retries", 0)
    return CampaignReport(
        report=report,
        requested=len(scenarios),
        skipped=skipped,
        skipped_violations=skipped_violations,
        skipped_budget_violations=skipped_budget,
        store_root=str(result_store.root) if result_store else None,
        store_kind=result_store.kind if result_store else None,
        store_records=store_records,
        quarantined=quarantined,
        cost_fit=cost_fit,
        telemetry_records=telemetry_count,
        retried_cells=sum(1 for o in report.outcomes if o.retried),
        poisoned_cells=len(poison),
        store_retries=store_retries,
    )


#: Store-append retry budget when no explicit policy is given but a
#: fault plan is active (the plan's own max_attempt still bounds how
#: long injection can keep failing a write).
_STORE_APPEND_BACKOFF_S = 0.05


def append_results_with_retry(
    result_store: ResultStore,
    records: list,
    *,
    retry: Optional[RetryPolicy],
    fault_plan: Optional[FaultPlan],
) -> int:
    """Append the result batch, absorbing retryable store failures.

    Injected store faults (chaos harness), transient ``OSError`` and
    SQLite lock errors are retried under the campaign's retry budget;
    the whole batch is re-appended each time, which is safe because
    records are keyed last-record-wins and torn residue is quarantined
    by the next load.  The attempt number is published to the fault
    layer so injected store faults respect ``max_attempt`` -- bounded
    retries provably recover.  Returns the number of retries spent.

    :func:`commit_outcomes` writes every batch's records through it.
    """
    attempts = retry.max_attempts if retry is not None else 1
    if fault_plan is not None:
        attempts = max(attempts, fault_plan.max_attempt + 1)
    for attempt in range(1, attempts + 1):
        ctx = (
            faults.activate(fault_plan)
            if fault_plan is not None
            else nullcontext()
        )
        try:
            with ctx, faults.attempt_scope(attempt):
                result_store.append_many(records)
            return attempt - 1
        except (InjectedFault, OSError, sqlite3.OperationalError):
            if attempt >= attempts:
                raise
            time.sleep(
                retry.delay(attempt, token="store-append")
                if retry is not None
                else _STORE_APPEND_BACKOFF_S
            )
    return attempts - 1  # pragma: no cover - loop always returns/raises


def _poisoned(
    report: BatchReport, retry: Optional[RetryPolicy]
) -> tuple[ScenarioOutcome, ...]:
    """A batch's share of the poison channel: its error outcomes, once
    each has spent a retry budget of more than one attempt."""
    if retry is None or retry.max_attempts <= 1:
        return ()
    return report.errors


def commit_outcomes(
    result_store: ResultStore,
    report: BatchReport,
    *,
    retry: Optional[RetryPolicy],
    fault_plan: Optional[FaultPlan],
    poison: Sequence[ScenarioOutcome] = (),
    stamp: Optional[Mapping[str, Any]] = None,
    model=None,
    run_records: Sequence[dict] = (),
) -> tuple[int, int]:
    """Persist one finalised batch: the only way outcomes reach a store.

    Writes one record per outcome (:func:`outcome_record`, through
    :func:`append_results_with_retry`), one poison diagnosis per outcome
    in ``poison``, and the batch's telemetry (:func:`_persist_telemetry`).
    ``stamp`` -- a lease worker's ``{"worker": ..., "lease": ...}`` --
    is added to each poison diagnosis, attempt-ledger entry and
    store-retry record; ``run_records`` are the caller's own telemetry
    records (a resume's ``fit``, a lease's ledger entry), persisted with
    the batch's.  ``model`` prices each cell record's
    ``predicted_cost``.  Returns ``(store-append retries, telemetry
    records written)``.
    """
    busy_before = getattr(result_store, "busy_retries", 0)
    store_retries = append_results_with_retry(
        result_store,
        [outcome_record(o) for o in report.outcomes],
        retry=retry,
        fault_plan=fault_plan,
    )
    stamp = dict(stamp or {})
    if poison:
        result_store.append_poison(
            {
                "key": cell_key(o.scenario),
                "name": o.scenario.name,
                "attempts": int(o.attempts),
                "error_head": _error_head(o.error),
                "attempt_errors": list(o.attempt_errors),
                **stamp,
            }
            for o in poison
        )
    telemetry_count = _persist_telemetry(
        result_store,
        report,
        model=model,
        stamp=stamp,
        store_retries=store_retries,
        busy_retries=getattr(result_store, "busy_retries", 0) - busy_before,
        run_records=run_records,
    )
    return store_retries, telemetry_count


def _persist_telemetry(
    result_store: ResultStore,
    report: BatchReport,
    *,
    model=None,
    stamp: Mapping[str, Any],
    store_retries: int,
    busy_retries: int,
    run_records: Sequence[dict],
) -> int:
    """Append a committed batch's telemetry to the store's telemetry
    channel (see :func:`commit_outcomes`).

    One ``attempts`` ledger record per cell that needed more than a
    single attempt (fault kinds, final disposition), one ``cell``
    record per outcome that carried telemetry (annotated with the cell
    key, effective backend and recorded wall clock, plus the
    ``predicted_cost`` where ``model`` priced the cell, so the report's
    calibration table needs no join), the grouped evaluator's
    ``grouping``/``grouping_summary`` records, the caller's
    ``run_records``, and one ``store_retries`` record when the record
    append had to be retried (with the SQLite busy retries this commit
    spent; ``source`` ``"lease"`` for a stamped batch).
    Returns the record count; a disabled telemetry switch (or a batch
    with no telemetry) appends nothing.
    """
    from repro.runtime.telemetry import cell_record, enabled

    if not enabled():
        return 0
    records: list[dict] = [
        {
            "kind": "attempts",
            "key": cell_key(o.scenario),
            "name": o.scenario.name,
            "attempts": int(o.attempts),
            "faults": list(o.attempt_errors),
            "disposition": "poison" if o.error is not None else "recovered",
            **stamp,
        }
        for o in report.outcomes
        if o.retried
    ]
    for o in report.outcomes:
        if o.telemetry is None:
            continue
        priced = {}
        if model is not None:
            try:
                priced["predicted_cost"] = float(model.estimate(o.scenario))
            except Exception:
                pass  # unpriced: the calibration table skips the cell
        records.append(
            cell_record(
                o.telemetry,
                key=cell_key(o.scenario),
                eff_backend=o.eff_backend,
                wall_time=float(o.wall_time),
                primed=bool(o.primed),
                **priced,
            )
        )
    records.extend(dict(g) for g in report.group_stats)
    records.extend(run_records)
    if store_retries:
        records.append(
            {
                "kind": "store_retries",
                "append_retries": int(store_retries),
                "busy_retries": int(busy_retries),
                "source": "lease" if stamp else "campaign",
                **stamp,
            }
        )
    if records:
        result_store.append_telemetry(records)
    return len(records)

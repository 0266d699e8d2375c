"""Parallel execution runtime for thousand-cell scenario campaigns.

The scenario matrix (:mod:`repro.scenarios`) cross-validates the
paper's analytic worst-case delay bounds against simulation, one
verdict per cell.  Cells are embarrassingly parallel -- each is a pure
function of its :class:`~repro.scenarios.spec.Scenario` spec -- and
this package supplies the machinery that scales campaigns from the
tier-1 smoke slice to thousands of cells:

``executor`` (:mod:`repro.runtime.executor`)
    ``run_each(fn, payloads)`` calls ``fn`` on each payload in turn,
    in process, with retries and per-attempt timeouts, and returns one
    ``TaskResult`` per payload *in payload order*.
    ``ProcessExecutor`` (``scenarios run --jobs N``) is a chunked
    ``concurrent.futures`` process pool whose ``map_tasks`` maps a
    picklable *batch function* over chunks of the payloads; campaigns
    map the worker stage
    (:func:`repro.scenarios.runner.evaluate_batch`), which runs
    in process when no executor is given.  Failures are captured
    worker-side into per-cell ``TaskResult.error`` tracebacks -- one
    crashing cell fails its own verdict, never the campaign -- and a
    hard worker death is absorbed by pool resurrection.  In-process
    and pooled runs return bit-identical values (the scenario runner
    derives all randomness from the spec's seed).

``store`` (:mod:`repro.runtime.store`)
    The **pluggable persistent result store**: one record per evaluated
    cell, keyed by a sha256 content hash of the full spec (``cell_key``)
    plus a seed-independent ``spec_fingerprint`` used for deterministic
    per-cell seed derivation and lease planning.  Two backends share
    the contract behind ``open_store(url_or_path)``: the append-only
    JSONL directory store (``jsonl:DIR`` or a bare path), whose JSONL
    writes each hold an exclusive ``flock``, and a WAL-mode SQLite store
    (``sqlite:DIR``, :mod:`repro.runtime.store_sqlite`); both take
    concurrent coordinator workers without losing a record.  Corrupt
    rows are quarantined (file or table), never fatal; ``summary.json``
    aggregates the store **deterministically** (verdict counts only, no
    wall clocks), so coordinated, pooled and serial runs summarise
    bit-identically; ``diff_stores`` compares two campaigns
    cell-by-cell and flags soundness and perf-budget regressions (the
    CI baseline gate).  The record schema is documented in the module
    docstring.

``campaign`` (:mod:`repro.runtime.campaign`)
    The driver tying both together: ``run_campaign`` evaluates a matrix
    in process or on the process pool, commits the outcomes to a store,
    skips already-completed cells on ``resume``, and reports
    perf-budget violations alongside soundness.  ``commit_outcomes`` is
    the one way a finalised batch reaches a store (records, poison
    diagnoses, telemetry), for campaigns and lease workers alike.
    ``CampaignConfig`` is the JSON description behind the CLI's
    ``--campaign`` flag.

``cost`` (:mod:`repro.runtime.cost`)
    Cost-model-driven scheduling: ``CellCostModel`` predicts per-cell
    wall-clock from the spec (refittable from any store's recorded
    wall clocks), ``plan_chunks`` orders cells dearest-first into
    cost-equalised, variance-shrunk executor chunks, and
    ``backend_profile`` powers ``scenarios run --profile``.  Scheduling
    only: outcomes are bit-identical with or without it.

``telemetry`` (:mod:`repro.runtime.telemetry`)
    Dependency-free tracing/metrics: per-cell ``CellTelemetry`` records
    (phase spans, named counters, engine tallies) collected worker-side
    and returned with results, persisted to a separate telemetry
    table/file by both store backends (``summary.json`` never sees
    them), consumed by ``scenarios report`` and ``scenarios run
    --trace`` (Chrome trace-event JSON).  On by default; near-zero
    overhead; ``--no-telemetry`` (``set_enabled(False)``) kills it.

``faults`` (:mod:`repro.runtime.faults`)
    Deterministic chaos harness: a picklable ``FaultPlan`` injects
    worker kills, kernel raises, delays/hangs and store-write faults
    on a schedule that is a pure function of ``(fault_seed, cell
    fingerprint, attempt)``.  Paired with the executor's
    ``RetryPolicy`` / ``cell_timeout`` / pool resurrection and the
    stores' crash-consistent writes, it backs the campaign invariant
    that **retries never change results**: a campaign that survived
    injected worker kills writes a ``summary.json`` byte-identical to
    an undisturbed run (the CI chaos gate).  Off by default with a
    zero-overhead no-op check.

``coordinator`` (:mod:`repro.runtime.coordinator`)
    Lease-based work-stealing coordination for **multi-worker
    campaigns** over one store (``scenarios run --coordinator N`` plus
    any late-joining ``scenarios work``; beside the ``--jobs N`` process
    pool, the only multi-worker path): the coordinator plans cost-sized
    fingerprint leases (dearest first, shrinking toward the tail) into
    the store's ``leases``/``heartbeats`` tables (created ``IF NOT
    EXISTS``; the JSONL backend uses a ``leases.sqlite`` sidecar),
    ``scenarios work`` processes claim/steal them with atomic
    compare-and-swap and commit each lease through ``commit_outcomes``,
    and expired leases -- a SIGKILLed or hung worker -- are stolen,
    split for culprit isolation, or routed to the poison channel after
    repeated kills.  No record is lost in flight, so there are no
    recovery rounds: a planned cell without a record ends the run
    unconverged.  Leases only change *who* runs a cell, never its
    seed: ``summary.json`` after any chaos is byte-identical to an
    undisturbed serial run.

Usage::

    from repro.runtime import ProcessExecutor, ResultStore, run_campaign
    from repro.scenarios import generate_scenarios

    report = run_campaign(
        generate_scenarios(1000, seed=0, max_k=9, max_hops=6),
        executor=ProcessExecutor(jobs=4),
        store="campaigns/nightly",
        resume=True,
    )
    assert report.clean

or from the shell::

    repro-experiments scenarios run --campaign examples/campaign_thousand.json \\
        --jobs 4 --store campaigns/nightly --resume
    repro-experiments scenarios diff campaigns/last-week campaigns/nightly
"""

from repro.runtime.campaign import (
    CampaignConfig,
    CampaignReport,
    append_results_with_retry,
    build_campaign,
    outcome_record,
    run_campaign,
)
from repro.runtime.coordinator import (
    CoordinatorReport,
    WorkerReport,
    plan_campaign_leases,
    run_coordinator,
    work_store,
)
from repro.runtime.cost import (
    CellCostModel,
    backend_profile,
    plan_chunks,
    plan_leases,
)
from repro.runtime.executor import (
    CellTimeout,
    ProcessExecutor,
    RetryPolicy,
    TaskResult,
    run_each,
    run_one_with_retry,
)
from repro.runtime.faults import FaultPlan, InjectedFault
from repro.runtime.store import (
    CampaignDiff,
    JsonlResultStore,
    ResultStore,
    cell_key,
    diff_records,
    diff_stores,
    open_store,
    spec_fingerprint,
)
from repro.runtime.store_sqlite import (
    LEASE_STATES,
    LeaseTable,
    SqliteResultStore,
)
from repro.runtime.telemetry import (
    CellTelemetry,
    chrome_trace_events,
    enabled as telemetry_enabled,
    set_enabled as set_telemetry_enabled,
    write_chrome_trace,
)

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "CampaignDiff",
    "CellCostModel",
    "CellTelemetry",
    "CoordinatorReport",
    "LEASE_STATES",
    "LeaseTable",
    "WorkerReport",
    "append_results_with_retry",
    "plan_campaign_leases",
    "plan_leases",
    "run_coordinator",
    "run_each",
    "run_one_with_retry",
    "work_store",
    "chrome_trace_events",
    "set_telemetry_enabled",
    "telemetry_enabled",
    "write_chrome_trace",
    "backend_profile",
    "plan_chunks",
    "CellTimeout",
    "FaultPlan",
    "InjectedFault",
    "JsonlResultStore",
    "RetryPolicy",
    "ProcessExecutor",
    "ResultStore",
    "SqliteResultStore",
    "TaskResult",
    "build_campaign",
    "cell_key",
    "diff_records",
    "diff_stores",
    "open_store",
    "outcome_record",
    "run_campaign",
    "spec_fingerprint",
]

"""Lease-based work-stealing coordinator for multi-worker campaigns.

PR 8 made a *single* campaign process crash-consistent: bounded
retries, per-cell timeouts, torn-write quarantine, byte-identical
summaries under injected chaos.  This module lifts the same contract
to *many* processes sharing one store.  The coordination substrate is
the store itself -- a ``leases`` + ``heartbeats`` table pair created
``IF NOT EXISTS`` on connect (old stores upgrade in place; the JSONL
backend hosts them in a ``leases.sqlite`` sidecar because its record
files are single-writer by design).

The protocol, end to end:

1. The coordinator plans **fingerprint-range leases** over the cells
   missing from the store, sized by :class:`~repro.runtime.cost
   .CellCostModel` via :func:`~repro.runtime.cost.plan_leases` --
   dearest cells lead, leases shrink toward the tail (guided
   self-scheduling, the chunk planner's idiom lifted one level up).
   Each lease row carries its cells' full specs, so workers need
   nothing but the store URL.
2. **Workers** (forked by the coordinator, attached by hand with
   ``scenarios work``, or :func:`work_store` in-process) claim the
   dearest open lease with an atomic compare-and-swap and evaluate it
   through the worker stage every campaign shares
   (:func:`~repro.scenarios.runner.evaluate_batch`): a clean lease as
   grouped cell-matrix batches, a reclaimed lease, or any lease under
   a fault plan or a cell timeout, cell by cell.  They renew its
   deadline and their heartbeat *between* cells -- never during one,
   and a group kernel counts as one step, so a hung cell lapses the
   lease -- and commit whole-lease batches through the campaign's
   crash-consistent
   :func:`~repro.runtime.campaign.append_results_with_retry`.
3. A lease whose holder stops renewing (SIGKILLed, hung, partitioned)
   is **stolen** by any live worker once its deadline passes; stealing
   increments the lease's ``deaths``.  A stolen multi-cell lease is
   split into single-cell children so the culprit cell is cornered
   alone; a cell whose lease out-kills the death budget is routed to
   the **poison channel** with an error record instead of wedging the
   campaign.  The coordinator SIGKILLs workers whose heartbeat lapses
   far beyond the TTL and respawns replacements under a bounded
   budget.
4. A **restarted coordinator** supersedes whatever leases its
   predecessor left behind (carrying each cell's accumulated death
   count), re-plans the still-missing cells, and converges.

Determinism is the invariant the whole design leans on: a cell's RNG
derives from ``(campaign seed, spec fingerprint)`` and its store
record is keyed by content, so leases only change *who* runs a cell
-- never its seed, verdict, or record bytes.  Re-runs after a steal
append records identical to the ones the dead worker may already have
committed (last-record-wins), which is why ``summary.json`` after any
combination of kills, hangs, steals and restarts is byte-identical to
an undisturbed serial run -- the property ``ci/gate.sh`` enforces.

Reclaimed work re-enters evaluation with ``start_attempt = deaths +
1``, the lease-level twin of the executor's pool-death accounting: an
injected fault that fired on attempt 1 (``FaultPlan.max_attempt``)
stays silent when the stolen lease re-runs, so bounded chaos provably
converges.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.runtime import faults, telemetry
from repro.runtime.campaign import append_results_with_retry, outcome_record
from repro.runtime.cost import CellCostModel, plan_leases
from repro.runtime.executor import (
    RetryPolicy,
    TaskResult,
    _error_head,
    allowed_deaths,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.store import (
    ResultStore,
    _spec_dict,
    cell_key,
    open_store,
    spec_fingerprint,
)
from repro.scenarios.spec import Scenario, scenario_from_dict

__all__ = [
    "DEFAULT_LEASE_TTL",
    "IDLE_POLL_S",
    "RECOVERY_ROUNDS",
    "WorkerReport",
    "CoordinatorReport",
    "plan_campaign_leases",
    "work_store",
    "run_coordinator",
]

#: Default lease time-to-live in seconds.  Guidance: comfortably above
#: the slowest group kernel of one lease (at most ``max_cells`` cells)
#: and the slowest single cell's full attempt budget (attempts x
#: timeout + backoff), because workers renew between cells only and a
#: group kernel is one step -- a shorter TTL makes healthy leases look
#: dead and double-runs them (harmlessly, but wastefully).
DEFAULT_LEASE_TTL = 30.0

#: Sleep between polls, for an idle worker and for the supervising
#: coordinator.  A poll is a few small SQLite transactions (tens of
#: microseconds), so polling often is cheap, and it bounds the idle
#: time between the last commit and the coordinator's return.
IDLE_POLL_S = 0.05

#: Bounded final-convergence rounds: after all workers exit, cells
#: still missing a record (e.g. lost to a torn concurrent JSONL
#: append) are re-leased to a fresh worker this many times before the
#: coordinator reports non-convergence.
RECOVERY_ROUNDS = 3


def _cell_payload(sc: Scenario, cost: float) -> dict:
    """The self-contained per-cell entry a lease row carries."""
    spec = _spec_dict(sc)
    return {
        "key": cell_key(spec),
        "fingerprint": spec_fingerprint(spec),
        "name": sc.name,
        "cost": float(cost),
        "spec": spec,
    }


def plan_campaign_leases(
    store: ResultStore,
    scenarios: Sequence[Scenario],
    workers: int,
    *,
    cost_model: Optional[CellCostModel] = None,
    max_cells: int = 16,
    deaths: Optional[dict] = None,
) -> list[int]:
    """Insert open leases covering ``scenarios`` and return their ids.

    Lease boundaries come from :func:`~repro.runtime.cost.plan_leases`
    over the cost model's estimates; ``deaths`` (cell key -> count)
    carries kill history across a coordinator restart -- a new lease
    inherits the worst death count among its cells.
    """
    if not scenarios:
        return []
    model = cost_model or CellCostModel()
    costs = model.estimate_many(scenarios)
    rows = []
    for group in plan_leases(costs, workers, max_cells=max_cells):
        cells = [_cell_payload(scenarios[i], costs[i]) for i in group]
        inherited = (
            max(int(deaths.get(c["key"], 0)) for c in cells) if deaths else 0
        )
        rows.append(
            {
                "cells": cells,
                "cost": float(sum(c["cost"] for c in cells)),
                "deaths": inherited,
            }
        )
    return store.leases().add_many(rows)


# ----------------------------------------------------------------------
# The worker half (``scenarios work``)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerReport:
    """One worker's lease ledger (returned by :func:`work_store`)."""

    worker_id: str
    leases_done: int = 0
    leases_stolen: int = 0
    leases_split: int = 0
    leases_poisoned: int = 0
    leases_abandoned: int = 0
    cells_evaluated: int = 0
    cells_poisoned: int = 0
    retried_cells: int = 0
    store_retries: int = 0
    wall_s: float = 0.0

    def summary_lines(self) -> list[str]:
        lines = [
            f"worker {self.worker_id}: {self.leases_done} leases done, "
            f"{self.cells_evaluated} cells evaluated "
            f"({self.wall_s:.2f}s)",
        ]
        if self.leases_stolen or self.leases_split or self.leases_abandoned:
            lines.append(
                f"  reclaims: {self.leases_stolen} leases stolen, "
                f"{self.leases_split} split for culprit isolation, "
                f"{self.leases_abandoned} abandoned (lost to a peer)"
            )
        if self.leases_poisoned or self.cells_poisoned or self.retried_cells:
            lines.append(
                f"  fault tolerance: {self.retried_cells} cells retried, "
                f"{self.cells_poisoned} poisoned "
                f"({self.leases_poisoned} leases), "
                f"{self.store_retries} store-write retries"
            )
        return lines


def work_store(
    store: Union[str, Path, ResultStore],
    worker_id: str,
    *,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    retry: Optional[RetryPolicy] = None,
    cell_timeout: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    clock: Callable[[], float] = time.time,
    sleep: Callable[[float], None] = time.sleep,
    max_leases: Optional[int] = None,
) -> WorkerReport:
    """Drain leases from ``store`` until no outstanding work remains.

    The worker protocol: claim the dearest open lease (else steal the
    dearest expired one), renew deadline + heartbeat between cells,
    evaluate, commit the whole lease through the campaign's
    crash-consistent append path, mark the lease done.  A renew that
    fails means the lease was reclaimed -- the worker abandons it
    without committing (the thief re-runs; duplicate records would be
    byte-identical anyway).  Returns when ``unfinished() == 0`` or
    after ``max_leases`` leases (testing hook).

    ``clock``/``sleep`` are injectable for deterministic tests; real
    workers use wall time, which all workers on a host share.  An idle
    worker sleeps :data:`IDLE_POLL_S` between polls.
    """
    st = open_store(store)
    lt = st.leases()
    budget = allowed_deaths(retry)
    t_begin = time.perf_counter()
    done = stolen_n = split_n = poisoned_n = abandoned_n = 0
    cells_n = cells_poisoned = retried = store_retries = 0
    try:
        while max_leases is None or done + poisoned_n < max_leases:
            now = clock()
            lt.beat(worker_id, now, None, os.getpid())
            lease = lt.claim(worker_id, lease_ttl, now)
            was_stolen = False
            if lease is None:
                lease = lt.steal(worker_id, lease_ttl, now)
                was_stolen = lease is not None
            if lease is None:
                if lt.unfinished() == 0:
                    break
                sleep(IDLE_POLL_S)
                continue
            if was_stolen:
                stolen_n += 1
                if len(lease["cells"]) > 1:
                    # Culprit isolation: re-queue the reclaimed cells
                    # one per lease so a killer cell is cornered alone.
                    lt.split(
                        lease["id"],
                        worker_id,
                        [
                            {
                                "cells": [c],
                                "cost": float(c.get("cost", 0.0)),
                                "deaths": lease["deaths"],
                            }
                            for c in lease["cells"]
                        ],
                    )
                    split_n += 1
                    continue
            if lease["deaths"] >= budget:
                if _poison_lease(
                    st, lt, lease, worker_id, retry=retry, fault_plan=fault_plan
                ):
                    poisoned_n += 1
                    cells_poisoned += len(lease["cells"])
                continue
            outcome = _run_lease(
                st,
                lt,
                lease,
                worker_id,
                stolen=was_stolen,
                lease_ttl=lease_ttl,
                retry=retry,
                cell_timeout=cell_timeout,
                fault_plan=fault_plan,
                clock=clock,
            )
            if outcome is None:
                abandoned_n += 1
                continue
            done += 1
            cells_n += outcome["cells"]
            retried += outcome["retried"]
            cells_poisoned += outcome["poisoned"]
            store_retries += outcome["store_retries"]
    finally:
        st.close()
    return WorkerReport(
        worker_id=worker_id,
        leases_done=done,
        leases_stolen=stolen_n,
        leases_split=split_n,
        leases_poisoned=poisoned_n,
        leases_abandoned=abandoned_n,
        cells_evaluated=cells_n,
        cells_poisoned=cells_poisoned,
        retried_cells=retried,
        store_retries=store_retries,
        wall_s=time.perf_counter() - t_begin,
    )


class _LeaseLost(Exception):
    """A renew failed: the lease was reclaimed mid-run."""


def _run_lease(
    st: ResultStore,
    lt,
    lease: dict,
    worker_id: str,
    *,
    stolen: bool,
    lease_ttl: float,
    retry: Optional[RetryPolicy],
    cell_timeout: Optional[float],
    fault_plan: Optional[FaultPlan],
    clock: Callable[[], float],
) -> Optional[dict]:
    """Evaluate one held lease; ``None`` means it was lost mid-run.

    The lease runs through the worker stage
    (:func:`~repro.scenarios.runner.evaluate_batch`) from attempt
    ``deaths + 1``: grouped on a clean first run, cell by cell when it
    was reclaimed or runs under a fault plan or a cell timeout.  Its
    ``tick`` renews the lease and beats as each cell completes, so the
    renews fall between cells (a group kernel is one step), and the
    first failed renew abandons the lease without committing.
    """
    from repro.scenarios.runner import evaluate_batch, finalise_batch

    scenarios = [scenario_from_dict(c["spec"]) for c in lease["cells"]]
    deaths = int(lease["deaths"])
    prior = (
        (f"lease {lease['id']} reclaimed after {deaths} worker death(s)",)
        if deaths
        else ()
    )

    def renew(*_progress) -> None:
        now = clock()
        if not lt.renew(lease["id"], worker_id, lease_ttl, now):
            raise _LeaseLost  # reclaimed: the thief owns these cells now
        lt.beat(worker_id, now, lease["id"], os.getpid())

    t0 = time.perf_counter()
    try:
        renew()
        tasks = evaluate_batch(
            scenarios,
            deaths + 1,
            retry=retry,
            cell_timeout=cell_timeout,
            fault_plan=fault_plan,
            prior_errors=prior,
            tick=renew,
        )
    except _LeaseLost:
        return None
    report = finalise_batch(scenarios, tasks, time.perf_counter() - t0)
    store_retries = append_results_with_retry(
        st,
        [outcome_record(o) for o in report.outcomes],
        retry=retry,
        fault_plan=fault_plan,
    )
    poison = (
        [o for o in report.outcomes if o.error is not None]
        if retry is not None and retry.max_attempts > 1
        else []
    )
    if poison:
        st.append_poison(
            {
                "key": cell_key(o.scenario),
                "name": o.scenario.name,
                "attempts": int(o.attempts),
                "error_head": _error_head(o.error),
                "attempt_errors": list(o.attempt_errors),
                "worker": worker_id,
                "lease": int(lease["id"]),
            }
            for o in poison
        )
    _persist_worker_telemetry(
        st, report, lease, worker_id, stolen=stolen, store_retries=store_retries
    )
    if not lt.finish(lease["id"], worker_id, "done"):
        return None  # stolen during the final commit; records are valid
    return {
        "cells": len(scenarios),
        "retried": sum(
            1 for o in report.outcomes if o.attempts > 1 or o.attempt_errors
        ),
        "poisoned": len(poison),
        "store_retries": store_retries,
    }


def _poison_lease(
    st: ResultStore,
    lt,
    lease: dict,
    worker_id: str,
    *,
    retry: Optional[RetryPolicy],
    fault_plan: Optional[FaultPlan],
) -> bool:
    """Route a worker-killing lease's cells to the poison channel.

    Cells get ordinary *error* records (so ``--resume`` keeps retrying
    exactly them, matching single-process poison semantics) plus a
    poison-channel diagnosis; the lease terminates ``poison`` instead
    of cycling through workers forever.
    """
    from repro.scenarios.runner import finalise_batch

    deaths = int(lease["deaths"])
    msg = (
        f"cell killed {deaths} workers (lease {lease['id']}); "
        f"routed to poison channel"
    )
    scenarios = [scenario_from_dict(c["spec"]) for c in lease["cells"]]
    tasks = [
        TaskResult(
            index=i,
            error=msg,
            attempts=deaths,
            attempt_errors=(msg,),
        )
        for i in range(len(scenarios))
    ]
    report = finalise_batch(scenarios, tasks, 0.0)
    append_results_with_retry(
        st,
        [outcome_record(o) for o in report.outcomes],
        retry=retry,
        fault_plan=fault_plan,
    )
    st.append_poison(
        {
            "key": cell_key(sc),
            "name": sc.name,
            "attempts": deaths,
            "error_head": _error_head(msg),
            "attempt_errors": [msg],
            "worker": worker_id,
            "lease": int(lease["id"]),
        }
        for sc in scenarios
    )
    if telemetry.enabled():
        st.append_telemetry(
            [
                {
                    "kind": "lease",
                    "lease": int(lease["id"]),
                    "worker": worker_id,
                    "cells": len(scenarios),
                    "deaths": deaths,
                    "steals": int(lease["steals"]),
                    "disposition": "poison",
                }
            ]
        )
    return lt.finish(lease["id"], worker_id, "poison")


def _persist_worker_telemetry(
    st: ResultStore,
    report,
    lease: dict,
    worker_id: str,
    *,
    stolen: bool,
    store_retries: int,
) -> int:
    """One ``kind="lease"`` ledger record per lease plus the usual
    per-cell telemetry and attempt-ledger records (see
    :func:`repro.runtime.campaign._persist_telemetry`); the report's
    "Lease ledger" section renders these."""
    if not telemetry.enabled():
        return 0
    records: list[dict] = []
    for o in report.outcomes:
        if o.attempts > 1 or o.attempt_errors:
            records.append(
                {
                    "kind": "attempts",
                    "key": cell_key(o.scenario),
                    "name": o.scenario.name,
                    "attempts": int(o.attempts),
                    "faults": list(o.attempt_errors),
                    "disposition": (
                        "poison" if o.error is not None else "recovered"
                    ),
                    "worker": worker_id,
                    "lease": int(lease["id"]),
                }
            )
        if o.telemetry is not None:
            records.append(
                telemetry.cell_record(
                    o.telemetry,
                    key=cell_key(o.scenario),
                    eff_backend=o.eff_backend,
                    wall_time=float(o.wall_time),
                    primed=bool(o.primed),
                )
            )
    records.append(
        {
            "kind": "lease",
            "lease": int(lease["id"]),
            "worker": worker_id,
            "cells": len(lease["cells"]),
            "stolen": bool(stolen),
            "deaths": int(lease["deaths"]),
            "steals": int(lease["steals"]),
            "store_retries": int(store_retries),
            "disposition": "done",
            "wall_s": float(report.elapsed),
        }
    )
    st.append_telemetry(records)
    return len(records)


# ----------------------------------------------------------------------
# The coordinator half (``scenarios run --coordinator``)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CoordinatorReport:
    """One coordinated campaign: lease plan, reclaim ledger, summary."""

    requested: int
    skipped: int
    planned_leases: int
    workers: int
    lease_ttl: float
    lease_counts: dict
    stolen_leases: int
    worker_deaths: int
    superseded_leases: int
    respawns: int
    hung_killed: int
    recovery_rounds: int
    converged: bool
    summary: dict
    store_root: str
    store_kind: str
    wall_s: float

    @property
    def clean(self) -> bool:
        """Converged with no unsound/error/budget verdict in the store."""
        return (
            self.converged
            and int(self.summary.get("unsound", 0)) == 0
            and int(self.summary.get("errors", 0)) == 0
            and int(self.summary.get("budget_violations", 0)) == 0
        )

    def summary_lines(self) -> list[str]:
        counts = self.lease_counts
        lines = [
            f"cells requested: {self.requested} "
            f"({self.skipped} already in store)",
            f"leases: {self.planned_leases} planned across "
            f"{self.workers} workers (ttl {self.lease_ttl:g}s)",
            f"lease outcomes: {counts.get('done', 0)} done, "
            f"{counts.get('split', 0)} split, "
            f"{counts.get('poison', 0)} poison",
        ]
        if (
            self.stolen_leases
            or self.worker_deaths
            or self.respawns
            or self.hung_killed
            or self.superseded_leases
        ):
            lines.append(
                f"reclaims: {self.stolen_leases} leases stolen "
                f"({self.worker_deaths} worker deaths), "
                f"{self.respawns} workers respawned, "
                f"{self.hung_killed} hung workers killed, "
                f"{self.superseded_leases} stale leases superseded"
            )
        if self.recovery_rounds:
            lines.append(
                f"recovery: {self.recovery_rounds} re-lease round(s) "
                f"for records lost in flight"
            )
        if not self.converged:
            lines.append(
                "NOT CONVERGED: cells remain without records "
                "(respawn/recovery budget exhausted)"
            )
        s = self.summary
        lines.append(
            f"store: {self.store_root} [{self.store_kind}] "
            f"({s.get('cells', 0)} records; {s.get('unsound', 0)} unsound, "
            f"{s.get('errors', 0)} errors, "
            f"{s.get('budget_violations', 0)} over budget) "
            f"in {self.wall_s:.2f}s"
        )
        return lines


def _spawn_worker(
    store_url: str,
    worker_id: str,
    *,
    lease_ttl: float,
    retry: Optional[RetryPolicy],
    cell_timeout: Optional[float],
    fault_plan: Optional[FaultPlan],
    log_dir: Path,
) -> multiprocessing.Process:
    """Fork one lease worker off this already-imported process.

    The child runs :func:`work_store` against ``store_url`` with the
    coordinator's retry policy, cell timeout, fault plan and telemetry
    switch, and writes its output to ``worker-<id>.log`` in ``log_dir``.
    The caller must hold no open SQLite connection: none may cross a
    fork.  Returns the started process (its ``pid`` is set).
    """
    proc = multiprocessing.get_context("fork").Process(
        target=_worker_main,
        args=(store_url, worker_id, log_dir / f"worker-{worker_id}.log"),
        kwargs={
            "collect": telemetry.enabled(),
            "lease_ttl": lease_ttl,
            "retry": retry,
            "cell_timeout": cell_timeout,
            "fault_plan": fault_plan,
        },
        name=f"lease-worker-{worker_id}",
    )
    proc.start()
    return proc


def _worker_main(
    store_url: str,
    worker_id: str,
    log_path: Path,
    *,
    collect: bool,
    fault_plan: Optional[FaultPlan],
    **options,
) -> None:
    """Body of a forked lease worker (see :func:`_spawn_worker`)."""
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.dup2(fd, 1)
    os.dup2(fd, 2)
    os.close(fd)
    sys.stdout = open(1, "w", buffering=1, closefd=False)
    sys.stderr = open(2, "w", buffering=1, closefd=False)
    telemetry.set_enabled(collect)
    if fault_plan is not None:
        # A lease worker's death is what the coordinator's reclaim path
        # exists to absorb: injected kills must be real here.
        faults.allow_kill(True)
    report = work_store(store_url, worker_id, fault_plan=fault_plan, **options)
    print("== Lease worker ==")
    for line in report.summary_lines():
        print(line)


def _reap(proc: multiprocessing.Process, *, kill: bool = False) -> None:
    """Wait for a worker (SIGKILLed first with ``kill``) and release it."""
    if kill:
        proc.kill()
    proc.join()
    proc.close()


def run_coordinator(
    scenarios: Sequence[Scenario],
    *,
    store: Union[str, Path, ResultStore],
    workers: int = 2,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    retry: Optional[RetryPolicy] = None,
    cell_timeout: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    cost_model: Optional[CellCostModel] = None,
    max_cells: int = 16,
    max_respawns: Optional[int] = None,
    recovery_rounds: int = RECOVERY_ROUNDS,
) -> CoordinatorReport:
    """Run ``scenarios`` to completion with ``workers`` lease workers.

    Plans leases over the cells missing from the store (a restarted
    coordinator therefore resumes for free: completed cells are never
    re-leased, stale leases are superseded with their death history
    carried forward), forks ``workers`` local lease workers off this
    already-imported process (see :func:`_spawn_worker`), supervises
    them -- respawning dead ones and killing hung ones under a bounded
    budget -- and finally heals the store and writes ``summary.json``.
    Every worker has been waited for when this returns.  The summary is
    byte-identical to an undisturbed serial run over the same matrix:
    leases change *who* runs a cell, never its seed or record.

    ``fault_plan`` is handed to the workers as is (they arm real
    ``kill`` faults); the coordinator process itself never injects.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    t_begin = time.perf_counter()
    st = open_store(store)
    lt = st.leases()
    scenarios = list(scenarios)

    # Restart path: whatever a dead coordinator left behind is
    # superseded; each cell's death count survives into the new plan.
    stale = lt.supersede_incomplete()
    carried: dict[str, int] = {}
    for row in stale:
        for c in row["cells"]:
            key = c.get("key")
            if key:
                carried[key] = max(carried.get(key, 0), int(row["deaths"]))

    completed = st.completed_keys()
    todo = [sc for sc in scenarios if cell_key(sc) not in completed]
    planned = plan_campaign_leases(
        st,
        todo,
        workers,
        cost_model=cost_model,
        max_cells=max_cells,
        deaths=carried or None,
    )

    store_url = f"{st.kind}:{st.root}"
    log_dir = Path(st.root)
    budget = max_respawns if max_respawns is not None else max(4, 2 * workers)
    hung_after = max(2.0 * lease_ttl, 5.0)
    tag = os.getpid()

    procs: dict[str, multiprocessing.Process] = {}
    spawned_at: dict[str, float] = {}
    respawns = hung_killed = worker_seq = 0
    converged = True

    def _spawn() -> None:
        nonlocal worker_seq
        worker_seq += 1
        wid = f"w{worker_seq}-{tag}"
        st.close()  # no SQLite connection may cross the fork
        procs[wid] = _spawn_worker(
            store_url,
            wid,
            lease_ttl=lease_ttl,
            retry=retry,
            cell_timeout=cell_timeout,
            fault_plan=fault_plan,
            log_dir=log_dir,
        )
        spawned_at[wid] = time.time()

    try:
        if planned:
            for _ in range(workers):
                _spawn()
            while True:
                for wid, proc in list(procs.items()):
                    if proc.exitcode is not None:
                        _reap(procs.pop(wid))
                if lt.unfinished() == 0:
                    break
                now = time.time()
                beats = {hb["worker"]: hb for hb in lt.heartbeat_rows()}
                for wid in list(procs):
                    hb = beats.get(wid)
                    if (
                        hb is not None
                        and now - hb["beat"] > hung_after
                        and now - spawned_at[wid] > hung_after
                    ):
                        # Alive but silent far beyond the TTL: a wedged
                        # worker.  Its lease is already fair game; reap it.
                        _reap(procs.pop(wid), kill=True)
                        hung_killed += 1
                while len(procs) < workers and respawns < budget:
                    _spawn()
                    respawns += 1
                if not procs:
                    converged = False  # respawn budget exhausted mid-campaign
                    break
                time.sleep(IDLE_POLL_S)
            for wid, proc in list(procs.items()):
                proc.join(timeout=lease_ttl + 10)
                _reap(procs.pop(wid), kill=proc.exitcode is None)

        # Convergence: every planned cell must have landed a record (a
        # concurrent torn JSONL append can lose one); re-lease stragglers
        # to a fresh worker a bounded number of times.  Each pass is one
        # streamed read that heals (its first corrupt row falls back to
        # load(), which quarantines torn residue) and whose verdicts
        # feed the missing set and, once no worker runs, the summary.
        rounds = 0
        verdicts = st.verdicts()
        if converged:
            for _ in range(max(0, recovery_rounds)):
                missing = [sc for sc in todo if cell_key(sc) not in verdicts]
                if not missing:
                    break
                rounds += 1
                plan_campaign_leases(
                    st,
                    missing,
                    1,
                    cost_model=cost_model,
                    max_cells=max_cells,
                    deaths=carried or None,
                )
                _spawn()
                for wid in list(procs):
                    _reap(procs.pop(wid))
                verdicts = st.verdicts()
            else:
                converged = not any(
                    cell_key(sc) not in verdicts for sc in todo
                )
    finally:
        # Only an exception leaves workers here: never orphan them.
        for proc in procs.values():
            _reap(proc, kill=True)

    counts = lt.counts()
    rows = lt.rows()
    stolen = sum(int(r["steals"]) for r in rows)
    deaths_total = sum(int(r["deaths"]) for r in rows if int(r["steals"]))
    if telemetry.enabled():
        st.append_telemetry(
            [
                {
                    "kind": "leases",
                    "planned": len(planned),
                    "workers": int(workers),
                    "lease_ttl": float(lease_ttl),
                    "done": counts.get("done", 0),
                    "split": counts.get("split", 0),
                    "poison": counts.get("poison", 0),
                    "superseded": len(stale),
                    "stolen": stolen,
                    "worker_deaths": deaths_total,
                    "respawns": respawns,
                    "hung_killed": hung_killed,
                    "recovery_rounds": rounds,
                    "converged": bool(converged),
                    "source": "coordinator",
                }
            ]
        )
    # A read that quarantined rows healed the store; the summary then
    # comes from a second read of the healed store, as it always has
    # (whose quarantined_rows is 0).
    summary = st.write_summary(verdicts=None if st.quarantined else verdicts)
    report = CoordinatorReport(
        requested=len(scenarios),
        skipped=len(scenarios) - len(todo),
        planned_leases=len(planned),
        workers=workers,
        lease_ttl=lease_ttl,
        lease_counts=counts,
        stolen_leases=stolen,
        worker_deaths=deaths_total,
        superseded_leases=len(stale),
        respawns=respawns,
        hung_killed=hung_killed,
        recovery_rounds=rounds,
        converged=converged,
        summary=dict(summary),
        store_root=str(st.root),
        store_kind=st.kind,
        wall_s=time.perf_counter() - t_begin,
    )
    st.close()
    return report

"""Pluggable execution backends for embarrassingly parallel cell work.

An :class:`Executor` maps a picklable, module-level function over a
sequence of picklable payloads and returns one :class:`TaskResult` per
payload, **in payload order**, regardless of completion order.  Two
backends share the contract:

``SerialExecutor``
    In-process loop; the reference semantics the pool must reproduce
    bit-for-bit (results may only differ by wall time).
``ProcessExecutor``
    ``concurrent.futures.ProcessPoolExecutor``; the scale backend for
    CPU-bound DES cells.  Payloads are submitted in contiguous chunks
    (amortising pickling and task dispatch), and the worker function
    plus payloads must be picklable.

Multi-process campaigns over one shared store use the lease
coordinator (:mod:`repro.runtime.coordinator`) instead of an executor.

Failure containment: a payload that raises is captured **inside the
worker** and returned as ``TaskResult(error=<traceback>)`` -- one
crashing cell never takes down its chunk, let alone the campaign.

Fault tolerance (opt-in, zero-overhead default):

* :class:`RetryPolicy` -- bounded per-cell retries with exponential
  backoff and *deterministic* jitter (derived from the policy seed and
  the cell index, never from a shared RNG stream), so retry schedules
  are replayable.  Retries happen inside the worker, next to the cell.
* ``cell_timeout`` -- a per-attempt wall-clock cap enforced with
  ``SIGALRM`` inside the executing process (the serial backend and
  process workers), surfaced as a :class:`CellTimeout` error and
  therefore retryable.
* Pool resurrection -- a hard worker death (``BrokenProcessPool``)
  breaks *every* in-flight future and cannot name the culprit cell.
  The process backend responds by killing the pool, re-submitting all
  outstanding cells **individually** to a fresh pool (so the next
  death isolates its culprit to one cell), and counting per-cell
  *exposures*: a cell in flight during more than
  :func:`allowed_deaths` deaths is declared poison and failed with its
  own disposition, while collateral cells complete normally.  After
  :data:`MAX_POOL_DEATHS` the backend degrades to in-parent serial
  execution rather than fail the campaign.  A watchdog (armed only
  when ``cell_timeout`` is set) additionally treats a chunk that
  overstays its worst-case attempt budget as a pool death, which
  unsticks cells hung in C code where ``SIGALRM`` cannot fire.

Determinism under retry: attempt numbers are visible only to the fault
injection layer (:mod:`repro.runtime.faults`) and the attempt ledger
-- never to cell seeds -- so a retried cell returns bit-identical
results to an undisturbed one.
"""

from __future__ import annotations

import dataclasses
import signal
import threading
import time
import traceback
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, Executor as _FuturesExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Callable, Optional, Sequence

from repro.runtime import faults
from repro.runtime.telemetry import (
    CellTelemetry,
    begin_cell,
    end_cell,
    enabled as telemetry_enabled,
)
from repro.utils.rng import derive_seed

__all__ = [
    "TaskResult",
    "RetryPolicy",
    "CellTimeout",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "allowed_deaths",
    "auto_chunksize",
    "run_one_with_retry",
]

#: Upper bound on the automatic chunk size (keeps progress granular).
MAX_AUTO_CHUNK = 16
#: Chunks-per-worker target of the automatic chunk size (load balance:
#: several chunks per worker absorb cell-cost variance).
CHUNKS_PER_WORKER = 4

#: Pool deaths tolerated before the process backend stops resurrecting
#: pools and degrades to in-parent serial execution for the remainder.
MAX_POOL_DEATHS = 4
#: Without a retry policy, a cell in flight during more than this many
#: worker deaths is declared the culprit and failed (with retries the
#: budget is ``max_attempts``, see :func:`allowed_deaths`); one
#: exposure must stay survivable because a chunk death always exposes
#: innocent chunk-mates.
MIN_DEATH_EXPOSURES = 2
#: Watchdog poll interval (seconds) while a cell timeout is armed.
WATCHDOG_TICK_S = 0.1
#: Watchdog slack on top of a chunk's worst-case attempt budget
#: (dispatch, pickling, scheduler noise).
WATCHDOG_GRACE_S = 2.0


class CellTimeout(Exception):
    """A cell attempt exceeded its wall-clock budget (retryable)."""


@dataclass(frozen=True)
class TaskResult:
    """One payload's outcome: a value or a captured worker traceback."""

    index: int
    value: Any = None
    error: Optional[str] = None
    wall_time: float = 0.0
    #: Worker-side telemetry for this payload (``None`` when collection
    #: is disabled); excluded from equality so the determinism gates
    #: keep comparing values, not timings.
    telemetry: Optional[CellTelemetry] = dataclass_field(
        default=None, compare=False, repr=False
    )
    #: Attempts this payload consumed (1 = first try succeeded); like
    #: telemetry, ledger fields never participate in equality -- retry
    #: history must stay invisible to the determinism surface.
    attempts: int = dataclass_field(default=1, compare=False)
    #: One-line error heads of the failed attempts (oldest first; on a
    #: final failure the last entry describes the terminal error).
    attempt_errors: tuple = dataclass_field(default=(), compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded per-cell retries with replayable backoff.

    ``max_attempts`` counts total tries (1 = no retry).  Sleeps grow as
    ``backoff_base * backoff_factor**(attempt-1)`` capped at
    ``backoff_max``, stretched by a jitter factor in ``[1, 1+jitter]``
    drawn deterministically from ``(seed, token, attempt)`` -- never
    from a shared RNG -- so two runs sleep the same schedule and
    concurrent workers never contend for random state.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")

    def delay(self, attempt: int, token: Any = 0) -> float:
        """Sleep before the attempt *after* ``attempt`` failed."""
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )
        if base <= 0 or self.jitter <= 0:
            return base
        import numpy as np

        rng = np.random.default_rng(
            derive_seed(self.seed, "retry-jitter", str(token), int(attempt))
        )
        return base * (1.0 + self.jitter * float(rng.random()))

    def sleep_budget(self) -> float:
        """Worst-case total backoff across a cell's full retry budget."""
        return sum(
            min(
                self.backoff_max,
                self.backoff_base * self.backoff_factor ** max(0, a - 1),
            )
            * (1.0 + self.jitter)
            for a in range(1, self.max_attempts)
        )


def allowed_deaths(retry: Optional[RetryPolicy]) -> int:
    """Worker deaths a cell may be in flight for before it is declared
    poison: ``max(MIN_DEATH_EXPOSURES, retry.max_attempts)``.

    One budget for both multi-worker paths: the process pool counts
    pool deaths per cell, the lease coordinator
    (:mod:`repro.runtime.coordinator`) worker deaths per lease.
    """
    return max(MIN_DEATH_EXPOSURES, retry.max_attempts if retry else 0)


def auto_chunksize(n_tasks: int, jobs: int) -> int:
    """Contiguous chunk size balancing dispatch overhead vs. skew."""
    if n_tasks <= 0:
        return 1
    per_worker = -(-n_tasks // max(1, jobs * CHUNKS_PER_WORKER))  # ceil div
    return max(1, min(MAX_AUTO_CHUNK, per_worker))


def _check_plan(chunk_plan: Sequence[Sequence[int]], n: int) -> None:
    """A chunk plan must cover every payload index exactly once."""
    seen: set[int] = set()
    count = 0
    for chunk in chunk_plan:
        for i in chunk:
            i = int(i)
            if not 0 <= i < n:
                raise ValueError(f"chunk plan index {i} out of range [0, {n})")
            seen.add(i)
            count += 1
    if count != n or len(seen) != n:
        raise ValueError(
            f"chunk plan must cover all {n} payloads exactly once "
            f"(got {count} entries, {len(seen)} distinct)"
        )


def _error_head(err: Optional[str]) -> str:
    """The last non-empty line of a traceback (ledger-sized)."""
    if not err:
        return ""
    lines = [ln.strip() for ln in str(err).strip().splitlines() if ln.strip()]
    return lines[-1][:200] if lines else ""


@contextmanager
def _alarm(seconds: Optional[float]):
    """Arm a ``SIGALRM``-based wall-clock cap around one cell attempt.

    Signals only work on the main thread of a process -- which is where
    serial cells and process-pool worker cells run.  Off the main thread
    (a caller running a campaign from a thread of its own) this is a
    no-op rather than letting ``signal.signal`` raise.
    """
    if (
        seconds is None
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise CellTimeout(
            f"cell attempt exceeded its wall-clock budget of {seconds:g} s"
        )

    prev = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, prev)


def _run_one(
    fn: Callable[[Any], Any],
    index: int,
    payload: Any,
    collect: bool = True,
    attempt: int = 1,
    cell_timeout: Optional[float] = None,
) -> TaskResult:
    """Worker-side unit of execution with exception capture.

    ``collect`` carries the parent's telemetry switch across the
    process boundary (spawned workers re-import modules, so the global
    flag alone cannot be trusted there); :func:`begin_cell` still
    honours the local global, so both ends must agree to collect.

    ``attempt`` is published thread-locally for the fault-injection
    layer and the ledger only -- the payload itself never sees it, so
    retried evaluations stay bit-identical.
    """
    tel = (
        begin_cell(str(getattr(payload, "name", index))) if collect else None
    )
    t0 = time.perf_counter()
    try:
        with faults.attempt_scope(attempt):
            with _alarm(cell_timeout):
                value = fn(payload)
    except Exception:
        end_cell(tel)
        return TaskResult(
            index=index,
            error=traceback.format_exc(limit=20),
            wall_time=time.perf_counter() - t0,
            telemetry=tel,
            attempts=attempt,
        )
    end_cell(tel)
    return TaskResult(
        index=index,
        value=value,
        wall_time=time.perf_counter() - t0,
        telemetry=tel,
        attempts=attempt,
    )


def run_one_with_retry(
    fn: Callable[[Any], Any],
    index: int,
    payload: Any,
    collect: bool = True,
    retry: Optional[RetryPolicy] = None,
    cell_timeout: Optional[float] = None,
    start_attempt: int = 1,
    prior_errors: Sequence[str] = (),
) -> TaskResult:
    """Run one payload through its (remaining) retry budget.

    ``start_attempt`` > 1 accounts for attempts already consumed
    elsewhere -- e.g. exposures to pool deaths, the grouped evaluator's
    first pass, or a reclaimed lease's worker deaths
    (:mod:`repro.runtime.coordinator`) -- so the total budget stays
    bounded no matter which layer spent it.  ``prior_errors`` seeds the
    ledger with those earlier failures.
    """
    budget = retry.max_attempts if retry is not None else 1
    log = list(prior_errors)
    attempt = max(1, start_attempt)
    while True:
        tr = _run_one(fn, index, payload, collect, attempt, cell_timeout)
        if tr.ok or attempt >= budget:
            if tr.error is not None:
                log.append(_error_head(tr.error))
            if log:
                tr = dataclasses.replace(tr, attempt_errors=tuple(log))
            return tr
        log.append(_error_head(tr.error))
        time.sleep(retry.delay(attempt, token=index))
        attempt += 1


def _run_chunk(
    fn: Callable[[Any], Any],
    chunk: Sequence[tuple[int, Any]],
    submit_t: Optional[float] = None,
    collect: bool = True,
    retry: Optional[RetryPolicy] = None,
    cell_timeout: Optional[float] = None,
    start_attempts: Optional[Sequence[int]] = None,
) -> list[TaskResult]:
    """Worker-side chunk loop (module-level, hence picklable).

    ``submit_t`` is the parent's ``time.perf_counter()`` at submission
    -- CLOCK_MONOTONIC is process-shared on Linux, so the difference to
    the worker's first instruction is this chunk's queue latency.
    """
    t_start = time.perf_counter()
    queue_s = t_start - submit_t if submit_t is not None else None
    results = []
    for pos, (index, payload) in enumerate(chunk):
        start = start_attempts[pos] if start_attempts is not None else 1
        tr = run_one_with_retry(
            fn,
            index,
            payload,
            collect,
            retry,
            cell_timeout,
            start_attempt=start,
        )
        if tr.telemetry is not None:
            tr.telemetry.extra["chunk_size"] = len(chunk)
            if queue_s is not None:
                tr.telemetry.extra["chunk_queue_s"] = queue_s
        results.append(tr)
    return results


class Executor(ABC):
    """The execution contract: ordered results, captured failures."""

    #: Human-readable backend name (CLI/report labels).
    kind: str = "abstract"
    #: Degree of parallelism (1 for the serial backend).
    jobs: int = 1
    #: Whether callers may replace the per-payload worker stage with an
    #: in-process batch-of-cells pass (the structure-of-arrays grouped
    #: evaluator).  Only sound for in-process execution: the process
    #: pool ships payloads to workers one chunk at a time, so grouping
    #: there would serialise the batch through the parent instead.
    supports_cell_grouping: bool = False

    @abstractmethod
    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        *,
        progress: Optional[Callable[[int, int], None]] = None,
        chunk_plan: Optional[Sequence[Sequence[int]]] = None,
        retry: Optional[RetryPolicy] = None,
        cell_timeout: Optional[float] = None,
    ) -> list[TaskResult]:
        """Evaluate ``fn`` over ``payloads``; results in payload order.

        ``progress`` (optional) is called as ``progress(done, total)``
        whenever the completed-task count advances.  ``chunk_plan``
        (optional, the process pool) prescribes the submission chunks as
        payload-index lists -- the cost-aware scheduler's hook (see
        :func:`repro.runtime.cost.plan_chunks`).  Every index must
        appear exactly once; results stay in payload order regardless.
        ``retry`` and ``cell_timeout`` opt into the fault-tolerant
        path; both default to off with zero overhead.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(jobs={self.jobs})"


class SerialExecutor(Executor):
    """The in-process reference backend.

    A ``chunk_plan`` is validated but otherwise ignored: serial
    execution has no dispatch skew to schedule around, and running in
    payload order keeps the reference semantics trivially ordered.
    """

    kind = "serial"
    supports_cell_grouping = True

    def map_tasks(
        self,
        fn,
        payloads,
        *,
        progress=None,
        chunk_plan=None,
        retry=None,
        cell_timeout=None,
    ):
        if chunk_plan is not None:
            _check_plan(chunk_plan, len(payloads))
        results = []
        for i, payload in enumerate(payloads):
            if retry is None and cell_timeout is None:
                results.append(_run_one(fn, i, payload))
            else:
                results.append(
                    run_one_with_retry(
                        fn, i, payload, True, retry, cell_timeout
                    )
                )
            if progress is not None:
                progress(i + 1, len(payloads))
        return results


class _PoolExecutor(Executor):
    """The process pool's chunked, death-resilient submission driver.

    :class:`ProcessExecutor` is its only subclass.  ``map_tasks`` stays
    on this private base so the benchmark tracer (``bench/trace.py``)
    can shadow it on ``ProcessExecutor`` while tracing and drop the
    shadow afterwards.
    """

    def __init__(self, jobs: int = 2, chunksize: Optional[int] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if chunksize is not None and chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        self.jobs = jobs
        self.chunksize = chunksize

    def _make_pool(self) -> _FuturesExecutor:
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=self.jobs)

    @staticmethod
    def _kill_pool(pool: _FuturesExecutor) -> None:
        """Tear a (possibly broken, possibly hung) pool down hard."""
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        procs = getattr(pool, "_processes", None)
        if procs:
            for proc in list(procs.values()):
                try:
                    proc.terminate()
                except Exception:
                    pass

    def map_tasks(
        self,
        fn,
        payloads,
        *,
        progress=None,
        chunk_plan=None,
        retry=None,
        cell_timeout=None,
    ):
        n = len(payloads)
        if n == 0:
            return []
        if chunk_plan is not None:
            _check_plan(chunk_plan, n)
            chunk_indices = [
                [int(i) for i in chunk] for chunk in chunk_plan if len(chunk)
            ]
        else:
            size = self.chunksize or auto_chunksize(n, self.jobs)
            chunk_indices = [
                list(range(lo, min(lo + size, n))) for lo in range(0, n, size)
            ]

        results: dict[int, TaskResult] = {}
        done = 0
        collect = telemetry_enabled()
        #: Times each cell was in flight during a pool death (each
        #: exposure consumes one attempt of its budget).
        exposures = [0] * n
        prior_errors: list[list[str]] = [[] for _ in range(n)]
        budget = allowed_deaths(retry)
        pool_deaths = 0
        # Watchdog budget: worst-case wall clock of one cell's full
        # attempt budget (attempts x timeout + backoff sleeps).
        per_cell_budget = None
        if cell_timeout is not None:
            attempts = retry.max_attempts if retry is not None else 1
            sleeps = retry.sleep_budget() if retry is not None else 0.0
            per_cell_budget = attempts * float(cell_timeout) + sleeps

        def finish(tr: TaskResult) -> None:
            nonlocal done
            if prior_errors[tr.index]:
                tr = dataclasses.replace(
                    tr,
                    attempt_errors=tuple(prior_errors[tr.index])
                    + tuple(tr.attempt_errors),
                )
            results[tr.index] = tr
            done += 1
            if progress is not None:
                progress(done, n)

        pool = self._make_pool()
        pending: dict[Any, list[int]] = {}
        first_running: dict[Any, float] = {}

        def submit(idxs: list[int]) -> None:
            chunk = [(i, payloads[i]) for i in idxs]
            starts = [exposures[i] + 1 for i in idxs]
            fut = pool.submit(
                _run_chunk,
                fn,
                chunk,
                time.perf_counter(),
                collect,
                retry,
                cell_timeout,
                starts,
            )
            pending[fut] = idxs

        for idxs in chunk_indices:
            submit(idxs)

        watchdog = per_cell_budget is not None
        try:
            while pending:
                finished, _ = wait(
                    list(pending),
                    timeout=WATCHDOG_TICK_S if watchdog else None,
                    return_when=FIRST_COMPLETED,
                )
                now = time.perf_counter()
                expired = None
                if watchdog:
                    for fut in pending:
                        if fut not in first_running and fut.running():
                            first_running[fut] = now
                    for fut, t_run in first_running.items():
                        if fut in finished or fut not in pending:
                            continue
                        deadline = (
                            per_cell_budget * len(pending[fut])
                            + WATCHDOG_GRACE_S
                        )
                        if now - t_run > deadline:
                            expired = fut
                            break

                death = None  # (chunk_idxs, error_text)
                for fut in finished:
                    idxs = pending.pop(fut)
                    first_running.pop(fut, None)
                    try:
                        for tr in fut.result():
                            finish(tr)
                    except Exception:
                        death = (idxs, traceback.format_exc(limit=10))
                        break
                if death is None and expired is not None and expired in pending:
                    idxs = pending.pop(expired)
                    first_running.pop(expired, None)
                    death = (
                        idxs,
                        f"watchdog: chunk of {len(idxs)} cell(s) exceeded "
                        f"its worst-case attempt budget "
                        f"({per_cell_budget * len(idxs) + WATCHDOG_GRACE_S:.1f} s); "
                        f"pool torn down",
                    )
                if death is None:
                    continue

                # --- pool death: resurrect, isolate, degrade ---------
                dead_idxs, err = death
                pool_deaths += 1
                head = _error_head(err) or f"worker pool death #{pool_deaths}"
                survivors: list[tuple[list[int], bool]] = [(dead_idxs, True)]
                for fut, idxs in list(pending.items()):
                    if fut.done():
                        try:
                            for tr in fut.result():
                                finish(tr)
                            continue  # completed before the death hit it
                        except Exception:
                            pass
                    running = (
                        first_running.get(fut) is not None or fut.running()
                    )
                    fut.cancel()
                    survivors.append((idxs, running))
                pending.clear()
                first_running.clear()
                self._kill_pool(pool)
                pool = None

                resubmit: list[int] = []
                for idxs, running in survivors:
                    for i in idxs:
                        if i in results:
                            continue
                        if running:
                            # In flight during the death: possibly the
                            # culprit, certainly one attempt spent.
                            exposures[i] += 1
                            prior_errors[i].append(
                                f"pool death #{pool_deaths} while in flight "
                                f"({head})"
                            )
                        if exposures[i] > budget:
                            finish(
                                TaskResult(
                                    index=i,
                                    error=(
                                        f"cell was in flight during "
                                        f"{exposures[i]} worker-pool deaths "
                                        f"(budget {budget}); "
                                        f"declared poison. Last pool error:\n"
                                        f"{err}"
                                    ),
                                    attempts=exposures[i],
                                )
                            )
                        else:
                            resubmit.append(i)

                if not resubmit:
                    continue
                if pool_deaths >= MAX_POOL_DEATHS:
                    # Enough resurrection: finish in-parent, serially.
                    # Injected worker kills degrade to raises here, so
                    # chaos campaigns still converge.
                    for i in resubmit:
                        finish(
                            run_one_with_retry(
                                fn,
                                i,
                                payloads[i],
                                collect,
                                retry,
                                cell_timeout,
                                start_attempt=exposures[i] + 1,
                            )
                        )
                    continue
                # Fresh pool; one cell per chunk so the next death
                # isolates its culprit.
                pool = self._make_pool()
                for i in resubmit:
                    submit([i])
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
        return [results[i] for i in range(n)]


class ProcessExecutor(_PoolExecutor):
    """Multiprocessing pool; the scale backend for CPU-bound cells."""

    kind = "process"

"""The worker stage every campaign path shares (``runner.evaluate_batch``).

Serial runs evaluate the whole matrix through it, each ``--jobs`` pool
worker one chunk and each lease worker one lease.  A first attempt runs
through the grouped cell matrix exactly when no fault plan is armed, no
``cell_timeout`` is set and ``start_attempt == 1``; everything else runs
cell by cell, so injected faults, per-attempt ``SIGALRM`` caps and
attempts spent elsewhere keep their per-cell meaning.  The pool must
reproduce the serial outcomes exactly while grouping its chunks, and a
worker killed inside a grouped chunk must cost its chunk-mates nothing
but a retry.
"""

import dataclasses
import itertools
import multiprocessing
import os
import time

import pytest

import repro.scenarios.cellmatrix as cellmatrix_mod
from repro.runtime import faults
from repro.runtime.executor import CellTimeout, ProcessExecutor, RetryPolicy
from repro.runtime.faults import KILL_EXIT_CODE, FaultPlan
from repro.scenarios import generate_scenarios, run_batch
from repro.scenarios.runner import evaluate_batch

pytestmark = pytest.mark.runtime

FAST_RETRY = RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0)


@pytest.fixture(scope="module")
def cells():
    return generate_scenarios(6, seed=11)


# ----------------------------------------------------------------------
# The grouping rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "armed, timeout, start",
    list(itertools.product((False, True), (None, 30.0), (1, 2))),
)
def test_first_attempt_groups_exactly_when_clean(cells, armed, timeout, start):
    """Grouped (the grouped evaluator writes its stats) exactly when no
    plan, no timeout and attempt 1; the values never depend on it."""
    stats: dict = {}
    tasks = evaluate_batch(
        cells,
        start,
        fault_plan=FaultPlan(seed=1, rate=0.0, store_rate=0.0) if armed else None,
        cell_timeout=timeout,
        stats=stats,
    )
    grouped = not armed and timeout is None and start == 1
    assert ("records" in stats) == grouped
    assert all(t.ok and t.attempts == start for t in tasks)
    assert [t.value for t in tasks] == [t.value for t in evaluate_batch(cells)]


def test_prior_errors_open_every_ledger(cells):
    prior = ("lease 7 reclaimed after 1 worker death(s)",)
    for start in (1, 2):
        tasks = evaluate_batch(cells[:2], start, prior_errors=prior)
        assert [t.attempt_errors for t in tasks] == [prior, prior]


_HANG_S = 5.0


def test_serial_cell_timeout_caps_first_attempts(cells, monkeypatch):
    """``--cell-timeout`` promises a per-attempt cap: a serial run's
    first attempts run cell by cell under ``SIGALRM``, so a hung first
    attempt times out and its retry recovers."""
    victim = cells[2].name
    real = cellmatrix_mod.simulate_cells

    def hang_first_attempt(key, realised, *rest):
        if faults.current_attempt() == 1 and any(
            r.scenario.name == victim for r in realised
        ):
            time.sleep(_HANG_S)
        return real(key, realised, *rest)

    monkeypatch.setattr(cellmatrix_mod, "simulate_cells", hang_first_attempt)
    t0 = time.perf_counter()
    report = run_batch(cells, retry=FAST_RETRY, cell_timeout=0.3)
    assert time.perf_counter() - t0 < _HANG_S
    assert not report.errors
    out = {o.scenario.name: o for o in report.outcomes}
    assert out[victim].attempts == 2
    assert CellTimeout.__name__ in out[victim].attempt_errors[0]
    assert all(o.attempts == 1 for name, o in out.items() if name != victim)


# ----------------------------------------------------------------------
# The pool: chunks through the same stage
# ----------------------------------------------------------------------
def _grouping(outcome) -> tuple:
    counters = outcome.telemetry.counters
    return counters.get("grouped_cells"), counters.get("fallback_cells")


def _timeless(report) -> list:
    """Outcomes with their one run-dependent compared field zeroed."""
    return [dataclasses.replace(o, wall_time=0.0) for o in report.outcomes]


def test_pool_equals_serial_on_mixed_matrix(mixed_matrix):
    assert {(sc.topology, sc.backend, sc.discipline) for sc in mixed_matrix} >= {
        ("host", "fluid", "adversarial"), ("chain", "fluid", "adversarial"),
        ("tree", "fluid", "adversarial"), ("host", "des", "adversarial"),
        ("chain", "des", "adversarial"), ("host", "des", "fifo"),
    }
    serial = run_batch(mixed_matrix)
    pooled = run_batch(mixed_matrix, executor=ProcessExecutor(jobs=2))
    assert multiprocessing.active_children() == []
    assert _timeless(pooled) == _timeless(serial)
    assert not pooled.errors
    # Every cell went through the grouped evaluator in its worker, and
    # landed in a group kernel (or fell back) as in the serial run.
    assert all(_grouping(o) != (None, None) for o in pooled.outcomes)
    assert [_grouping(o) for o in pooled.outcomes] == [
        _grouping(o) for o in serial.outcomes
    ]
    assert any(_grouping(o)[0] for o in pooled.outcomes)
    # Pool workers keep their grouping records to themselves.
    assert pooled.group_stats == ()


_VICTIM = "gen-11-0003-homogeneous-host"
_REAL_SIMULATE = cellmatrix_mod.simulate_cells


def _kill_victim_on_first_attempt(key, realised, *rest):
    """A kernel that dies hard in a pool worker on attempt 1 of the
    victim cell (the parent process never dies)."""
    if (
        multiprocessing.parent_process() is not None
        and faults.current_attempt() == 1
        and any(r.scenario.name == _VICTIM for r in realised)
    ):
        os._exit(KILL_EXIT_CODE)
    return _REAL_SIMULATE(key, realised, *rest)


def test_worker_killed_inside_a_grouped_chunk(cells, monkeypatch):
    """A kill inside a grouped chunk breaks the pool: every chunk-mate
    still completes with the serial value, and the culprit's ledger
    names the pool death."""
    assert _VICTIM in {sc.name for sc in cells}
    serial = evaluate_batch(cells)
    monkeypatch.setattr(
        cellmatrix_mod, "simulate_cells", _kill_victim_on_first_attempt
    )
    tasks = ProcessExecutor(jobs=2).map_tasks(
        evaluate_batch, cells, chunk_plan=[[0, 1, 2, 3, 4, 5]], retry=FAST_RETRY
    )
    assert multiprocessing.active_children() == []
    assert [t.index for t in tasks] == list(range(len(cells)))
    assert all(t.ok for t in tasks)
    assert [t.value for t in tasks] == [t.value for t in serial]
    culprit = next(t for t, sc in zip(tasks, cells) if sc.name == _VICTIM)
    assert culprit.attempts == 2
    assert any("pool death" in e for e in culprit.attempt_errors)


def _raise_type_error(*_args, **_kwargs):
    raise TypeError("grouped evaluator bug")


def test_pool_raises_a_batch_function_error_like_the_serial_run(
    cells, monkeypatch
):
    """An exception raised by the worker stage itself (not captured per
    cell) is deterministic: the pool raises it as the serial run does,
    instead of taking it for a worker death and resubmitting the cells,
    and no worker outlives the call."""
    monkeypatch.setattr(cellmatrix_mod, "evaluate_grouped", _raise_type_error)
    with pytest.raises(TypeError, match="grouped evaluator bug"):
        run_batch(cells)
    with pytest.raises(TypeError, match="grouped evaluator bug"):
        run_batch(cells, executor=ProcessExecutor(jobs=2))
    assert multiprocessing.active_children() == []

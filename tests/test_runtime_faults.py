"""The fault-tolerance stack: chaos harness, retries, timeouts, pools.

Covers the PR-8 guarantees layer by layer: the :class:`FaultPlan`
decision function is pure and bounded (hypothesis), retries recover
exactly the failures the plan injects, ``SIGALRM`` timeouts and the
parent-side watchdog unstick hung cells, a killed worker breaks only
its own cell's budget (pool resurrection isolates the culprit while
chunk-mates complete), stores survive torn/failed writes, and -- the
campaign invariant everything else exists for -- a fault-riddled
campaign writes a ``summary.json`` byte-identical to an undisturbed
run on both store backends.
"""

import concurrent.futures.process
import functools
import multiprocessing
import signal
import sqlite3
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import faults
from repro.runtime.campaign import run_campaign
from repro.runtime.executor import (
    MAX_POOL_DEATHS,
    CellTimeout,
    ProcessExecutor,
    RetryPolicy,
    run_each,
)
from repro.runtime.faults import KILL_EXIT_CODE, FaultPlan, InjectedFault
from repro.runtime.store import JsonlResultStore, cell_key
from repro.runtime.store_sqlite import SqliteResultStore
from repro.runtime.telemetry import attempt_rows, store_retry_rows
from repro.scenarios import generate_scenarios

pytestmark = pytest.mark.runtime

#: Zero-sleep retry policy: tests assert recovery logic, not schedules.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


@pytest.fixture(scope="module")
def cells():
    return generate_scenarios(12, seed=11)


# ----------------------------------------------------------------------
# FaultPlan: the pure decision function
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    site=st.sampled_from(["kernel", "store"]),
    token=st.text(min_size=1, max_size=16),
    attempt=st.integers(1, 4),
    rate=st.floats(0.0, 1.0, allow_nan=False),
)
def test_decide_is_pure_and_bounded(seed, site, token, attempt, rate):
    plan = FaultPlan(seed=seed, rate=rate)
    first = plan.decide(site, token, attempt)
    # Interleave unrelated draws: decisions must not share RNG state.
    plan.decide(site, token + "x", attempt)
    plan.decide("store" if site == "kernel" else "kernel", token, attempt)
    assert plan.decide(site, token, attempt) == first
    kinds = plan.store_kinds if site == "store" else plan.kinds
    assert first is None or first in kinds
    if attempt > plan.max_attempt:
        assert first is None  # bounded: retries past max_attempt recover


def test_rate_edges():
    never = FaultPlan(seed=1, rate=0.0)
    always = FaultPlan(seed=1, rate=1.0)
    for token in ("a", "b", "c", "deadbeef"):
        assert never.decide("kernel", token, 1) is None
        assert always.decide("kernel", token, 1) in always.kinds
        assert always.decide("kernel", token, 2) is None  # max_attempt=1


def test_parse_roundtrip_and_errors():
    assert FaultPlan.parse("7:0.15") == FaultPlan(seed=7, rate=0.15)
    for bad in ("", "7", "7:0.1:9", "a:b", "7:2.0"):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)


def test_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(seed=0, rate=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(seed=0, rate=0.5, store_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(seed=0, rate=0.5, kinds=("raise", "segfault"))
    with pytest.raises(ValueError):
        FaultPlan(seed=0, rate=0.5, store_kinds=("torn", "melt"))
    with pytest.raises(ValueError):
        FaultPlan(seed=0, rate=0.5, max_attempt=-1)


def test_kill_degrades_to_raise_in_parent():
    """The campaign process must survive its own chaos harness."""
    assert multiprocessing.parent_process() is None  # we are the parent
    plan = FaultPlan(seed=1, rate=1.0, kinds=("kill",))
    with pytest.raises(InjectedFault, match="kill->raise"):
        plan.apply_cell("deadbeef")


def test_check_fault_is_noop_without_plan():
    """Off-path cost is one None check: the spec is never fingerprinted
    (object() would crash spec_fingerprint if it were)."""
    assert faults.active_plan() is None
    faults.check_fault("kernel", object())


def test_attempt_scope_is_thread_local_and_restores():
    assert faults.current_attempt() == 1
    with faults.attempt_scope(3):
        assert faults.current_attempt() == 3
        with faults.attempt_scope(5):
            assert faults.current_attempt() == 5
        assert faults.current_attempt() == 3
    assert faults.current_attempt() == 1


# ----------------------------------------------------------------------
# RetryPolicy + executor retries
# ----------------------------------------------------------------------
def test_retry_policy_delay_deterministic_and_bounded():
    policy = RetryPolicy(max_attempts=4, backoff_base=0.05, seed=3)
    for attempt in (1, 2, 3):
        d = policy.delay(attempt, token=7)
        assert d == policy.delay(attempt, token=7)  # replayable
        assert 0.0 <= d <= policy.backoff_max * (1.0 + policy.jitter)
    assert policy.delay(1, token=7) != policy.delay(1, token=8)
    assert policy.sleep_budget() >= 0.0
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)


def _fail_first_attempt(x):
    """Module-level (picklable); consults the attempt the executor set."""
    if faults.current_attempt() < 2:
        raise ValueError("first attempt always fails")
    return x * 10


def test_serial_retry_recovers(cells):
    results = run_each(_fail_first_attempt, [1, 2, 3], retry=FAST_RETRY)
    assert [r.value for r in results] == [10, 20, 30]
    assert all(r.ok and r.attempts == 2 for r in results)
    assert all(len(r.attempt_errors) == 1 for r in results)
    assert "first attempt always fails" in results[0].attempt_errors[0]


def test_serial_without_retry_fails():
    results = run_each(_fail_first_attempt, [1])
    assert not results[0].ok and results[0].attempts == 1
    assert results[0].attempt_errors == ()  # never retried, no ledger


@pytest.mark.parametrize("executor", [None, ProcessExecutor(jobs=2)], ids=["serial", "pool"])
def test_failed_cells_without_retries_are_not_counted_retried(cells, tmp_path, executor):
    """With no retry budget a failed cell had one attempt: the campaign
    must not report it retried (or recovered), in process or pooled."""
    report = run_campaign(
        cells[:3],
        executor=executor,
        store=tmp_path / "noretry",
        fault_plan=FaultPlan(
            seed=3, rate=1.0, kinds=("raise",), store_kinds=(), max_attempt=99
        ),
    )
    assert len(report.report.errors) == 3
    assert report.retried_cells == 0 and report.poisoned_cells == 0
    assert attempt_rows(JsonlResultStore(tmp_path / "noretry").load_telemetry()) == []


def _sleep_forever(x):
    time.sleep(30)
    return x


def _hang_first_attempt(x):
    if faults.current_attempt() == 1:
        time.sleep(30)
    return x + 1


def test_cell_timeout_serial():
    results = run_each(_sleep_forever, [1], cell_timeout=0.2)
    assert not results[0].ok
    assert CellTimeout.__name__ in results[0].error


def test_cell_timeout_recovers_with_retry():
    results = run_each(
        _hang_first_attempt,
        [5],
        retry=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0),
        cell_timeout=0.3,
    )
    assert results[0].ok and results[0].value == 6
    assert results[0].attempts == 2
    assert CellTimeout.__name__ in results[0].attempt_errors[0]


# ----------------------------------------------------------------------
# Pool resurrection: kills, culprit isolation, degradation, watchdog
# ----------------------------------------------------------------------
_KILL_TARGET = 3


def _kill_target_first_attempt(x):
    """Dies hard in a worker on attempt 1 of the target payload only."""
    import os

    if x == _KILL_TARGET and faults.current_attempt() == 1:
        if multiprocessing.parent_process() is not None:
            os._exit(KILL_EXIT_CODE)
    return x * 2


def _always_kill_target(x):
    """Dies hard on the target payload on *every* in-child attempt."""
    import os

    if x == _KILL_TARGET and multiprocessing.parent_process() is not None:
        os._exit(KILL_EXIT_CODE)
    return x * 2


def _pool_map(fn, payloads, *, jobs=2, chunk=1, **kwargs):
    """``fn`` over ``payloads`` through the pool as a batch function,
    in contiguous chunks of ``chunk`` payloads; no worker and no pool
    manager thread may outlive the call."""
    plan = [
        list(range(lo, min(lo + chunk, len(payloads))))
        for lo in range(0, len(payloads), chunk)
    ]
    results = ProcessExecutor(jobs=jobs).map_tasks(
        functools.partial(run_each, fn), payloads, chunk_plan=plan, **kwargs
    )
    assert [
        t for t in threading.enumerate()
        if isinstance(t, concurrent.futures.process._ExecutorManagerThread)
    ] == []
    assert multiprocessing.active_children() == []
    return results


def test_pool_death_isolates_culprit_and_recovers():
    """A worker kill no longer stamps the whole chunk with one shared
    traceback: every cell gets its own disposition and recovers."""
    results = _pool_map(
        _kill_target_first_attempt, list(range(8)), chunk=4, retry=FAST_RETRY
    )
    assert [r.value for r in results] == [2 * i for i in range(8)]
    assert all(r.ok for r in results)
    culprit = results[_KILL_TARGET]
    assert culprit.attempts >= 2
    assert any("pool death" in e for e in culprit.attempt_errors)


def test_pool_death_recovers_without_retry_policy():
    """Even with no RetryPolicy, one pool death must not fail innocent
    chunk-mates: MIN_DEATH_EXPOSURES keeps one exposure survivable."""
    results = _pool_map(_kill_target_first_attempt, list(range(8)), chunk=4)
    assert all(r.ok for r in results)
    assert [r.value for r in results] == [2 * i for i in range(8)]


def test_repeated_deaths_declare_poison_spare_chunkmates():
    results = _pool_map(_always_kill_target, list(range(4)), chunk=2)
    assert [r.ok for r in results] == [True, True, True, False]
    assert [r.value for r in results[:3]] == [0, 2, 4]
    assert "declared poison" in results[_KILL_TARGET].error


def test_degrades_to_serial_after_max_pool_deaths():
    """A payload that kills every pool eventually runs in-parent, where
    the 'kill' cannot fire -- the campaign outlives a poisonous pool."""
    results = _pool_map(
        _always_kill_target,
        [_KILL_TARGET],
        jobs=1,
        retry=RetryPolicy(
            max_attempts=MAX_POOL_DEATHS + 1, backoff_base=0.0, jitter=0.0
        ),
    )
    assert results[0].ok and results[0].value == 2 * _KILL_TARGET
    deaths = [e for e in results[0].attempt_errors if "pool death" in e]
    assert len(deaths) == MAX_POOL_DEATHS


def _block_sigalrm_and_hang_first(x):
    """A cell stuck where SIGALRM cannot fire (C-code stand-in)."""
    if faults.current_attempt() == 1:
        signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGALRM])
        time.sleep(60)
    return x


def test_watchdog_unsticks_signal_immune_hang():
    results = _pool_map(
        _block_sigalrm_and_hang_first,
        [5],
        jobs=1,
        retry=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0),
        cell_timeout=0.3,
    )
    assert results[0].ok and results[0].value == 5
    assert any("watchdog" in e for e in results[0].attempt_errors)


# ----------------------------------------------------------------------
# Store faults: torn / failed writes, busy retry
# ----------------------------------------------------------------------
def _records(n):
    return [{"key": f"k{i:04d}", "name": f"cell-{i}", "sound": True}
            for i in range(n)]


def test_jsonl_torn_write_recovers_by_reappend(tmp_path):
    store = JsonlResultStore(tmp_path / "torn")
    plan = FaultPlan(seed=1, rate=0.0, store_kinds=("torn",), store_rate=1.0)
    recs = _records(5)
    with faults.activate(plan), faults.attempt_scope(1):
        with pytest.raises(InjectedFault, match="torn"):
            store.append_many(recs)
    # Retry (attempt 2 > max_attempt): the whole batch re-appends; the
    # torn residue must quarantine alone, never eat a fresh record --
    # the regression here is a torn FIRST record merging with the
    # retry's first line.
    with faults.activate(plan), faults.attempt_scope(2):
        store.append_many(recs)
    loaded = store.load()
    assert set(loaded) == {r["key"] for r in recs}
    assert store.quarantined == 1
    assert store.quarantine_path.exists()
    # A second load sees the healed file: nothing left to quarantine.
    store.load()
    assert store.quarantined == 0


def test_jsonl_fail_write_recovers_by_reappend(tmp_path):
    store = JsonlResultStore(tmp_path / "fail")
    plan = FaultPlan(seed=1, rate=0.0, store_kinds=("fail",), store_rate=1.0)
    recs = _records(4)
    with faults.activate(plan), faults.attempt_scope(1):
        with pytest.raises(InjectedFault, match="failure"):
            store.append_many(recs)
    with faults.activate(plan), faults.attempt_scope(2):
        store.append_many(recs)
    assert set(store.load()) == {r["key"] for r in recs}
    assert store.quarantined == 0  # fail leaves no residue, unlike torn


def test_sqlite_torn_payload_healed_by_replace(tmp_path):
    store = SqliteResultStore(tmp_path / "sq")
    plan = FaultPlan(seed=1, rate=0.0, store_kinds=("torn",), store_rate=1.0)
    recs = _records(4)
    with faults.activate(plan), faults.attempt_scope(1):
        with pytest.raises(InjectedFault, match="torn"):
            store.append_many(recs)
    with faults.activate(plan), faults.attempt_scope(2):
        store.append_many(recs)
    assert set(store.load()) == {r["key"] for r in recs}
    assert store.quarantined == 0  # INSERT OR REPLACE healed the row


def test_sqlite_busy_retry_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr(time, "sleep", lambda s: None)
    store = SqliteResultStore(tmp_path / "busy")
    calls = []

    def locked_twice():
        calls.append(1)
        if len(calls) <= 2:
            raise sqlite3.OperationalError("database is locked")
        return "done"

    assert store._with_busy_retry(locked_twice) == "done"
    assert store.busy_retries == 2

    def not_busy():
        raise sqlite3.OperationalError("no such table: nope")

    with pytest.raises(sqlite3.OperationalError, match="no such table"):
        store._with_busy_retry(not_busy)
    assert store.busy_retries == 2  # non-busy errors never count

    def always_locked():
        raise sqlite3.OperationalError("database is busy")

    with pytest.raises(sqlite3.OperationalError, match="busy"):
        store._with_busy_retry(always_locked)  # bounded, then re-raises


# ----------------------------------------------------------------------
# The campaign invariant: retries never change results
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ["jsonl:", "sqlite:"])
def test_chaos_campaign_summary_byte_identical(cells, tmp_path, scheme):
    """The tentpole gate, in-tree: a campaign riddled with injected
    worker kills, kernel raises and torn store writes recovers to a
    ``summary.json`` byte-identical to an undisturbed serial run."""
    clean = run_campaign(cells, store=tmp_path / "clean")
    assert clean.clean

    chaos = run_campaign(
        cells,
        executor=ProcessExecutor(jobs=2),
        store=scheme + str(tmp_path / "chaos"),
        retry=RetryPolicy(max_attempts=4, backoff_base=0.0, jitter=0.0),
        fault_plan=FaultPlan(seed=7, rate=0.3),
    )
    assert chaos.clean
    assert chaos.retried_cells > 0  # the harness actually fired
    assert chaos.poisoned_cells == 0
    clean_bytes = (tmp_path / "clean" / "summary.json").read_bytes()
    chaos_bytes = (tmp_path / "chaos" / "summary.json").read_bytes()
    assert chaos_bytes == clean_bytes


def test_chaos_campaign_writes_attempt_ledger(cells, tmp_path):
    chaos = run_campaign(
        cells[:6],
        store=tmp_path / "ledger",
        retry=FAST_RETRY,
        fault_plan=FaultPlan(seed=7, rate=0.5, kinds=("raise", "delay")),
    )
    assert chaos.clean and chaos.retried_cells > 0
    records = JsonlResultStore(tmp_path / "ledger").load_telemetry()
    ledger = attempt_rows(records)
    assert len(ledger) == chaos.retried_cells
    assert all(row["disposition"] == "recovered" for row in ledger)
    assert all(row["attempts"] >= 2 or row["faults"] for row in ledger)
    if chaos.store_retries:
        assert store_retry_rows(records)


def test_poison_channel_and_resume_recovery(cells, tmp_path):
    """Cells that exhaust every retry land in the poison channel with
    their diagnosis; a later resume without the plan heals the store
    to the same summary as an undisturbed run."""
    store = tmp_path / "poison"
    sick = run_campaign(
        cells[:3],
        store=store,
        retry=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0),
        fault_plan=FaultPlan(
            seed=3, rate=1.0, kinds=("raise",), store_kinds=(),
            max_attempt=99,
        ),
    )
    assert sick.poisoned_cells == 3
    assert not sick.clean
    poison = JsonlResultStore(store).load_poison()
    assert {p["key"] for p in poison} == {cell_key(sc) for sc in cells[:3]}
    assert all(p["attempts"] >= 2 and p["error_head"] for p in poison)

    healed = run_campaign(cells[:3], store=store, resume=True)
    assert healed.evaluated == 3 and healed.clean
    ref = run_campaign(cells[:3], store=tmp_path / "ref")
    assert (store / "summary.json").read_bytes() == (
        tmp_path / "ref" / "summary.json"
    ).read_bytes()
    assert ref.clean


def test_fault_plan_survives_pickle_roundtrip():
    import pickle

    plan = FaultPlan(seed=7, rate=0.15)
    back = pickle.loads(pickle.dumps(plan))
    assert back == plan
    assert back.decide("kernel", "cafe", 1) == plan.decide("kernel", "cafe", 1)

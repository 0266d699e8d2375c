"""Discrete-event engine: ordering, determinism, cancellation."""

import pytest

from tests.evented import Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule(2.0, log.append, "b")
    sim.schedule(1.0, log.append, "a")
    sim.schedule(3.0, log.append, "c")
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == pytest.approx(3.0)


def test_ties_break_by_priority_then_fifo():
    sim = Simulator()
    log = []
    sim.schedule(1.0, log.append, "third", priority=1)
    sim.schedule(1.0, log.append, "first", priority=0)
    sim.schedule(1.0, log.append, "fourth", priority=1)
    sim.schedule(1.0, log.append, "second", priority=0)
    sim.run()
    assert log == ["first", "second", "third", "fourth"]


def test_run_until_leaves_future_events():
    sim = Simulator()
    log = []
    sim.schedule(1.0, log.append, "a")
    sim.schedule(5.0, log.append, "b")
    sim.run(until=2.0)
    assert log == ["a"]
    assert sim.now == pytest.approx(2.0)
    sim.run()
    assert log == ["a", "b"]


def test_schedule_in_is_relative():
    sim = Simulator()
    out = []
    sim.schedule(1.0, lambda: sim.schedule_in(0.5, lambda: out.append(sim.now)))
    sim.run()
    assert out == [pytest.approx(1.5)]


def test_scheduling_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError, match="past"):
        sim.schedule(0.5, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule_in(-1.0, lambda: None)


def test_cancellation():
    sim = Simulator()
    log = []
    ev = sim.schedule(1.0, log.append, "cancelled")
    sim.schedule(2.0, log.append, "kept")
    ev.cancel()
    sim.run()
    assert log == ["kept"]


def test_cascading_events():
    """Components schedule from within callbacks (the usual pattern)."""
    sim = Simulator()
    ticks = []

    def tick():
        ticks.append(sim.now)
        if len(ticks) < 5:
            sim.schedule_in(1.0, tick)

    sim.schedule(0.0, tick)
    sim.run()
    assert ticks == [pytest.approx(i) for i in range(5)]


def test_max_events_guard():
    sim = Simulator()

    def forever():
        sim.schedule_in(1e-9, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(RuntimeError, match="max_events"):
        sim.run(max_events=1000)


def test_peek_time_and_pending():
    sim = Simulator()
    assert sim.peek_time() == float("inf")
    ev = sim.schedule(3.0, lambda: None)
    assert sim.peek_time() == pytest.approx(3.0)
    assert sim.pending == 1
    ev.cancel()
    assert sim.peek_time() == float("inf")
    assert sim.pending == 0


def test_determinism_across_runs():
    def run_once():
        sim = Simulator()
        log = []
        for i in range(50):
            sim.schedule((i * 37 % 10) / 10.0, log.append, i)
        sim.run()
        return log

    assert run_once() == run_once()


def test_cancelled_events_counter():
    sim = Simulator()
    events = [sim.schedule(1.0, lambda: None) for _ in range(5)]
    for ev in events[:3]:
        ev.cancel()
    assert sim.cancelled_events == 0  # lazy: nothing popped yet
    sim.run()
    assert sim.cancelled_events == 3
    assert sim.events_processed == 2


def test_peek_time_counts_discarded_residue():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    ev.cancel()
    assert sim.peek_time() == pytest.approx(2.0)
    assert sim.cancelled_events == 1


def test_pending_is_a_live_counter():
    """``pending`` must track schedule/cancel/pop without heap scans."""
    sim = Simulator()
    events = [sim.schedule(float(i), lambda: None) for i in range(10)]
    assert sim.pending == 10
    events[3].cancel()
    events[7].cancel()
    assert sim.pending == 8  # immediate, before any pop
    events[3].cancel()  # double-cancel must not double-decrement
    assert sim.pending == 8
    sim.run(until=5.0)
    assert sim.pending == 3  # 0,1,2,4,5 ran; 3/7 cancelled; 6,8,9 left
    sim.run()
    assert sim.pending == 0
    # Cancelling an already-executed event is a harmless no-op.
    events[0].cancel()
    assert sim.pending == 0


def test_schedule_batch_orders_and_args():
    sim = Simulator()
    log = []
    sim.schedule_batch(
        [1.0, 2.0, 3.0], log.append, [("a",), ("b",), ("c",)]
    )
    sim.schedule(2.5, log.append, "x")
    sim.run()
    assert log == ["a", "b", "x", "c"]


def test_schedule_batch_sorted_fast_path_matches_heap_path():
    def run(times, prefill):
        sim = Simulator()
        log = []
        if prefill:
            sim.schedule(10.0, log.append, "z")
        sim.schedule_batch(times, log.append, [(t,) for t in times])
        sim.run()
        return log

    times = [0.5, 1.5, 1.5, 2.5]
    # Empty-queue sorted batch (extend path) vs per-event pushes.
    assert run(times, prefill=False) + ["z"] == run(times, prefill=True)


def test_schedule_batch_unsorted_and_counters():
    sim = Simulator()
    log = []
    events = sim.schedule_batch([3.0, 1.0, 2.0], log.append, [(3,), (1,), (2,)])
    assert sim.pending == 3
    events[1].cancel()
    assert sim.pending == 2
    sim.run()
    assert log == [2, 3]
    assert sim.cancelled_events == 1


def test_schedule_batch_rejects_past_and_misaligned_args():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError, match="past"):
        sim.schedule_batch([0.5], lambda: None)
    with pytest.raises(ValueError, match="one tuple per time"):
        sim.schedule_batch([2.0, 3.0], lambda: None, [(1,)])
    assert sim.schedule_batch([], lambda: None) == []


def test_equal_time_cancel_reschedule_churn_is_deterministic():
    """Regression pin: components that cancel and reschedule at the
    *same* timestamp (the vacation regulator's wakeup pattern) must
    yield an identical execution order and heap-residue count on every
    run -- lazy cancellation may never reorder live events."""

    def run_once():
        sim = Simulator()
        log = []
        pending = {}

        def fire(name):
            log.append((sim.now, name))
            # Cancel a sibling scheduled at this same instant and
            # replace it with a new equal-time event (reschedule churn).
            victim = f"victim-{name}"
            if victim in pending:
                pending[victim].cancel()
                pending[victim] = sim.schedule(sim.now, fire, f"re-{name}")

        for i in range(8):
            t = (i % 3) * 0.5
            sim.schedule(t, fire, f"ev-{i}")
            pending[f"victim-ev-{i}"] = sim.schedule(t, log.append, (t, f"v-{i}"))
        sim.run()
        return log, sim.cancelled_events, sim.events_processed

    first = run_once()
    for _ in range(3):
        assert run_once() == first
    log, cancelled, processed = first
    assert cancelled == 8  # every victim was cancelled and popped
    # Equal-time replacements run after already-queued same-time events
    # (sequence numbers only grow), never before.
    times = [t for t, _ in log]
    assert times == sorted(times)

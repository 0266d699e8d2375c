"""Deterministic discrete-event simulation core.

A deliberately small engine: a binary-heap event queue with a strict
total order on events ``(time, priority, sequence)`` so that runs are
bit-for-bit reproducible, plus the component conventions the rest of
:mod:`tests.evented` builds on (components hold a reference to the
simulator and schedule callbacks).

The engine is profiling-friendly: the hot loop does nothing but pop-and-call,
:attr:`Simulator.events_processed` lets benchmarks report event rates,
and the hot-path data structure is deliberately lean --
:class:`ScheduledEvent` is a ``__slots__`` record (no dataclass
machinery, no per-event ``__dict__``), :attr:`Simulator.pending` is a
live counter maintained on schedule/cancel/pop instead of an O(n) heap
scan, and :meth:`Simulator.schedule_batch` enqueues whole packet
trains with one validation pass (sorted trains into an empty queue
degrade to a plain ``list.extend``).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = ["Simulator", "ScheduledEvent"]


class ScheduledEvent:
    """An entry in the event queue.

    A ``__slots__`` record rather than a dataclass: millions of these
    are created per DES cell, so per-event ``__dict__`` allocation and
    generated comparison tuples are measurable.  Ordering is the strict
    total order ``(time, priority, seq)``; only ``__lt__`` is defined
    because that is all ``heapq`` consults.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple = (),
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Owning simulator while the event sits in the queue; cleared
        #: on pop so a late ``cancel()`` (after the event ran or was
        #: discarded) cannot corrupt the live-event counter.
        self._sim = sim

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        flag = " cancelled" if self.cancelled else ""
        return f"ScheduledEvent(t={self.time}, prio={self.priority}, seq={self.seq}{flag})"

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped.

        O(1): the heap entry stays behind as residue and is discarded
        lazily, but the owning simulator's live-event counter is
        decremented immediately so :attr:`Simulator.pending` stays O(1).
        """
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._live -= 1
                self._sim = None


class Simulator:
    """A minimal, deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, my_callback, arg1, arg2)
        sim.run(until=100.0)

    Events at equal times execute in (priority, schedule-order) order;
    lower priority values run first.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[ScheduledEvent] = []
        self._seq = itertools.count()
        #: Live (scheduled, not cancelled, not yet popped) event count.
        self._live: int = 0
        self.events_processed: int = 0
        #: Cancelled events discarded when popped -- the heap residue of
        #: the lazy O(1) cancellation.  Batch harnesses report this next
        #: to :attr:`events_processed` so event-rate figures are honest
        #: about how much of the heap traffic was dead weight.
        self.cancelled_events: int = 0
        #: Total events ever pushed (single or batch scheduling).
        self.events_scheduled: int = 0

    # ------------------------------------------------------------------
    def schedule(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute simulation ``time``.

        Returns the event handle, whose :meth:`ScheduledEvent.cancel`
        removes it lazily (cancelled events are skipped when popped --
        O(1) cancellation at the cost of heap residue, the standard
        trade-off).
        """
        if time < self.now - 1e-15:
            raise ValueError(
                f"cannot schedule in the past (now={self.now}, time={time})"
            )
        ev = ScheduledEvent(float(time), priority, next(self._seq), callback, args, self)
        heapq.heappush(self._queue, ev)
        self._live += 1
        self.events_scheduled += 1
        return ev

    def schedule_in(
        self, delay: float, callback: Callable[..., None], *args: Any, priority: int = 0
    ) -> ScheduledEvent:
        """Schedule relative to the current time."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.schedule(self.now + delay, callback, *args, priority=priority)

    def schedule_batch(
        self,
        times: Sequence[float],
        callback: Callable[..., None],
        args_seq: Optional[Iterable[tuple]] = None,
    ) -> list[ScheduledEvent]:
        """Schedule ``callback(*args)`` at every time of a whole train.

        The batch counterpart of :meth:`schedule`: one validation pass,
        one live-counter update, and -- when the queue is empty and the
        train is time-sorted (the common case: injecting a packet trace
        before the run, or a window-batched component committing one
        window's departures) -- a plain ``extend`` instead of per-event
        sift-ups, since a sorted list already satisfies the heap
        invariant.  ``args_seq`` provides one args tuple per event
        (``()`` for all events when omitted).
        """
        times = [float(t) for t in times]
        if not times:
            return []
        now = self.now
        if min(times) < now - 1e-15:
            raise ValueError(
                f"cannot schedule in the past (now={now}, min time={min(times)})"
            )
        seq = self._seq
        sim = self
        if args_seq is None:
            events = [
                ScheduledEvent(t, 0, next(seq), callback, (), sim)
                for t in times
            ]
        else:
            events = [
                ScheduledEvent(t, 0, next(seq), callback, args, sim)
                for t, args in zip(times, args_seq)
            ]
            if len(events) != len(times):
                raise ValueError("args_seq must provide one tuple per time")
        queue = self._queue
        if not queue and all(a <= b for a, b in zip(times, times[1:])):
            # Sorted batch into an empty queue: already a valid heap.
            queue.extend(events)
        else:
            push = heapq.heappush
            for ev in events:
                push(queue, ev)
        self._live += len(events)
        self.events_scheduled += len(events)
        return events

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once the next event lies strictly beyond this time
            (the clock is left at ``until``).
        max_events:
            Safety valve for tests; raises ``RuntimeError`` when
            exceeded (a runaway component is a bug, not a result).
        """
        queue = self._queue
        pop = heapq.heappop
        processed_here = 0
        while queue:
            ev = queue[0]
            if ev.cancelled:
                pop(queue)
                self.cancelled_events += 1
                continue
            if until is not None and ev.time > until:
                break
            pop(queue)
            ev._sim = None
            self._live -= 1
            self.now = ev.time
            ev.callback(*ev.args)
            self.events_processed += 1
            processed_here += 1
            if max_events is not None and processed_here > max_events:
                raise RuntimeError(
                    f"exceeded max_events={max_events}; runaway component?"
                )
        if until is not None and self.now < until:
            self.now = until

    def peek_time(self) -> float:
        """Time of the next pending event (``inf`` when idle)."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
            self.cancelled_events += 1
        return self._queue[0].time if self._queue else float("inf")

    @property
    def pending(self) -> int:
        """Number of (non-cancelled) scheduled events.

        O(1): a live counter maintained on schedule/cancel/pop, not a
        heap scan -- components may poll it inside their drain loops.
        """
        return self._live

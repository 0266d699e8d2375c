"""Window-batched evented components of the reference pipelines.

:class:`BatchVacationComponent` and :class:`BatchMuxServer` serve
packets as they arrive, inside the evented :class:`Simulator`: the
vacation component commits a whole window's worth of service per
wakeup (one continuation event per busy train instead of one finish
event per packet); the MUX commits each packet's departure at arrival
time (the constant-rate drain is a running ``busy_until`` float, no
internal heap, no per-packet finish/start-next events).

The vacation component routes every tolerance-critical window
decision through the helpers of :mod:`repro.simulation.batched`, so the
evented oracle and the closed-form passes it checks cannot drift apart
on a window boundary.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping

import numpy as np

from repro.core.regulator import SigmaRhoLambdaRegulator
from repro.simulation.batched import _FIT_EPS, _TOL, _service_step
from repro.utils.validation import check_non_negative, check_positive
from tests.evented.engine import Simulator
from tests.evented.packet import Packet

__all__ = ["BatchVacationComponent", "BatchMuxServer"]


class BatchVacationComponent:
    """(sigma, rho, lambda) vacation regulator with window-batched service.

    Semantics are identical to a per-packet vacation regulator; the
    difference is purely mechanical: when service starts, the whole
    backlog that fits into the current window is committed in one
    cumulative-sum pass -- one delivery event per packet plus a single
    train-end continuation event, instead of a finish/try-start
    callback pair per packet -- and the wakeup logic never reschedules
    an already-correct wake (no cancel churn on bursts).
    """

    def __init__(
        self,
        sim: Simulator,
        regulator: SigmaRhoLambdaRegulator,
        sink,
        *,
        offset: float = 0.0,
        out_rate: float = 1.0,
    ):
        self.sim = sim
        self.regulator = regulator
        self.sink = sink
        self.offset = check_non_negative(offset, "offset")
        self.out_rate = check_positive(out_rate, "out_rate")
        self._queue: deque[Packet] = deque()
        #: A committed busy train is in flight (deliveries scheduled).
        self._committed = False
        self._wake = None

    # -- inspection -------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def backlog(self) -> float:
        return sum(p.size for p in self._queue)

    # -- component interface ----------------------------------------------
    def receive(self, packet: Packet) -> None:
        self._queue.append(packet)
        if not self._committed:
            self._try_start()

    def _try_start(self) -> None:
        """Commit the longest head train the current window admits."""
        if self._committed or not self._queue:
            return
        sim = self.sim
        now = sim.now
        head_tx = self._queue[0].size / self.out_rate
        action, value = _service_step(
            now,
            head_tx,
            self.regulator.working_period,
            self.regulator.regulator_period,
            self.offset,
        )
        if action == "serve":
            self._commit_train(now, value)
            return
        start = value
        if self._wake is None or self._wake.cancelled or self._wake.time > start:
            if self._wake is not None:
                self._wake.cancel()
            self._wake = sim.schedule(start, self._wake_up)

    def _wake_up(self) -> None:
        self._wake = None
        self._try_start()

    def _commit_train(self, base: float, end: float) -> None:
        """Serve every queued packet that fits after ``base``; one pass."""
        queue = self._queue
        if len(queue) == 1:
            # Scalar fast path: short queues dominate at low load.
            pkt = queue.popleft()
            fin = base + pkt.size / self.out_rate
            self._committed = True
            self.sim.schedule(fin, self._finish_train, pkt)
            return
        pkts = list(queue)
        tx = np.array([p.size for p in pkts], dtype=np.float64) / self.out_rate
        seg = np.empty(tx.size + 1, dtype=np.float64)
        seg[0] = base
        seg[1:] = tx
        fin = np.add.accumulate(seg)[1:]
        ok = (fin[:-1] < end - _TOL) & (fin[1:] <= end + _FIT_EPS)
        k = tx.size if bool(ok.all()) else 1 + int(np.argmin(ok))
        for _ in range(k):
            queue.popleft()
        self._committed = True
        sim = self.sim
        if k > 1:
            sim.schedule_batch(
                fin[: k - 1], self.sink.receive, ((p,) for p in pkts[: k - 1])
            )
        sim.schedule(float(fin[k - 1]), self._finish_train, pkts[k - 1])

    def _finish_train(self, last_pkt: Packet) -> None:
        """Deliver the train's last packet, then look for more work.

        As in the per-packet chain, the delivery happens before the
        next service decision, at the same timestamp.
        """
        self._committed = False
        self.sink.receive(last_pkt)
        self._try_start()


class BatchMuxServer:
    """Work-conserving FIFO MUX with commit-on-receive constant-rate drains.

    FIFO service order equals arrival order, so each packet's departure
    is fixed the instant it arrives: ``dep = max(now, busy_until) +
    size/C`` -- a running float instead of an internal heap, and one
    delivery event per packet instead of a finish/start-next pair.
    Delays are bit-identical to a per-packet FIFO MUX.
    """

    def __init__(self, sim: Simulator, capacity: float, sink):
        self.sim = sim
        self.capacity = check_positive(capacity, "capacity")
        self.sink = sink
        self._busy_until = -np.inf
        self.served_count = 0
        self.served_data = 0.0

    # -- component interface ----------------------------------------------
    def receive(self, packet: Packet) -> None:
        now = self.sim.now
        bu = self._busy_until
        start = now if now > bu else bu
        dep = start + packet.size / self.capacity
        self._busy_until = dep
        self.sim.schedule(dep, self._route, packet)

    def _route(self, pkt: Packet) -> None:
        # Served accounting happens here -- at delivery, not arrival --
        # so the counters match a per-packet MUX's completion-time
        # counting under horizon truncation.
        self.served_count += 1
        self.served_data += pkt.size
        sink = self.sink
        if isinstance(sink, Mapping):
            target = sink.get(pkt.flow_id)
            if target is not None:
                target.receive(pkt)
            return
        sink.receive(pkt)

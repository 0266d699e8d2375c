"""Event-driven token-bucket regulator.

:class:`TokenBucketComponent` is the classical (sigma, rho) regulator.
A packet may pass the instant the bucket holds its size in tokens (peak
rate unbounded, exactly Cruz's greedy (sigma, rho) shaper); the bucket
refills at ``rho`` up to ``sigma``.  An input that already conforms to
(sigma, rho) passes through undelayed -- which is why simultaneous
bursts from K groups pile up in the downstream MUX, the failure mode
the paper attacks.

The (sigma, rho, lambda) regulator of Section III is
:class:`~tests.evented.batched.BatchVacationComponent`.
"""

from __future__ import annotations

from collections import deque

from repro.utils.validation import check_positive
from tests.evented.engine import Simulator
from tests.evented.packet import Packet

__all__ = ["TokenBucketComponent"]


class TokenBucketComponent:
    """Greedy (sigma, rho) shaper as a DES component.

    Parameters
    ----------
    sim:
        The simulator.
    sigma, rho:
        Bucket depth (capacity-seconds) and refill rate (utilisation).
    sink:
        Downstream component (``receive(packet)``).
    start_full:
        Whether the bucket starts full (the regulator's steady state;
        disable to model a cold start).
    """

    def __init__(
        self,
        sim: Simulator,
        sigma: float,
        rho: float,
        sink,
        *,
        start_full: bool = True,
    ):
        self.sim = sim
        self.sigma = check_positive(sigma, "sigma")
        self.rho = check_positive(rho, "rho")
        self.sink = sink
        self._tokens = self.sigma if start_full else 0.0
        self._last_refill = 0.0
        self._queue: deque[Packet] = deque()
        self._wakeup = None

    # -- bookkeeping -----------------------------------------------------
    def _refill(self) -> None:
        now = self.sim.now
        self._tokens = min(
            self.sigma, self._tokens + self.rho * (now - self._last_refill)
        )
        self._last_refill = now

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def backlog(self) -> float:
        return sum(p.size for p in self._queue)

    # -- component interface ----------------------------------------------
    def receive(self, packet: Packet) -> None:
        self._queue.append(packet)
        self._drain()

    def _drain(self) -> None:
        self._refill()
        while self._queue and self._tokens >= self._queue[0].size - 1e-15:
            pkt = self._queue.popleft()
            self._tokens -= pkt.size
            self.sink.receive(pkt)
        if self._queue:
            deficit = self._queue[0].size - self._tokens
            eta = deficit / self.rho
            if self._wakeup is not None:
                self._wakeup.cancel()
            self._wakeup = self.sim.schedule_in(eta, self._drain)

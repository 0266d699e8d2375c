"""Delay recording for the evented reference pipelines.

:class:`DelayRecorder` is the terminal sink of an evented pipeline: it
timestamps packet deliveries against their source emission times and
summarises them as :class:`~repro.simulation.measures.DelayStats`, the
production simulators' per-flow summary.
"""

from __future__ import annotations

import numpy as np

from repro.simulation.measures import DelayStats

__all__ = ["DelayRecorder"]


class DelayRecorder:
    """A sink component recording end-to-end delays per flow.

    Any object with a ``receive(packet)`` method can terminate a
    pipeline; this one remembers ``now - packet.t_emit`` for every
    delivery, keyed by flow.
    """

    def __init__(self, sim) -> None:
        self._sim = sim
        self._delays: dict[int, list[float]] = {}
        self._arrival_times: dict[int, list[float]] = {}
        self._sizes: dict[int, list[float]] = {}

    def receive(self, packet) -> None:
        self._delays.setdefault(packet.flow_id, []).append(
            self._sim.now - packet.t_emit
        )
        self._arrival_times.setdefault(packet.flow_id, []).append(self._sim.now)
        self._sizes.setdefault(packet.flow_id, []).append(packet.size)

    # -- queries ---------------------------------------------------------
    def flows(self) -> list[int]:
        return sorted(self._delays)

    def delays(self, flow_id: int | None = None) -> np.ndarray:
        """Recorded delays for one flow (or all flows concatenated)."""
        if flow_id is not None:
            return np.asarray(self._delays.get(flow_id, ()), dtype=np.float64)
        if not self._delays:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(
            [np.asarray(v, dtype=np.float64) for v in self._delays.values()]
        )

    def stats(self, flow_id: int | None = None) -> DelayStats:
        return DelayStats.from_delays(self.delays(flow_id))

    def worst_case_delay(self, flow_id: int | None = None) -> float:
        d = self.delays(flow_id)
        return float(d.max()) if d.size else 0.0

    def received_total(self, flow_id: int) -> float:
        """Total data received for a flow (conservation checks in tests)."""
        return float(np.sum(self._sizes.get(flow_id, ())))

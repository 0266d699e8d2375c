"""The work-conserving multiplexer (general MUX) as a DES component.

Each group end host is "equipped with multiplexers (MUX) to control the
input flows ... merge the flows arriving at its two or more input links
into its single output link" (Section III).  The theory assumes a
*general* MUX: work-conserving at rate ``C`` with an arbitrary service
discipline ("a packet of one flow may have priority over a packet of
another flow").  The bounds of Theorems 1/2 and Remark 1 hold for every
such discipline, so the worst-case measurements use the adversarial
one: serve the tagged flow last (static priority).  FIFO is available
for comparison (its delays are no larger, as a property test verifies).

DES cells use this server for the priority discipline; FIFO and
adversarial cells run closed-form passes.  Its FIFO and adversarial
modes remain the per-packet reference those are tested against.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Mapping, Optional

from repro.simulation.engine import Simulator
from repro.simulation.packet import Packet
from repro.utils.validation import check_positive

__all__ = ["MuxServer"]


class MuxServer:
    """Work-conserving server of rate ``capacity`` with pluggable discipline.

    Parameters
    ----------
    sim:
        The simulator.
    capacity:
        Service rate ``C`` (1.0 under the paper's normalisation).
    sink:
        Downstream component receiving served packets, or a mapping
        ``flow_id -> component`` to demultiplex (forwarding to per-flow
        next hops in a tree).
    discipline:
        ``"fifo"``, ``"priority"`` or ``"adversarial"``.

        The *general MUX* of the paper guarantees nothing about service
        order, so the worst-case delay of a bit is the time until the
        aggregate backlog next empties (it may be served dead last,
        behind later arrivals of every flow -- this is the scenario that
        attains Remark 1's ``sum sigma_i / (C - sum rho_i)``).  The
        ``"adversarial"`` discipline realises exactly that measurement:
        packets are *served* in FIFO order (the work-conserving schedule
        is discipline-invariant in aggregate) but *delivered downstream*
        at the instant the queue empties, which is each packet's worst
        feasible departure time.
    priorities:
        For the priority discipline: ``flow_id -> priority`` (lower
        serves first).  Missing flows default to priority 0.  To measure
        the worst case of flow *f*, give *f* the largest value.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: float,
        sink,
        *,
        discipline: str = "fifo",
        priorities: Optional[Mapping[int, int]] = None,
    ):
        if discipline not in ("fifo", "priority", "adversarial"):
            raise ValueError(f"unknown discipline {discipline!r}")
        self.sim = sim
        self.capacity = check_positive(capacity, "capacity")
        self.sink = sink
        self.discipline = discipline
        self.priorities = dict(priorities or {})
        self._heap: list[tuple[int, int, Packet]] = []
        self._seq = itertools.count()
        self._busy = False
        self._batch: list[Packet] = []  # adversarial: held until queue empties
        self.served_count = 0
        self.served_data = 0.0

    # -- queue ordering ----------------------------------------------------
    def _key(self, packet: Packet) -> int:
        if self.discipline in ("fifo", "adversarial"):
            return 0  # sequence number alone orders FIFO
        return self.priorities.get(packet.flow_id, 0)

    @property
    def queue_length(self) -> int:
        return len(self._heap)

    @property
    def backlog(self) -> float:
        return sum(p.size for _, _, p in self._heap)

    # -- component interface ----------------------------------------------
    def receive(self, packet: Packet) -> None:
        heapq.heappush(self._heap, (self._key(packet), next(self._seq), packet))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._heap:
            return
        self._busy = True
        _, _, pkt = heapq.heappop(self._heap)
        self.sim.schedule_in(pkt.size / self.capacity, self._finish, pkt)

    def _finish(self, pkt: Packet) -> None:
        self._busy = False
        self.served_count += 1
        self.served_data += pkt.size
        if self.discipline == "adversarial":
            # Hold delivery until the queue empties: that instant is the
            # worst feasible departure time of every packet in the busy
            # period (the general-MUX worst case the paper bounds).
            self._batch.append(pkt)
            if not self._heap:
                batch, self._batch = self._batch, []
                for held in batch:
                    self._route(held)
        else:
            self._route(pkt)
        self._start_next()

    def _route(self, pkt: Packet) -> None:
        sink = self.sink
        if isinstance(sink, Mapping):
            target = sink.get(pkt.flow_id)
            if target is not None:
                target.receive(pkt)
            return
        sink.receive(pkt)

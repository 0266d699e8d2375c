"""The work-conserving MUX component: disciplines and conservation."""

import numpy as np
import pytest

from tests.des_oracle import MuxServer
from tests.evented import Packet, Simulator


class Collector:
    def __init__(self, sim):
        self.sim = sim
        self.deliveries = []

    def receive(self, pkt):
        self.deliveries.append((self.sim.now, pkt))


def inject(sim, mux, specs):
    """specs: iterable of (time, flow_id, size)."""
    for t, f, s in specs:
        sim.schedule(t, mux.receive, Packet(f, s, t))


class TestFifo:
    def test_serialisation_delay(self):
        sim = Simulator()
        sink = Collector(sim)
        mux = MuxServer(sim, capacity=2.0, sink=sink)
        inject(sim, mux, [(0.0, 0, 1.0)])
        sim.run()
        assert sink.deliveries[0][0] == pytest.approx(0.5)  # size/capacity

    def test_fifo_order_across_flows(self):
        sim = Simulator()
        sink = Collector(sim)
        mux = MuxServer(sim, capacity=1.0, sink=sink)
        inject(sim, mux, [(0.0, 0, 0.1), (0.01, 1, 0.1), (0.02, 0, 0.1)])
        sim.run()
        flows = [p.flow_id for _, p in sink.deliveries]
        assert flows == [0, 1, 0]

    def test_work_conservation(self):
        """Busy period length equals total work / capacity."""
        sim = Simulator()
        sink = Collector(sim)
        mux = MuxServer(sim, capacity=0.5, sink=sink)
        inject(sim, mux, [(0.0, 0, 0.2), (0.0, 1, 0.2), (0.0, 2, 0.2)])
        sim.run()
        assert sink.deliveries[-1][0] == pytest.approx(0.6 / 0.5)
        assert mux.served_data == pytest.approx(0.6)
        assert mux.served_count == 3


class TestPriority:
    def test_low_priority_served_last(self):
        sim = Simulator()
        sink = Collector(sim)
        mux = MuxServer(
            sim, 1.0, sink, discipline="priority", priorities={0: 5, 1: 0}
        )
        # Both queued while the server is busy with an initial packet.
        inject(sim, mux, [(0.0, 1, 0.1), (0.01, 0, 0.1), (0.02, 1, 0.1)])
        sim.run()
        flows = [p.flow_id for _, p in sink.deliveries]
        assert flows == [1, 1, 0]

    def test_non_preemptive(self):
        sim = Simulator()
        sink = Collector(sim)
        mux = MuxServer(
            sim, 1.0, sink, discipline="priority", priorities={0: 5, 1: 0}
        )
        # Low priority in service is not interrupted by a later high one.
        inject(sim, mux, [(0.0, 0, 0.2), (0.05, 1, 0.1)])
        sim.run()
        assert [p.flow_id for _, p in sink.deliveries] == [0, 1]


class TestAdversarial:
    def test_batch_delivery_at_queue_empty(self):
        """Every packet's delivery time is the busy-period end -- the
        general-MUX worst case of Remark 1."""
        sim = Simulator()
        sink = Collector(sim)
        mux = MuxServer(sim, 1.0, sink, discipline="adversarial")
        inject(sim, mux, [(0.0, 0, 0.2), (0.0, 1, 0.2), (0.0, 2, 0.2)])
        sim.run()
        times = [t for t, _ in sink.deliveries]
        assert all(t == pytest.approx(0.6) for t in times)

    def test_separate_busy_periods_batch_separately(self):
        sim = Simulator()
        sink = Collector(sim)
        mux = MuxServer(sim, 1.0, sink, discipline="adversarial")
        inject(sim, mux, [(0.0, 0, 0.1), (5.0, 1, 0.1)])
        sim.run()
        times = sorted(t for t, _ in sink.deliveries)
        assert times[0] == pytest.approx(0.1)
        assert times[1] == pytest.approx(5.1)

    def test_adversarial_dominates_fifo_delay(self):
        """Per-packet worst-case delays >= the FIFO delays on the same input."""
        specs = [(i * 0.05, i % 3, 0.08) for i in range(40)]
        results = {}
        for disc in ("fifo", "adversarial"):
            sim = Simulator()
            sink = Collector(sim)
            mux = MuxServer(sim, 1.0, sink, discipline=disc)
            inject(sim, mux, specs)
            sim.run()
            delays = {p.uid: t - p.t_emit for t, p in sink.deliveries}
            results[disc] = delays
        # Packet identities differ between runs; compare multisets by rank.
        fifo = sorted(results["fifo"].values())
        adv = sorted(results["adversarial"].values())
        assert all(a >= f - 1e-12 for f, a in zip(fifo, adv))


class TestRoutingAndValidation:
    def test_sink_mapping_demultiplexes(self):
        sim = Simulator()
        a, b = Collector(sim), Collector(sim)
        mux = MuxServer(sim, 1.0, {0: a, 1: b})
        inject(sim, mux, [(0.0, 0, 0.1), (0.0, 1, 0.1)])
        sim.run()
        assert len(a.deliveries) == 1
        assert len(b.deliveries) == 1

    def test_unmapped_flow_is_dropped(self):
        sim = Simulator()
        a = Collector(sim)
        mux = MuxServer(sim, 1.0, {0: a})
        inject(sim, mux, [(0.0, 7, 0.1)])
        sim.run()
        assert a.deliveries == []

    def test_unknown_discipline_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            MuxServer(sim, 1.0, Collector(sim), discipline="lifo")

    def test_queue_metrics(self):
        sim = Simulator()
        sink = Collector(sim)
        mux = MuxServer(sim, 1.0, sink)
        inject(sim, mux, [(0.0, 0, 0.5), (0.0, 1, 0.3)])
        sim.run(until=0.01)
        assert mux.queue_length == 1      # one in service (popped), one queued
        assert mux.backlog == pytest.approx(0.3)

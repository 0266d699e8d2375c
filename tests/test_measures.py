"""Delay recording and statistics."""

import numpy as np
import pytest

from repro.simulation.measures import DelayStats
from tests.evented import DelayRecorder, Packet, Simulator


class TestDelayStats:
    def test_from_delays(self):
        s = DelayStats.from_delays(np.array([0.1, 0.2, 0.3, 1.0]))
        assert s.count == 4
        assert s.worst == pytest.approx(1.0)
        assert s.mean == pytest.approx(0.4)
        assert s.p50 == pytest.approx(0.25)

    def test_empty(self):
        s = DelayStats.from_delays(np.array([]))
        assert s.count == 0
        assert s.worst == 0.0


class TestDelayRecorder:
    def test_records_against_emission_time(self):
        sim = Simulator()
        rec = DelayRecorder(sim)
        pkt = Packet(flow_id=0, size=0.1, t_emit=1.0)
        sim.schedule(3.5, rec.receive, pkt)
        sim.run()
        assert rec.worst_case_delay(0) == pytest.approx(2.5)

    def test_per_flow_separation(self):
        sim = Simulator()
        rec = DelayRecorder(sim)
        sim.schedule(1.0, rec.receive, Packet(0, 0.1, 0.0))
        sim.schedule(2.0, rec.receive, Packet(1, 0.1, 0.0))
        sim.run()
        assert rec.flows() == [0, 1]
        assert rec.worst_case_delay(0) == pytest.approx(1.0)
        assert rec.worst_case_delay(1) == pytest.approx(2.0)
        assert rec.worst_case_delay() == pytest.approx(2.0)

    def test_received_total(self):
        sim = Simulator()
        rec = DelayRecorder(sim)
        sim.schedule(1.0, rec.receive, Packet(0, 0.25, 0.0))
        sim.schedule(2.0, rec.receive, Packet(0, 0.5, 0.0))
        sim.run()
        assert rec.received_total(0) == pytest.approx(0.75)

    def test_empty_recorder(self):
        rec = DelayRecorder(Simulator())
        assert rec.worst_case_delay() == 0.0
        assert rec.stats().count == 0


class TestPacket:
    def test_validation(self):
        with pytest.raises(ValueError):
            Packet(0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Packet(0, 0.1, -1.0)

    def test_uids_monotone(self):
        a = Packet(0, 0.1, 0.0)
        b = Packet(0, 0.1, 0.0)
        assert b.uid > a.uid

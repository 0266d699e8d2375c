"""Event-driven regulators: conformance and window discipline."""

import numpy as np
import pytest

from repro.core.regulator import SigmaRhoLambdaRegulator
from repro.simulation.flow import PacketTrace, VBRVideoSource
from repro.utils.piecewise import PiecewiseLinearCurve as PLC
from tests.des_oracle import VacationComponent
from tests.evented import (
    BatchVacationComponent,
    Packet,
    Simulator,
    TokenBucketComponent,
)


class Collector:
    """Terminal sink recording (time, packet) deliveries."""

    def __init__(self, sim):
        self.sim = sim
        self.deliveries = []

    def receive(self, pkt):
        self.deliveries.append((self.sim.now, pkt))

    def output_curve(self):
        times = [t for t, _ in self.deliveries]
        sizes = [p.size for _, p in self.deliveries]
        return PLC.from_packet_arrivals(times, sizes)

    @property
    def total(self):
        return sum(p.size for _, p in self.deliveries)


def inject(sim, component, times, sizes, flow_id=0):
    for t, s in zip(times, sizes):
        sim.schedule(t, component.receive, Packet(flow_id, float(s), float(t)))


class TestTokenBucket:
    def test_conformant_traffic_passes_undelayed(self):
        sim = Simulator()
        sink = Collector(sim)
        tb = TokenBucketComponent(sim, sigma=0.1, rho=0.5, sink=sink)
        times = np.arange(0.0, 1.0, 0.1)
        inject(sim, tb, times, np.full(10, 0.05))  # rate 0.5, burst 0.05
        sim.run()
        delivered = [t for t, _ in sink.deliveries]
        assert np.allclose(delivered, times)

    def test_output_conforms_to_envelope(self):
        """The defining property of the greedy (sigma, rho) shaper."""
        sim = Simulator()
        sink = Collector(sim)
        tb = TokenBucketComponent(sim, sigma=0.05, rho=0.3, sink=sink)
        tr = VBRVideoSource(0.3).generate(5.0, rng=3).fragment(0.01)
        inject(sim, tb, tr.times, tr.sizes)
        sim.run()
        out = sink.output_curve()
        assert out.conforms(sigma=0.05 + 0.01, rho=0.3)  # + one MTU slack

    def test_conservation(self):
        sim = Simulator()
        sink = Collector(sim)
        tb = TokenBucketComponent(sim, sigma=0.02, rho=0.2, sink=sink)
        tr = VBRVideoSource(0.2).generate(3.0, rng=5).fragment(0.005)
        inject(sim, tb, tr.times, tr.sizes)
        sim.run()
        assert sink.total == pytest.approx(tr.total)

    def test_oversized_burst_queues_then_drains(self):
        sim = Simulator()
        sink = Collector(sim)
        tb = TokenBucketComponent(sim, sigma=0.1, rho=0.5, sink=sink)
        # 0.3 of data at t=0 against a 0.1 bucket at rate 0.5:
        # 0.1 passes immediately, the rest drains at rho.
        inject(sim, tb, [0.0] * 3, [0.1] * 3)
        sim.run()
        t_last = sink.deliveries[-1][0]
        assert t_last == pytest.approx(0.4)  # 0.2 excess / 0.5

    def test_fifo_order_preserved(self):
        sim = Simulator()
        sink = Collector(sim)
        tb = TokenBucketComponent(sim, sigma=0.01, rho=0.1, sink=sink)
        inject(sim, tb, [0.0, 0.0, 0.0], [0.01, 0.01, 0.01])
        sim.run()
        uids = [p.uid for _, p in sink.deliveries]
        assert uids == sorted(uids)

    def test_cold_start(self):
        sim = Simulator()
        sink = Collector(sim)
        tb = TokenBucketComponent(sim, sigma=0.1, rho=0.5, sink=sink, start_full=False)
        inject(sim, tb, [0.0], [0.05])
        sim.run()
        # Empty bucket: wait size/rho = 0.1 s.
        assert sink.deliveries[0][0] == pytest.approx(0.1)


class TestVacationComponent:
    """The per-packet reference regulator of ``tests/des_oracle.py``."""

    component = VacationComponent

    def make(self, sim, sigma=0.05, rho=0.25, offset=0.0):
        reg = SigmaRhoLambdaRegulator(sigma, rho)
        sink = Collector(sim)
        vc = self.component(sim, reg, sink, offset=offset, out_rate=1.0)
        return reg, vc, sink

    def test_deliveries_only_during_windows(self):
        sim = Simulator()
        reg, vc, sink = self.make(sim)
        tr = VBRVideoSource(0.25).generate(4.0, rng=7).fragment(0.005)
        inject(sim, vc, tr.times, tr.sizes)
        sim.run()
        for t, p in sink.deliveries:
            # The *completion* instant may touch the window end.
            start_ok = reg.is_on(t - p.size * 0.5)
            assert start_ok, f"delivery at {t} outside any window"

    def test_conservation(self):
        sim = Simulator()
        _, vc, sink = self.make(sim)
        tr = VBRVideoSource(0.25).generate(4.0, rng=9).fragment(0.005)
        inject(sim, vc, tr.times, tr.sizes)
        sim.run()
        assert sink.total == pytest.approx(tr.total)

    def test_offset_delays_first_window(self):
        sim = Simulator()
        reg, vc, sink = self.make(sim, offset=0.3)
        inject(sim, vc, [0.0], [0.01])
        sim.run()
        assert sink.deliveries[0][0] == pytest.approx(0.3 + 0.01)

    def test_packet_blocked_during_vacation(self):
        sim = Simulator()
        reg, vc, sink = self.make(sim)
        w = reg.working_period
        # Arrive just after the window closes; must wait for the next.
        inject(sim, vc, [w + 1e-6], [0.01])
        sim.run()
        expected = reg.regulator_period + 0.01
        assert sink.deliveries[0][0] == pytest.approx(expected, rel=1e-6)

    def test_oversized_packet_rejected(self):
        sim = Simulator()
        reg, vc, sink = self.make(sim, sigma=0.01, rho=0.5)
        # One packet larger than W * out_rate can never fit a window.
        inject(sim, vc, [0.0], [reg.working_period * 2])
        with pytest.raises(ValueError, match="working period"):
            sim.run()

    def test_average_output_rate_is_rho(self):
        """Over many periods the regulator sustains exactly rho."""
        sim = Simulator()
        reg, vc, sink = self.make(sim, sigma=0.05, rho=0.25)
        # Saturate the regulator: plenty of backlog.
        inject(sim, vc, [0.0] * 200, [0.01] * 200)  # 2.0 data total
        sim.run()
        t_last = sink.deliveries[-1][0]
        # 2.0 data at duty-cycle rho=0.25 -> ~8 s of cycles.
        assert 2.0 / t_last == pytest.approx(0.25, rel=0.1)

    def test_no_event_storm_at_window_boundary(self):
        """Regression: float noise at window ends must not spin the loop
        (the bug fixed in next_window_start's integer-index rewrite)."""
        sim = Simulator()
        reg, vc, sink = self.make(sim, sigma=0.0496620611, rho=0.15)
        tr = VBRVideoSource(0.15).generate(3.0, rng=100).fragment(0.002)
        inject(sim, vc, tr.times, tr.sizes)
        sim.run(max_events=200_000)
        assert sink.total == pytest.approx(tr.total)


class TestBatchVacationComponent(TestVacationComponent):
    """The window-batched production regulator meets the same contract."""

    component = BatchVacationComponent

"""Batched-vs-legacy DES engine equivalence regression.

The batched engine (``repro.simulation.batched``) must reproduce the
legacy per-packet event chain's measured delays.  The contract this
suite enforces, cell by cell:

* **Bit-identical** per-flow delay statistics (worst/mean/percentiles/
  counts) for every FIFO and priority discipline run, and for
  ``sigma-rho`` adversarial runs off the tie grid -- the float
  arithmetic of both engines is sequenced identically.
* **Adversarial hold-release refinement**: at instants where the MUX
  backlog touches exactly zero, the legacy engine's release decision
  was an event-sequence race (history-dependent); the batched engine
  releases deterministically, matching the fluid backend's empty-queue
  semantics (``fluid_next_empty``).  Batched busy periods therefore
  *refine* legacy ones, so batched delays are pointwise <= legacy
  delays, with equality away from exact zero-backlog ties.  Staggered
  vacation traffic is paced at the link rate inside windows, making
  such ties structural -- which is also why the legacy race was
  *inflating* the adversarial measurement on exactly the cells the
  paper showcases (batched adversarial == FIFO there, as the staggering
  theory predicts: no MUX pileup).
* **Verdict equality**: per-cell soundness verdicts agree across the
  full curated DES corpus (each realised cell re-simulated with
  ``engine="legacy"``), and the batched engine never measures *larger*.
* **Event-count reduction**: batching must actually remove events.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.calculus.envelope import ArrivalEnvelope
from repro.core.adaptive import AdaptiveController
from repro.scenarios import adversarial_corpus
from repro.scenarios.runner import evaluate_cell, run_scenario
from repro.scenarios.tracebatch import realise_batch
from repro.simulation.batched import vacation_departures
from repro.simulation.chain import simulate_regulated_chain
from repro.simulation.engine import Simulator
from repro.simulation.flow import AudioSource, PacketTrace, VBRVideoSource
from repro.simulation.host_sim import simulate_regulated_host
from repro.simulation.measures import DelayRecorder
from repro.simulation.regulator_sim import VacationComponent
from repro.simulation.tree_sim import simulate_multicast_tree


def _stats_equal(a, b) -> bool:
    return (
        a.count == b.count
        and a.worst == b.worst
        and a.mean == b.mean
        and a.p50 == b.p50
        and a.p99 == b.p99
    )


def _stats_le(a_batched, b_legacy) -> bool:
    """Pointwise-refinement consequence: batched stats never larger."""
    return (
        a_batched.count == b_legacy.count
        and a_batched.worst <= b_legacy.worst
        and a_batched.mean <= b_legacy.mean + 1e-15
    )


@pytest.fixture(scope="module")
def video_traces():
    rho = 0.3
    trace = VBRVideoSource(rho).generate(2.0, rng=1).fragment(0.002)
    envs = [ArrivalEnvelope(max(trace.empirical_sigma(rho), 1e-6), rho)] * 3
    return [trace] * 3, envs


# ----------------------------------------------------------------------
# Host level
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["sigma-rho", "sigma-rho-lambda"])
@pytest.mark.parametrize("discipline", ["fifo", "priority"])
def test_host_bit_identical_fifo_priority(video_traces, mode, discipline):
    traces, envs = video_traces
    leg = simulate_regulated_host(
        traces, envs, mode=mode, discipline=discipline,
        stagger_phase=0.37, engine="legacy",
    )
    bat = simulate_regulated_host(
        traces, envs, mode=mode, discipline=discipline,
        stagger_phase=0.37, engine="batched",
    )
    assert all(_stats_equal(a, b) for a, b in zip(bat.per_flow, leg.per_flow))
    assert bat.worst_case_delay == leg.worst_case_delay


def test_host_sigma_rho_adversarial_bit_identical(video_traces):
    traces, envs = video_traces
    leg = simulate_regulated_host(
        traces, envs, mode="sigma-rho", discipline="adversarial",
        engine="legacy",
    )
    bat = simulate_regulated_host(
        traces, envs, mode="sigma-rho", discipline="adversarial",
        engine="batched",
    )
    assert all(_stats_equal(a, b) for a, b in zip(bat.per_flow, leg.per_flow))


def test_host_vacation_adversarial_refinement(video_traces):
    """Zero-backlog release refines the legacy race: pointwise <=, and
    the staggered cell collapses onto its FIFO measurement (no MUX
    pileup -- the paper's own claim)."""
    traces, envs = video_traces
    leg = simulate_regulated_host(
        traces, envs, mode="sigma-rho-lambda", discipline="adversarial",
        engine="legacy",
    )
    bat = simulate_regulated_host(
        traces, envs, mode="sigma-rho-lambda", discipline="adversarial",
        engine="batched",
    )
    fifo = simulate_regulated_host(
        traces, envs, mode="sigma-rho-lambda", discipline="fifo",
        engine="batched",
    )
    assert all(_stats_le(b, a) for b, a in zip(bat.per_flow, leg.per_flow))
    # Sandwich: fifo <= adversarial(batched) <= adversarial(legacy).
    assert fifo.worst_case_delay <= bat.worst_case_delay + 1e-15
    assert bat.worst_case_delay <= leg.worst_case_delay + 1e-15


def test_host_batched_slashes_events(video_traces):
    traces, envs = video_traces
    leg = simulate_regulated_host(
        traces, envs, mode="sigma-rho-lambda", discipline="adversarial",
        engine="legacy",
    )
    bat = simulate_regulated_host(
        traces, envs, mode="sigma-rho-lambda", discipline="adversarial",
        engine="batched",
    )
    # The primed fast path runs one kernel pass per busy train + one
    # release per MUX busy period -- well below per-packet event counts
    # (the margin grows with the horizon; this fixture is a short one).
    assert bat.events < leg.events / 3
    assert bat.cancelled_events == 0


# ----------------------------------------------------------------------
# Chain and tree level
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["sigma-rho", "sigma-rho-lambda"])
def test_chain_priority_bit_identical(video_traces, mode):
    traces, envs = video_traces
    leg = simulate_regulated_chain(
        traces[0], [traces[1:]] * 2, envs, mode=mode,
        discipline="priority", propagation=[0.0, 0.003], engine="legacy",
    )
    bat = simulate_regulated_chain(
        traces[0], [traces[1:]] * 2, envs, mode=mode,
        discipline="priority", propagation=[0.0, 0.003], engine="batched",
    )
    assert _stats_equal(bat.tagged_stats, leg.tagged_stats)
    assert bat.worst_case_delay == leg.worst_case_delay


def test_chain_adversarial_refinement(video_traces):
    traces, envs = video_traces
    for mode in ("sigma-rho", "sigma-rho-lambda"):
        leg = simulate_regulated_chain(
            traces[0], [traces[1:]] * 2, envs, mode=mode,
            discipline="adversarial", engine="legacy",
        )
        bat = simulate_regulated_chain(
            traces[0], [traces[1:]] * 2, envs, mode=mode,
            discipline="adversarial", engine="batched",
        )
        assert _stats_le(bat.tagged_stats, leg.tagged_stats)


@pytest.fixture(scope="module")
def small_tree():
    from repro.overlay.groups import MultiGroupNetwork
    from repro.topology.attach import attach_hosts
    from repro.topology.transit_stub import transit_stub_backbone

    g = transit_stub_backbone(3, 2, 3, rng=1)
    net = attach_hosts(g, 10, rng=2)
    mgn = MultiGroupNetwork.fully_joined(net, 3, rng=3)
    tree = mgn.build_tree(0, "dsct", rng=4)
    traces = [
        VBRVideoSource(0.25).generate(0.8, rng=i).fragment(0.002)
        for i in range(3)
    ]
    envs = [
        ArrivalEnvelope(max(t.empirical_sigma(0.25), 1e-6), 0.25)
        for t in traces
    ]
    return tree, mgn.latency, traces, envs


def test_tree_fifo_bit_identical(small_tree):
    tree, latency, traces, envs = small_tree
    leg = simulate_multicast_tree(
        [tree] * 3, 0, traces, envs, latency, mode="sigma-rho",
        discipline="fifo", engine="legacy",
    )
    bat = simulate_multicast_tree(
        [tree] * 3, 0, traces, envs, latency, mode="sigma-rho",
        discipline="fifo", engine="batched",
    )
    assert bat.per_receiver_worst == leg.per_receiver_worst


def test_tree_adversarial_refinement(small_tree):
    tree, latency, traces, envs = small_tree
    leg = simulate_multicast_tree(
        [tree] * 3, 0, traces, envs, latency, mode="sigma-rho",
        discipline="adversarial", engine="legacy",
    )
    bat = simulate_multicast_tree(
        [tree] * 3, 0, traces, envs, latency, mode="sigma-rho",
        discipline="adversarial", engine="batched",
    )
    assert set(bat.per_receiver_worst) == set(leg.per_receiver_worst)
    for host, worst in bat.per_receiver_worst.items():
        assert worst <= leg.per_receiver_worst[host] + 1e-15
    assert bat.events < leg.events


# ----------------------------------------------------------------------
# The vacation-departure kernel against the legacy component
# ----------------------------------------------------------------------
def _legacy_vacation_departures(times, sizes, regulator, offset, out_rate):
    sim = Simulator()

    class _Tap:
        def __init__(self):
            self.deps = []

        def receive(self, pkt):
            self.deps.append(sim.now)

    tap = _Tap()
    comp = VacationComponent(sim, regulator, tap, offset=offset, out_rate=out_rate)
    from repro.simulation.host_sim import inject_trace

    inject_trace(sim, PacketTrace(times, sizes), 0, comp)
    sim.run()
    return np.asarray(tap.deps)


@pytest.mark.parametrize("offset", [0.0, 0.013, 0.21])
def test_vacation_kernel_matches_legacy_component(offset):
    rho = 0.3
    trace = AudioSource(rho).generate(2.0, rng=5).fragment(0.002)
    env = ArrivalEnvelope(max(trace.empirical_sigma(rho), 1e-6), rho)
    plan = AdaptiveController([env] * 2, 1.0).build_stagger_plan()
    reg = plan.regulators[0]
    legacy = _legacy_vacation_departures(
        trace.times, trace.sizes, reg, offset, 1.0
    )
    deps, trains = vacation_departures(
        trace.times, trace.sizes, reg, offset=offset, out_rate=1.0
    )
    assert np.array_equal(deps, legacy)
    assert 0 < trains <= len(trace)


def test_vacation_kernel_oversize_packet_rejected():
    env = ArrivalEnvelope(0.05, 0.3)
    plan = AdaptiveController([env] * 2, 1.0).build_stagger_plan()
    reg = plan.regulators[0]
    big = reg.working_period * 2.0
    with pytest.raises(ValueError, match="working period"):
        vacation_departures(
            np.array([0.1]), np.array([big]), reg, offset=0.0, out_rate=1.0
        )


def test_vacation_kernel_empty_trace():
    env = ArrivalEnvelope(0.05, 0.3)
    plan = AdaptiveController([env] * 2, 1.0).build_stagger_plan()
    deps, trains = vacation_departures(
        np.empty(0), np.empty(0), plan.regulators[0]
    )
    assert deps.size == 0 and trains == 0


# ----------------------------------------------------------------------
# Scenario level: the curated corpus, batched vs the legacy engine
# ----------------------------------------------------------------------
def _corpus_des_cells():
    return [
        sc
        for sc in adversarial_corpus()
        if sc.backend in ("des", "tree_des")
    ]


def _legacy_measured(r) -> float:
    """The realised cell ``r`` re-simulated on the legacy engine, routed
    exactly like ``runner._simulate`` routes the DES backends."""
    sc = r.scenario
    common = dict(
        mode=r.eff_mode, capacity=sc.capacity, discipline=sc.discipline,
        engine="legacy",
    )
    if r.eff_backend == "tree_des":
        tree, latency = r.tree_ctx
        return simulate_multicast_tree(
            [tree], 0, r.traces, r.envelopes, latency, **common
        ).worst_case_delay
    if sc.topology == "host":
        return simulate_regulated_host(
            r.traces, r.envelopes, stagger_phase=sc.stagger_phase, **common
        ).worst_case_delay
    return simulate_regulated_chain(
        r.traces[0], [list(r.traces[1:])] * r.hops, r.envelopes,
        stagger_phase=sc.stagger_phase, propagation=list(r.propagation),
        **common,
    ).worst_case_delay


@pytest.mark.parametrize(
    "scenario", _corpus_des_cells(), ids=lambda sc: sc.name
)
def test_corpus_batched_vs_legacy_backend(scenario):
    # One realisation feeds both engines, so they differ in the engine
    # alone.
    (r,), _ = realise_batch([scenario])
    assert r.eff_backend == scenario.backend
    legacy = _legacy_measured(r)
    outcome = run_scenario(scenario)
    assert outcome.measured == evaluate_cell(scenario).measured
    # Delay refinement: never larger, equal off the zero-backlog ties.
    assert outcome.measured <= legacy + 1e-12
    # Verdicts agree: both sound against the identical bound.
    assert outcome.sound
    assert legacy <= outcome.bound + outcome.eps


def test_des_fluid_fallback_matches_fluid_backend():
    """A lambda cell the DES cannot resolve falls back to the fluid
    backend and measures exactly what the fluid backend measures."""
    base = dataclasses.replace(
        next(sc for sc in adversarial_corpus() if sc.name == "des-host-lambda"),
        name="fallback-probe",
        utilization=0.1,  # tiny windows -> tiny mtu -> fluid fallback
    )
    cell_des = evaluate_cell(base)
    cell_fluid = evaluate_cell(dataclasses.replace(base, backend="fluid"))
    assert cell_des.eff_backend == "fluid"
    assert cell_des == dataclasses.replace(cell_fluid, name=cell_des.name)


# ----------------------------------------------------------------------
# Hypothesis: random (off-grid) traces are bit-identical
# ----------------------------------------------------------------------
@st.composite
def _random_traces(draw):
    k = draw(st.integers(2, 3))
    n = draw(st.integers(3, 40))
    traces = []
    for f in range(k):
        gaps = draw(
            st.lists(
                st.floats(1e-4, 0.15, allow_nan=False, allow_infinity=False),
                min_size=n, max_size=n,
            )
        )
        sizes = draw(
            st.lists(
                st.floats(1e-3, 0.02, allow_nan=False, allow_infinity=False),
                min_size=n, max_size=n,
            )
        )
        times = np.cumsum(np.asarray(gaps))
        traces.append(PacketTrace(times, np.asarray(sizes)))
    rho = draw(st.floats(0.1, 0.3))
    envs = [
        ArrivalEnvelope(max(tr.empirical_sigma(rho), 1e-6), rho)
        for tr in traces
    ]
    return traces, envs


@settings(max_examples=20, deadline=None)
@given(data=_random_traces(), mode=st.sampled_from(["sigma-rho", "sigma-rho-lambda"]))
def test_hypothesis_host_fifo_priority_bit_identical(data, mode):
    traces, envs = data
    for discipline in ("fifo", "priority"):
        try:
            leg = simulate_regulated_host(
                traces, envs, mode=mode, discipline=discipline, engine="legacy"
            )
        except ValueError:
            # Packet exceeds the vacation working period: the batched
            # engine must reject the same configurations.
            with pytest.raises(ValueError, match="working period"):
                simulate_regulated_host(
                    traces, envs, mode=mode, discipline=discipline,
                    engine="batched",
                )
            continue
        bat = simulate_regulated_host(
            traces, envs, mode=mode, discipline=discipline, engine="batched"
        )
        assert all(
            _stats_equal(a, b) for a, b in zip(bat.per_flow, leg.per_flow)
        )


@settings(max_examples=20, deadline=None)
@given(data=_random_traces())
def test_hypothesis_host_adversarial_refinement(data):
    traces, envs = data
    for mode in ("sigma-rho", "sigma-rho-lambda"):
        try:
            leg = simulate_regulated_host(
                traces, envs, mode=mode, discipline="adversarial",
                engine="legacy",
            )
        except ValueError:
            with pytest.raises(ValueError, match="working period"):
                simulate_regulated_host(
                    traces, envs, mode=mode, discipline="adversarial",
                    engine="batched",
                )
            continue
        bat = simulate_regulated_host(
            traces, envs, mode=mode, discipline="adversarial",
            engine="batched",
        )
        assert all(
            _stats_le(b, a) for b, a in zip(bat.per_flow, leg.per_flow)
        )

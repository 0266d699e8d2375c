"""Primed-vs-evented-vs-legacy equivalence for the closed-form DES paths.

The window-batched components are pinned against the legacy per-packet
chain elsewhere; this suite pins the *closed-form* layer against both
reference pipelines of ``tests/des_oracle.py``.  The equivalence ladder
per cell is::

    primed (production)  ==  evented (engine="evented")
                         <=  legacy  (engine="legacy")

with strict bit-identity on the first rung (the kernels sequence the
same float operations the evented components perform) and the
documented adversarial-release refinement on the second (equality off
the zero-backlog tie grid; sigma-rho adversarial host cells are in the
bit-identical class end to end).

Covered surfaces:

* :func:`repro.simulation.batched.sigma_rho_departures` against the
  evented ``TokenBucketComponent`` (corpus-style and hypothesis
  traces) -- including the stale-wakeup refill subtlety;
* the primed sigma-rho host and the primed ``mode="none"`` host;
* chains as a loop of closed-form host passes, one per hop;
* whole trees as one closed-form host pass per member, top down, in
  every control mode;
* the tie order of those passes: exact ties between cross and tagged
  arrivals at a hop or member, where the order in which service times
  add decides the last bits;
* the same passes under FIFO and static priority, where the tie order
  decides which packet is served first: named counterexamples (for
  priority, one per side of the completion tie rule), dyadic
  hypothesis hosts, chains and trees (exact float sums, so equal
  instants are common) against both oracles, and the horizon, drain
  and per-host capacity options;
* per-packet dominance: no work-conserving discipline delivers a
  packet after the adversarial MUX does.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.calculus.envelope import ArrivalEnvelope
from repro.simulation.batched import primed_host, sigma_rho_departures
from repro.simulation.chain import simulate_regulated_chain
from repro.simulation.flow import AudioSource, PacketTrace, VBRVideoSource
from repro.simulation.host_sim import simulate_regulated_host
from repro.simulation.tree_sim import simulate_multicast_tree
from tests.des_oracle import (
    _serve_tagged_last,
    build_host,
    inject_trace,
    simulate_chain,
    simulate_host,
    simulate_tree,
)
from tests.evented import DelayRecorder, Simulator, TokenBucketComponent


def _stats_equal(a, b) -> bool:
    return (
        a.count == b.count
        and a.worst == b.worst
        and a.mean == b.mean
        and a.p50 == b.p50
        and a.p99 == b.p99
    )


@pytest.fixture(scope="module")
def video_traces():
    rho = 0.3
    trace = VBRVideoSource(rho).generate(2.0, rng=1).fragment(0.002)
    envs = [ArrivalEnvelope(max(trace.empirical_sigma(rho), 1e-6), rho)] * 3
    return [trace] * 3, envs


# ----------------------------------------------------------------------
# The sigma-rho kernel against the evented token bucket
# ----------------------------------------------------------------------
def _evented_bucket_departures(times, sizes, sigma, rho):
    sim = Simulator()

    class _Tap:
        def __init__(self):
            self.deps = []

        def receive(self, pkt):
            self.deps.append(sim.now)

    tap = _Tap()
    comp = TokenBucketComponent(sim, sigma, rho, tap)
    inject_trace(sim, PacketTrace(times, sizes), 0, comp)
    sim.run()
    return np.asarray(tap.deps)


@pytest.mark.parametrize("rho", [0.15, 0.3, 0.6])
def test_sigma_rho_kernel_matches_evented_component(rho):
    trace = AudioSource(rho).generate(2.0, rng=5).fragment(0.002)
    sigma = max(trace.empirical_sigma(rho), 1e-6)
    evented = _evented_bucket_departures(trace.times, trace.sizes, sigma, rho)
    deps, drains = sigma_rho_departures(trace.times, trace.sizes, sigma, rho)
    assert np.array_equal(deps, evented)
    assert 0 < drains


def test_sigma_rho_kernel_starved_bucket():
    """A tight bucket forces wakeup chains (the stale-wake refill path)."""
    times = np.array([0.0, 0.0, 0.0, 0.5, 0.5, 2.0])
    sizes = np.array([0.04, 0.04, 0.04, 0.04, 0.04, 0.01])
    sigma, rho = 0.05, 0.1
    evented = _evented_bucket_departures(times, sizes, sigma, rho)
    deps, _ = sigma_rho_departures(times, sizes, sigma, rho)
    assert np.array_equal(deps, evented)


def test_sigma_rho_kernel_empty_and_validation():
    deps, drains = sigma_rho_departures(np.empty(0), np.empty(0), 1.0, 0.5)
    assert deps.size == 0 and drains == 0
    with pytest.raises(ValueError):
        sigma_rho_departures(np.array([0.0]), np.array([1.0]), 0.0, 0.5)
    with pytest.raises(ValueError):
        sigma_rho_departures(np.array([0.0]), np.array([1.0]), 1.0, -1.0)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_hypothesis_sigma_rho_kernel_bit_identical(data):
    n = data.draw(st.integers(1, 40))
    gaps = data.draw(
        st.lists(
            st.floats(0.0, 0.2, allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n,
        )
    )
    sizes = np.asarray(
        data.draw(
            st.lists(
                st.floats(1e-3, 0.05, allow_nan=False, allow_infinity=False),
                min_size=n, max_size=n,
            )
        )
    )
    times = np.cumsum(np.asarray(gaps))
    sigma = data.draw(st.floats(0.05, 0.5))
    rho = data.draw(st.floats(0.05, 0.8))
    evented = _evented_bucket_departures(times, sizes, sigma, rho)
    deps, _ = sigma_rho_departures(times, sizes, sigma, rho)
    assert np.array_equal(deps, evented)


# ----------------------------------------------------------------------
# Host level: primed vs evented vs legacy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["sigma-rho", "sigma-rho-lambda", "none"])
def test_primed_host_equals_evented_host(video_traces, mode):
    traces, envs = video_traces
    kwargs = dict(mode=mode, discipline="adversarial", stagger_phase=0.21)
    primed = simulate_regulated_host(traces, envs, **kwargs)
    evented = simulate_host(traces, envs, engine="evented", **kwargs)
    assert primed.primed and not evented.primed
    assert all(
        _stats_equal(a, b) for a, b in zip(primed.per_flow, evented.per_flow)
    )
    assert primed.worst_case_delay == evented.worst_case_delay
    # The primed cell's event-count *analogue* (kernel passes + MUX
    # busy periods) never exceeds the evented count; for the vacation
    # family it is a small fraction (whole busy trains per pass --
    # token-bucket drains stay near one per packet, where the primed
    # win is heap/object overhead, not pass count).
    assert primed.events <= evented.events
    if mode == "sigma-rho-lambda":
        assert primed.events < evented.events / 3


def test_primed_sigma_rho_host_bit_identical_to_legacy(video_traces):
    """sigma-rho adversarial cells are in the bit-identical class: the
    zero-backlog release refinement only bites staggered vacation
    cells, so primed == evented == legacy exactly."""
    traces, envs = video_traces
    kwargs = dict(mode="sigma-rho", discipline="adversarial")
    primed = simulate_regulated_host(traces, envs, **kwargs)
    legacy = simulate_host(traces, envs, engine="legacy", **kwargs)
    assert all(
        _stats_equal(a, b) for a, b in zip(primed.per_flow, legacy.per_flow)
    )


def test_primed_host_respects_horizon_truncation(video_traces):
    traces, envs = video_traces
    kwargs = dict(
        mode="sigma-rho", discipline="adversarial", horizon=1.0, drain=False,
    )
    primed = simulate_regulated_host(traces, envs, **kwargs)
    evented = simulate_host(traces, envs, engine="evented", **kwargs)
    assert all(
        _stats_equal(a, b) for a, b in zip(primed.per_flow, evented.per_flow)
    )


# ----------------------------------------------------------------------
# Chain level: one closed-form host pass per hop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["sigma-rho", "sigma-rho-lambda"])
@pytest.mark.parametrize("hops", [1, 2, 3])
def test_primed_chain_equals_evented_chain(video_traces, mode, hops):
    traces, envs = video_traces
    kwargs = dict(
        mode=mode, discipline="adversarial",
        propagation=[0.001 * h for h in range(hops)], stagger_phase=0.37,
    )
    primed = simulate_regulated_chain(
        traces[0], [traces[1:]] * hops, envs, **kwargs
    )
    evented = simulate_chain(
        traces[0], [traces[1:]] * hops, envs, engine="evented", **kwargs
    )
    legacy = simulate_chain(
        traces[0], [traces[1:]] * hops, envs, engine="legacy", **kwargs
    )
    assert primed.primed and not evented.primed
    assert _stats_equal(primed.tagged_stats, evented.tagged_stats)
    # Adversarial-release refinement vs the legacy race.
    assert primed.tagged_stats.count == legacy.tagged_stats.count
    assert primed.worst_case_delay <= legacy.worst_case_delay + 1e-15
    assert primed.events < evented.events


def test_single_hop_primed_chain_runs_without_event_loop(video_traces):
    traces, envs = video_traces
    res = simulate_regulated_chain(
        traces[0], [traces[1:]], envs,
        mode="sigma-rho-lambda", discipline="adversarial",
    )
    assert res.primed
    # One kernel pass per vacation busy train + one per MUX busy
    # period: the event-count analogue stays below the total packet
    # population (a per-packet engine pays several events each).
    assert res.events < sum(len(tr) for tr in traces)
    assert res.cancelled_events == 0


def test_priority_chain_primed_and_bit_identical(video_traces):
    traces, envs = video_traces
    prod = simulate_regulated_chain(
        traces[0], [traces[1:]] * 2, envs,
        mode="sigma-rho", discipline="priority",
    )
    legacy = simulate_chain(
        traces[0], [traces[1:]] * 2, envs,
        mode="sigma-rho", discipline="priority", engine="legacy",
    )
    assert prod.primed
    assert _stats_equal(prod.tagged_stats, legacy.tagged_stats)


@st.composite
def _random_traces(draw):
    k = draw(st.integers(2, 3))
    n = draw(st.integers(3, 30))
    traces = []
    for _ in range(k):
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


@settings(max_examples=15, deadline=None)
@given(data=_random_traces(), mode=st.sampled_from(["sigma-rho", "sigma-rho-lambda"]))
def test_hypothesis_primed_host_and_chain_equal_evented(data, mode):
    traces, envs = data
    try:
        ev_host = simulate_host(
            traces, envs, mode=mode, discipline="adversarial",
            engine="evented",
        )
    except ValueError:
        # Packet exceeds the vacation working period: the primed path
        # must reject the same configurations.
        with pytest.raises(ValueError, match="working period"):
            simulate_regulated_host(
                traces, envs, mode=mode, discipline="adversarial",
            )
        return
    pr_host = simulate_regulated_host(
        traces, envs, mode=mode, discipline="adversarial"
    )
    assert all(
        _stats_equal(a, b) for a, b in zip(pr_host.per_flow, ev_host.per_flow)
    )
    pr_chain = simulate_regulated_chain(
        traces[0], [traces[1:]] * 2, envs, mode=mode,
        discipline="adversarial",
    )
    ev_chain = simulate_chain(
        traces[0], [traces[1:]] * 2, envs, mode=mode,
        discipline="adversarial", engine="evented",
    )
    assert _stats_equal(pr_chain.tagged_stats, ev_chain.tagged_stats)


# ----------------------------------------------------------------------
# Tree level: one closed-form host pass per member
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_tree():
    from repro.overlay.groups import MultiGroupNetwork
    from repro.topology.attach import attach_hosts
    from repro.topology.transit_stub import transit_stub_backbone

    g = transit_stub_backbone(3, 2, 3, rng=1)
    net = attach_hosts(g, 12, rng=2)
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


@pytest.mark.parametrize(
    "mode", ["sigma-rho", "sigma-rho-lambda", "none", "adaptive"]
)
def test_tree_busy_period_fanout_bit_identical(small_tree, mode):
    tree, latency, traces, envs = small_tree
    args = ([tree] * 3, 0, traces, envs, latency)
    kwargs = dict(mode=mode, discipline="adversarial")
    primed = simulate_multicast_tree(*args, **kwargs)
    evented = simulate_tree(*args, engine="evented", **kwargs)
    legacy = simulate_tree(*args, engine="legacy", **kwargs)
    assert primed.primed and not evented.primed
    assert primed.per_receiver_worst == evented.per_receiver_worst
    assert set(primed.per_receiver_worst) == set(legacy.per_receiver_worst)
    for host, worst in primed.per_receiver_worst.items():
        assert worst <= legacy.per_receiver_worst[host] + 1e-15
    # The whole tree must run on a fraction of the evented oracle's
    # events (which already avoids per-packet MUX finish events), let
    # alone the legacy chain's.
    assert primed.events < evented.events / 2
    assert primed.events < legacy.events / 4


def test_tree_fifo_primed_and_bit_identical(small_tree):
    tree, latency, traces, envs = small_tree
    args = ([tree] * 3, 0, traces, envs, latency)
    kwargs = dict(mode="sigma-rho", discipline="fifo")
    prod = simulate_multicast_tree(*args, **kwargs)
    legacy = simulate_tree(*args, engine="legacy", **kwargs)
    assert prod.primed
    assert prod.per_receiver_worst == legacy.per_receiver_worst


# ----------------------------------------------------------------------
# Tie order: cross and tagged arrivals at the same instant
# ----------------------------------------------------------------------
#: Unlimited buckets: sigma exceeds every flow's total traffic, so a
#: token bucket forwards each packet at its arrival instant and the
#: ties below reach the MUX in modes "none" and "sigma-rho" alike.
_TIE_ENVS = [ArrivalEnvelope(1.0, 0.3)] * 3


def _tie_bursts(rng, n_bursts=4, size=3):
    """Bursts of ``size`` same-instant packets, far enough apart that
    every hop's busy periods end before the next burst arrives."""
    times = np.repeat(np.arange(n_bursts) * 0.25, size)
    return PacketTrace(times, rng.uniform(0.003, 0.02, times.size))


def _evented_deliveries(arrivals, sizes, cross, *, tagged_first, discipline):
    """Tagged-flow delivery instants of one evented host in mode "none",
    with the tagged flow injected before or after the cross flows (and,
    under priority, served last)."""
    sim = Simulator()
    out = []

    class _Tap:
        def receive(self, pkt):
            out.append(sim.now)

    entries, mux = build_host(
        sim, _TIE_ENVS[: len(cross) + 1], {0: _Tap()}, mode="none",
        discipline=discipline, engine="evented",
    )
    _serve_tagged_last(mux, discipline, len(cross) + 1)
    flows = [(0, PacketTrace(arrivals, sizes))] + list(enumerate(cross, 1))
    if not tagged_first:
        flows = flows[1:] + flows[:1]
    for f, trace in flows:
        inject_trace(sim, trace, f, entries[f])
    sim.run()
    return np.asarray(out)


def _tie_chain(seed: int, hops: int, discipline: str):
    """A chain whose every hop sees exact ties: hop 0's first cross flow
    copies the tagged emissions, and hop h+1's copies the tagged
    deliveries of hop h (propagation is zero)."""
    rng = np.random.default_rng(seed)
    tagged = _tie_bursts(rng)
    background = PacketTrace(
        np.sort(rng.uniform(0.0, 1.0, 8)), rng.uniform(0.003, 0.02, 8)
    )
    cross = []
    arrivals = tagged.times
    for h in range(hops):
        tie = PacketTrace(arrivals, rng.uniform(0.003, 0.02, arrivals.size))
        cross.append([tie, background])
        arrivals = _evented_deliveries(
            arrivals, tagged.sizes, cross[h], tagged_first=(h == 0),
            discipline=discipline,
        )
    return tagged, cross


#: (discipline, mode) of the tie-order tests; the adversarial cases keep
#: their original ids.
_TIE_CASES = [
    pytest.param("adversarial", "none", id="none"),
    pytest.param("adversarial", "sigma-rho", id="sigma-rho"),
    pytest.param("fifo", "none", id="fifo-none"),
    pytest.param("fifo", "sigma-rho", id="fifo-sigma-rho"),
    pytest.param("priority", "none", id="priority-none"),
    pytest.param("priority", "sigma-rho", id="priority-sigma-rho"),
]


@pytest.mark.parametrize("discipline, mode", _TIE_CASES)
def test_primed_chain_tie_order_matches_evented(discipline, mode):
    """Hop 0 serves the tagged flow first (it is injected first); later
    hops serve cross departures first (the tagged packets are relayed
    after every injected cross packet).  ``horizon`` keeps the cross
    traffic that arrives after the tagged flow's last emission."""
    hops = 3
    kwargs = dict(
        mode=mode, discipline=discipline, propagation=[0.0] * hops,
        horizon=10.0,
    )
    for seed in range(8):
        tagged, cross = _tie_chain(seed, hops, discipline)
        primed = simulate_regulated_chain(
            tagged, cross, _TIE_ENVS, **kwargs
        )
        evented = simulate_chain(
            tagged, cross, _TIE_ENVS, engine="evented", **kwargs
        )
        assert primed.primed and not evented.primed
        assert _stats_equal(primed.tagged_stats, evented.tagged_stats), seed


@pytest.mark.parametrize("discipline, mode", _TIE_CASES)
def test_primed_tree_tie_order_matches_evented(small_tree, discipline, mode):
    """Every member, the root included, serves cross departures first.
    One cross flow copies the tagged emissions (ties at the root); with
    zero latency the other copies the root's deliveries (ties at the
    root's children)."""
    tree, latency, _, _ = small_tree
    zero = np.zeros_like(latency)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        tagged = _tie_bursts(rng)
        root_tie = PacketTrace(
            tagged.times, rng.uniform(0.003, 0.02, len(tagged))
        )
        root_out = _evented_deliveries(
            tagged.times, tagged.sizes, [root_tie], tagged_first=False,
            discipline=discipline,
        )
        child_tie = PacketTrace(
            root_out, rng.uniform(0.003, 0.02, root_out.size)
        )
        args = ([tree] * 3, 0, [tagged, root_tie, child_tie], _TIE_ENVS, zero)
        kwargs = dict(mode=mode, discipline=discipline)
        primed = simulate_multicast_tree(*args, **kwargs)
        evented = simulate_tree(*args, engine="evented", **kwargs)
        assert primed.primed and not evented.primed
        assert primed.per_receiver_worst == evented.per_receiver_worst, seed


# ----------------------------------------------------------------------
# FIFO and priority: each packet delivered at its own completion
# ----------------------------------------------------------------------
def _oracle_host_delays(traces, envs, mode, engine, *, discipline="fifo"):
    """Per-packet delays of every flow on a reference host."""
    sim = Simulator()
    recorder = DelayRecorder(sim)
    entries, _ = build_host(
        sim, envs, recorder, engine=engine, mode=mode, discipline=discipline,
    )
    for f, (trace, entry) in enumerate(zip(traces, entries)):
        inject_trace(sim, trace, f, entry)
    sim.run()
    return [recorder.delays(f) for f in range(len(traces))]


def _primed_host_delays(traces, envs, mode, discipline="fifo"):
    return primed_host(
        [(tr.times, tr.sizes) for tr in traces], envs, mode,
        discipline=discipline,
    ).per_flow_delays


def test_fifo_wakeup_tie_serves_the_injected_packet_first():
    """Flow 0's second packet leaves its bucket on a wakeup at t = 2,
    the instant flow 1's packet is injected.  The injected arrival's
    event runs first (it was scheduled before the run), so flow 1 is
    served first and flow 0's packet waits 2.5 s; serving equal
    instants in flow order would measure 2.25 s."""
    envs = [ArrivalEnvelope(0.25, 0.125)] * 2
    traces = [
        PacketTrace(np.array([0.0, 0.0]), np.array([0.25, 0.25])),
        PacketTrace(np.array([2.0]), np.array([0.25])),
    ]
    for engine in ("evented", "legacy"):
        oracle = _oracle_host_delays(traces, envs, "sigma-rho", engine)
        assert float(oracle[0].max()) == 2.5
    delays = _primed_host_delays(traces, envs, "sigma-rho")
    assert float(delays[0].max()) == 2.5
    assert float(delays[1].max()) == 0.25
    res = simulate_regulated_host(
        traces, envs, mode="sigma-rho", discipline="fifo"
    )
    assert res.primed and res.worst_case_delay == 2.5


def _assert_priority_host_worst(traces, envs, expected):
    """Per-flow worst delays of a sigma-rho priority host, equal on
    every side."""
    for engine in ("evented", "legacy"):
        oracle = _oracle_host_delays(
            traces, envs, "sigma-rho", engine, discipline="priority"
        )
        assert [float(d.max()) for d in oracle] == expected, engine
    res = simulate_regulated_host(
        traces, envs, mode="sigma-rho", discipline="priority"
    )
    assert res.primed
    assert [s.worst for s in res.per_flow] == expected


def test_priority_wakeup_scheduled_before_completion_joins_first():
    """Flow 0's second packet leaves its bucket on a wakeup at t = 2,
    scheduled at t = 1.125; flow 1's first packet completes at t = 2,
    its service begun at t = 1.75.  The wakeup runs first, so flow 0's
    packet is queued when the completion picks the next packet and,
    ranking first, goes ahead of flow 1's second packet.  Ordering
    every run-time release after the completion measures
    (1.25, 0.375)."""
    envs = [ArrivalEnvelope(0.25, 0.125), ArrivalEnvelope(0.5, 0.25)]
    traces = [
        PacketTrace(np.array([1.0, 1.125]), np.array([0.125, 0.25])),
        PacketTrace(np.array([1.75, 1.75]), np.array([0.25, 0.125])),
    ]
    _assert_priority_host_worst(traces, envs, [1.125, 0.625])


def test_priority_completion_scheduled_before_wakeup_goes_first():
    """Flow 0's third packet leaves its bucket on a wakeup at t = 1.125,
    scheduled at t = 1; flow 0's second packet completes at t = 1.125,
    its service begun at t = 0.875.  The completion runs first and
    starts flow 1's queued packet, so flow 0's third packet waits
    behind it.  Letting every release at the completion instant join
    first measures (0.25, 0.625)."""
    envs = [ArrivalEnvelope(0.5, 0.125), ArrivalEnvelope(0.25, 0.125)]
    traces = [
        PacketTrace(
            np.array([0.125, 0.875, 1.0]), np.array([0.25, 0.25, 0.125])
        ),
        PacketTrace(np.array([0.875]), np.array([0.25])),
    ]
    _assert_priority_host_worst(traces, envs, [0.5, 0.5])


#: Dyadic inputs: every sum is exact, so equal instants are common.
_DYADIC_SIZES = st.sampled_from([0.125, 0.25])


@st.composite
def _dyadic_trace(draw):
    n = draw(st.integers(1, 8))
    slots = sorted(draw(st.lists(st.integers(0, 24), min_size=n, max_size=n)))
    sizes = draw(st.lists(_DYADIC_SIZES, min_size=n, max_size=n))
    return PacketTrace(np.asarray(slots) / 8.0, np.asarray(sizes))


@st.composite
def _dyadic_flows(draw):
    k = draw(st.integers(2, 3))
    traces = [draw(_dyadic_trace()) for _ in range(k)]
    envs = [
        ArrivalEnvelope(
            draw(st.sampled_from([0.25, 0.5])),
            draw(st.sampled_from([0.125, 0.25])),
        )
        for _ in range(k)
    ]
    mode = draw(st.sampled_from(["sigma-rho", "none"]))
    return traces, envs, mode


def _check_host_per_packet(flows, discipline):
    traces, envs, mode = flows
    primed = _primed_host_delays(traces, envs, mode, discipline)
    for engine in ("evented", "legacy"):
        oracle = _oracle_host_delays(
            traces, envs, mode, engine, discipline=discipline
        )
        for p, o in zip(primed, oracle):
            assert np.array_equal(p, o), engine


@settings(max_examples=80, deadline=None)
@given(flows=_dyadic_flows())
def test_hypothesis_fifo_host_per_packet_equals_oracles(flows):
    _check_host_per_packet(flows, "fifo")


@settings(max_examples=80, deadline=None)
@given(flows=_dyadic_flows())
def test_hypothesis_priority_host_per_packet_equals_oracles(flows):
    _check_host_per_packet(flows, "priority")


@settings(max_examples=80, deadline=None)
@given(flows=_dyadic_flows())
def test_hypothesis_adversarial_delay_dominates_per_packet(flows):
    """Every work-conserving discipline delivers a packet within its own
    busy period, whose end is the adversarial delivery instant."""
    traces, envs, mode = flows
    adversarial = _primed_host_delays(traces, envs, mode, "adversarial")
    for discipline in ("fifo", "priority"):
        delays = _primed_host_delays(traces, envs, mode, discipline)
        for adv, d in zip(adversarial, delays):
            assert np.all(adv >= d), discipline


def _check_chain(flows, data, propagation, discipline):
    traces, envs, mode = flows
    hops = data.draw(st.integers(1, 3))
    cross = [
        [data.draw(_dyadic_trace()) for _ in traces[1:]] for _ in range(hops)
    ]
    kwargs = dict(
        mode=mode, discipline=discipline, propagation=[propagation] * hops,
        horizon=4.0,
    )
    primed = simulate_regulated_chain(traces[0], cross, envs, **kwargs)
    assert primed.primed
    for engine in ("evented", "legacy"):
        oracle = simulate_chain(
            traces[0], cross, envs, engine=engine, **kwargs
        )
        assert _stats_equal(primed.tagged_stats, oracle.tagged_stats), engine


@settings(max_examples=60, deadline=None)
@given(
    flows=_dyadic_flows(),
    data=st.data(),
    propagation=st.sampled_from([0.0, 0.125]),
)
def test_hypothesis_fifo_chain_equals_oracles(flows, data, propagation):
    _check_chain(flows, data, propagation, "fifo")


@settings(max_examples=60, deadline=None)
@given(
    flows=_dyadic_flows(),
    data=st.data(),
    propagation=st.sampled_from([0.0, 0.125]),
)
def test_hypothesis_priority_chain_equals_oracles(flows, data, propagation):
    _check_chain(flows, data, propagation, "priority")


def _check_tree(small_tree, flows, edge, discipline):
    tree, latency, _, _ = small_tree
    traces, envs, mode = flows
    args = (
        [tree] * len(traces), 0, traces, envs, np.full_like(latency, edge)
    )
    kwargs = dict(mode=mode, discipline=discipline)
    primed = simulate_multicast_tree(*args, **kwargs)
    assert primed.primed
    for engine in ("evented", "legacy"):
        oracle = simulate_tree(*args, engine=engine, **kwargs)
        assert primed.per_receiver_worst == oracle.per_receiver_worst, engine


@settings(max_examples=40, deadline=None)
@given(flows=_dyadic_flows(), edge=st.sampled_from([0.0, 0.125]))
def test_hypothesis_fifo_tree_equals_oracles(small_tree, flows, edge):
    _check_tree(small_tree, flows, edge, "fifo")


@settings(max_examples=40, deadline=None)
@given(flows=_dyadic_flows(), edge=st.sampled_from([0.0, 0.125]))
def test_hypothesis_priority_tree_equals_oracles(small_tree, flows, edge):
    _check_tree(small_tree, flows, edge, "priority")


def _check_host_horizon(video_traces, discipline):
    traces, envs = video_traces
    for drain in (True, False):
        kwargs = dict(
            mode="sigma-rho", discipline=discipline, horizon=1.0,
            drain=drain,
        )
        primed = simulate_regulated_host(traces, envs, **kwargs)
        assert primed.primed
        for engine in ("evented", "legacy"):
            oracle = simulate_host(traces, envs, engine=engine, **kwargs)
            assert all(
                _stats_equal(a, b)
                for a, b in zip(primed.per_flow, oracle.per_flow)
            ), (drain, engine)


def test_fifo_host_respects_horizon_truncation(video_traces):
    _check_host_horizon(video_traces, "fifo")


def test_priority_host_respects_horizon_truncation(video_traces):
    _check_host_horizon(video_traces, "priority")


def _check_chain_horizon(video_traces, discipline):
    """An explicit horizon keeps (or cuts) cross traffic past the tagged
    flow's last emission on every side alike."""
    traces, envs = video_traces
    for horizon in (1.0, 5.0):
        kwargs = dict(
            mode="sigma-rho", discipline=discipline, horizon=horizon,
            propagation=[0.001, 0.0], stagger_phase=0.37,
        )
        primed = simulate_regulated_chain(
            traces[0], [traces[1:]] * 2, envs, **kwargs
        )
        for engine in ("evented", "legacy"):
            oracle = simulate_chain(
                traces[0], [traces[1:]] * 2, envs, engine=engine, **kwargs
            )
            assert _stats_equal(primed.tagged_stats, oracle.tagged_stats)


def test_fifo_chain_explicit_horizon(video_traces):
    _check_chain_horizon(video_traces, "fifo")


def test_priority_chain_explicit_horizon(video_traces):
    _check_chain_horizon(video_traces, "priority")


def _check_tree_host_capacity(small_tree, discipline):
    tree, latency, traces, envs = small_tree
    members = sorted(tree.members())
    capacity = {members[0]: 1.25, members[len(members) // 2]: 0.9}
    args = ([tree] * 3, 0, traces, envs, latency)
    kwargs = dict(
        mode="sigma-rho", discipline=discipline, host_capacity=capacity
    )
    primed = simulate_multicast_tree(*args, **kwargs)
    assert primed.primed
    for engine in ("evented", "legacy"):
        oracle = simulate_tree(*args, engine=engine, **kwargs)
        assert primed.per_receiver_worst == oracle.per_receiver_worst
    plain = simulate_multicast_tree(
        *args, mode="sigma-rho", discipline=discipline
    )
    assert plain.per_receiver_worst != primed.per_receiver_worst


def test_fifo_tree_host_capacity(small_tree):
    _check_tree_host_capacity(small_tree, "fifo")


def test_priority_tree_host_capacity(small_tree):
    _check_tree_host_capacity(small_tree, "priority")


def test_fifo_chain_wakeup_tied_with_relayed_arrival():
    """A chain where a hop's tagged bucket has a wakeup and a relayed
    tagged arrival due at one instant, with a cross flow releasing then
    too.  The backlog leaves in whichever of the two events runs first,
    here the arrival; keying it by the wakeup would serve the cross
    packet ahead of it.  Found by a dyadic search; all sides agree."""
    def trace(slots, sizes):
        """A trace on the 1/8 s grid, sizes in eighths."""
        return PacketTrace(np.asarray(slots) / 8.0, np.asarray(sizes) / 8.0)

    tagged = trace(
        [0, 0, 0, 1, 3, 3, 4, 5, 6, 7, 7], [1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 2]
    )
    cross = [
        [trace([2, 5, 17, 26, 27, 31], [2, 1, 1, 2, 1, 1]),
         trace([4, 14, 20, 21, 25, 28], [2, 2, 2, 2, 1, 2])],
        [trace([5], [2]),
         trace([5, 8, 13, 15, 17, 19, 23, 28, 30, 31],
               [2, 2, 1, 1, 2, 2, 2, 2, 1, 2])],
        [trace([1, 21, 25, 28], [2, 1, 1, 2]),
         trace([14, 16, 17, 19, 21, 27, 28], [2, 1, 1, 2, 1, 1, 1])],
    ]
    envs = [
        ArrivalEnvelope(0.5, 0.25),
        ArrivalEnvelope(0.25, 0.125),
        ArrivalEnvelope(0.25, 0.25),
    ]
    kwargs = dict(
        mode="sigma-rho", discipline="fifo", propagation=[0.0, 0.5, 0.5],
        horizon=6.0,
    )
    primed = simulate_regulated_chain(tagged, cross, envs, **kwargs)
    assert primed.primed
    for engine in ("evented", "legacy"):
        oracle = simulate_chain(tagged, cross, envs, engine=engine, **kwargs)
        assert _stats_equal(primed.tagged_stats, oracle.tagged_stats), engine

"""Multi-hop chain simulations (DES and fluid)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calculus.envelope import ArrivalEnvelope
from repro.core.multicast_bounds import (
    remark2_multicast_wdb_homogeneous,
    theorem8_multicast_wdb_homogeneous,
)
from repro.simulation.chain import simulate_regulated_chain
from repro.simulation.flow import PacketTrace, VBRVideoSource
from repro.simulation.fluid import (
    _adversarial_worst,
    _default_drain_margin,
    _regulator_stage,
    _shift_cum,
    _worst_delay,
    adversarial_chain_delays,
    chain_worst_case,
    fluid_mux,
    fluid_next_empty,
    simulate_fluid_chain,
)


def chain_scenario(u, k=3, horizon=4.0, seed=21):
    rho = u / k
    src = VBRVideoSource(rho, scene_strength=0.15, scene_persistence=0.9)
    trace = src.generate(horizon, rng=seed).fragment(0.002)
    sigma = max(trace.empirical_sigma(rho), 1e-6)
    envs = [ArrivalEnvelope(sigma, rho)] * k
    return trace, envs, sigma, rho


class TestFluidChain:
    def test_delay_grows_with_hops(self):
        trace, envs, *_ = chain_scenario(0.8)
        results = []
        for hops in (1, 3, 5):
            res = simulate_fluid_chain(
                trace, [[trace, trace]] * hops, envs,
                mode="sigma-rho", discipline="adversarial", dt=2e-3,
            )
            results.append(res.worst_case_delay)
        assert results[0] < results[1] < results[2]

    def test_theorem8_accounting(self):
        """Sum of per-hop worsts stays below (H-1) x per-hop bound."""
        trace, envs, sigma, rho = chain_scenario(0.8)
        hops = 4
        res = simulate_fluid_chain(
            trace, [[trace, trace]] * hops, envs,
            mode="sigma-rho-lambda", discipline="adversarial", dt=2e-3,
        )
        bound = theorem8_multicast_wdb_homogeneous(hops + 1, 3, sigma, rho)
        assert res.worst_case_delay <= bound * 1.01 + 5 * res.dt * hops

    def test_remark2_accounting(self):
        trace, envs, sigma, rho = chain_scenario(0.8)
        hops = 4
        res = simulate_fluid_chain(
            trace, [[trace, trace]] * hops, envs,
            mode="sigma-rho", discipline="adversarial", dt=2e-3,
        )
        bound = remark2_multicast_wdb_homogeneous(hops + 1, 3, sigma, rho)
        assert res.worst_case_delay <= bound * 1.01 + 5 * res.dt * hops

    def test_propagation_added(self):
        # Single flow, no cross traffic: shifting the stream cannot
        # change queueing, so propagation adds exactly.
        trace, envs, *_ = chain_scenario(0.5)
        env = [envs[0]]
        base = simulate_fluid_chain(
            trace, [[], []], env, mode="sigma-rho", dt=2e-3,
        )
        with_prop = simulate_fluid_chain(
            trace, [[], []], env,
            mode="sigma-rho", dt=2e-3, propagation=[0.05, 0.05],
        )
        assert with_prop.worst_case_delay == pytest.approx(
            base.worst_case_delay + 0.1, abs=0.02
        )
        assert with_prop.propagation_total == pytest.approx(0.1)

    def test_propagation_total_recorded(self):
        trace, envs, *_ = chain_scenario(0.5)
        res = simulate_fluid_chain(
            trace, [[trace, trace]] * 2, envs,
            mode="sigma-rho", dt=2e-3, propagation=[0.03, 0.07],
        )
        assert res.propagation_total == pytest.approx(0.1)

    def test_fifo_e2e_below_theorem_accounting(self):
        trace, envs, *_ = chain_scenario(0.8)
        res = simulate_fluid_chain(
            trace, [[trace, trace]] * 3, envs,
            mode="sigma-rho", discipline="adversarial", dt=2e-3,
        )
        assert res.fifo_end_to_end <= res.worst_case_delay + 1e-6

    def test_per_hop_capacities(self):
        trace, envs, *_ = chain_scenario(0.5)
        res = simulate_fluid_chain(
            trace, [[trace, trace]] * 2, envs,
            mode="none", dt=2e-3, capacity=[2.0, 1.0],
        )
        assert res.worst_case_delay >= 0
        with pytest.raises(ValueError):
            simulate_fluid_chain(
                trace, [[trace, trace]] * 2, envs,
                mode="none", dt=2e-3, capacity=[2.0],
            )

    def test_input_validation(self):
        trace, envs, *_ = chain_scenario(0.5)
        with pytest.raises(ValueError):
            simulate_fluid_chain(trace, [], envs)
        with pytest.raises(ValueError):
            simulate_fluid_chain(trace, [[trace]], envs)  # needs K-1 cross


def _reference_chain(
    tagged, cross_per_hop, envelopes, *, mode, capacity, discipline,
    propagation, dt, stagger_phase=0.0,
):
    """The per-hop loop :func:`simulate_fluid_chain` must reproduce bit
    for bit: every hop re-bins every cross trace, shapes all K flows,
    measures with the stock MUX kernels and forwards the tagged flow's
    share of a full FIFO MUX pass.  Returns ``(per_hop_delay,
    worst_case_delay, fifo_end_to_end)``."""
    hops = len(cross_per_hop)
    caps = (
        [float(capacity)] * hops if np.ndim(capacity) == 0
        else [float(c) for c in capacity]
    )
    horizon = float(tagged.times[-1]) + dt
    margin = _default_drain_margin(envelopes, min(caps)) * hops
    total = horizon + margin + float(np.sum(propagation))
    t_grid = dt * np.arange(int(np.ceil(total / dt)) + 1)

    def cum(tr):
        binned = tr.restrict(horizon).binned_arrivals(dt, total)
        return np.concatenate(([0.0], np.cumsum(binned)))

    source = cum(tagged)
    current = _shift_cum(source, t_grid, propagation[0])
    per_hop = []
    for h, cross in enumerate(cross_per_hop):
        arrivals = [current] + [cum(tr) for tr in cross]
        _, shaped = _regulator_stage(
            arrivals, t_grid, envelopes, mode, caps[h],
            (stagger_phase + h * 0.37) % 1.0,
        )
        if discipline == "adversarial":
            ne = fluid_next_empty(t_grid, np.sum(shaped, axis=0), caps[h])
            per_hop.append(_adversarial_worst(t_grid, arrivals[0], shaped[0], ne))
        else:
            dep = fluid_mux(
                shaped, t_grid, caps[h], discipline=discipline, tagged=0
            )[0]
            per_hop.append(_worst_delay(t_grid, arrivals[0], dep))
        current = fluid_mux(shaped, t_grid, caps[h], discipline="fifo")[0]
        if h + 1 < hops:
            current = _shift_cum(current, t_grid, propagation[h + 1])
    worst = float(sum(per_hop)) + float(np.sum(propagation))
    return tuple(per_hop), worst, _worst_delay(t_grid, source, current)


def _chain_layouts(hops=3):
    """A tagged trace, per-flow envelopes that differ by position, and
    four cross layouts: the same list at every hop (what the runner and
    the Figure-6 experiment pass), distinct traces at every hop, that list
    rotated per hop (same traces, other envelopes) and the tagged trace
    object itself as cross traffic."""
    k, u = 3, 0.8
    rho = u / k
    traces = [
        VBRVideoSource(rho, scene_strength=0.15, scene_persistence=0.9)
        .generate(1.0, rng=seed)
        .fragment(0.002)
        for seed in range(40, 40 + 1 + 2 * hops)
    ]
    # Bursts below the traces' own, so every token bucket reshapes.
    sigma = min(tr.empirical_sigma(rho) for tr in traces)
    envs = [ArrivalEnvelope(sigma * (0.3 + 0.3 * f), rho) for f in range(k)]
    tagged, pool = traces[0], traces[1:]
    shared = pool[:2]
    layouts = {
        "same-list": [shared] * hops,
        "distinct-per-hop": [pool[2 * h: 2 * h + 2] for h in range(hops)],
        "rotated": [shared[h % 2:] + shared[: h % 2] for h in range(hops)],
        "tagged-as-cross": [[tagged, tagged]] * hops,
    }
    return tagged, envs, layouts


class TestFluidChainReference:
    """The chain kernel computes only what its verdict reads (tagged-only
    forwarding, cross traffic binned and σ-ρ-shaped once per call); its
    results must equal the full per-hop reference exactly.  The
    distinct-per-hop and rotated layouts fail any cache keyed on less
    than (trace object, envelope, hop capacity)."""

    @pytest.mark.parametrize(
        "mode", ["none", "sigma-rho", "sigma-rho-lambda", "adaptive"]
    )
    @pytest.mark.parametrize("discipline", ["adversarial", "fifo", "priority"])
    def test_matches_per_hop_reference(self, discipline, mode):
        tagged, envs, layouts = _chain_layouts()
        propagation = [0.01, 0.02, 0.005]
        for capacity in (1.0, [2.0, 1.0, 1.5]):
            for name, cross in layouts.items():
                kw = dict(
                    mode=mode, capacity=capacity, discipline=discipline,
                    propagation=propagation, dt=2e-3, stagger_phase=0.3,
                )
                res = simulate_fluid_chain(tagged, cross, envs, **kw)
                per_hop, worst, fifo = _reference_chain(
                    tagged, cross, envs, **kw
                )
                label = (name, capacity)
                assert res.per_hop_delay == per_hop, label
                assert res.worst_case_delay == worst, label
                assert res.fifo_end_to_end == fifo, label

    def test_layouts_measure_differently(self):
        """The layouts really differ, so a cache that ignored the trace
        object or the envelope would change a measured value."""
        tagged, envs, layouts = _chain_layouts()
        results = [
            simulate_fluid_chain(
                tagged, cross, envs, mode="sigma-rho",
                discipline="adversarial", dt=2e-3,
            )
            for cross in layouts.values()
        ]
        seen = {(r.per_hop_delay, r.fifo_end_to_end) for r in results}
        assert len(seen) == len(layouts)

    def test_unknown_discipline_rejected(self):
        tagged, envs, layouts = _chain_layouts()
        with pytest.raises(ValueError, match="unknown discipline"):
            simulate_fluid_chain(
                tagged, layouts["same-list"], envs, discipline="lifo"
            )


def _trace(times, sizes):
    return PacketTrace(
        np.asarray(times, dtype=np.float64), np.asarray(sizes, dtype=np.float64)
    )


def _cut_vs_full(tagged, cross_per_hop, envs, **kw):
    """Run :func:`adversarial_chain_delays` and the full-grid reference
    on one chain, assert they agree exactly, and return the reference
    result and the cut kernel's stats."""
    full = simulate_fluid_chain(
        tagged, cross_per_hop, envs, discipline="adversarial", **kw
    )
    stats: dict = {}
    per_hop = adversarial_chain_delays(
        tagged, cross_per_hop, envs, stats=stats, **kw
    )
    propagation = kw.get("propagation") or [0.0] * len(cross_per_hop)
    assert per_hop == full.per_hop_delay
    assert chain_worst_case(per_hop, propagation) == full.worst_case_delay
    return full, stats


def _cut_schedule(horizon, propagation, dt, n_bins):
    """The grid prefixes the cut kernel tries: ``m0`` doubled, capped
    at the full grid."""
    m = min(2 * int(np.ceil((horizon + sum(propagation)) / dt)) + 64, n_bins)
    out = [m]
    while m < n_bins:
        m = min(2 * m, n_bins)
        out.append(m)
    return out


@st.composite
def _chains(draw):
    """A chain as the runner builds one (the same cross list at every
    hop), with random traces and envelopes whose bursts are the traces'
    own or far below them (so token buckets hold data back)."""
    k = draw(st.integers(1, 6))
    hops = draw(st.integers(1, 6))
    rho = draw(st.floats(0.05, 0.99)) / k
    burst = draw(st.sampled_from([1.0, 0.3, 0.02]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    traces = []
    for _ in range(k):
        n = int(rng.integers(1, 30))
        span = rng.uniform(0.05, 0.8)
        times = np.sort(rng.uniform(0.0, span, n))
        traces.append(_trace(times, rng.exponential(rho * span / n, n)))
    envs = [
        ArrivalEnvelope(max(tr.empirical_sigma(rho) * burst, 1e-9), rho)
        for tr in traces
    ]
    kw = dict(
        mode=draw(st.sampled_from(["none", "sigma-rho", "sigma-rho-lambda"])),
        stagger_phase=draw(st.floats(0.0, 1.0, exclude_max=True)),
        propagation=draw(
            st.lists(st.floats(0.0, 0.05), min_size=hops, max_size=hops)
        ),
        dt=draw(st.sampled_from([1e-3, 2e-3])),
    )
    return traces[0], [traces[1:]] * hops, envs, kw


class TestAdversarialChainCut:
    """:func:`adversarial_chain_delays` simulates only the grid prefix up
    to where every hop is quiet; its per-hop and worst-case delays must
    equal the full-grid :func:`simulate_fluid_chain` bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(_chains())
    def test_matches_full_grid(self, chain):
        tagged, cross, envs, kw = chain
        _cut_vs_full(tagged, cross, envs, **kw)

    def test_overloaded_chain_runs_the_full_grid(self):
        """Six CBR flows at twice the capacity each: the MUX never
        empties, every cut is rejected, and the last attempt is the
        full grid, where both sides measure an infinite delay."""
        dt = 2e-3
        times = np.arange(0.0, 0.3, 1e-3)
        traces = [_trace(times, np.full(times.size, 2e-3)) for _ in range(6)]
        envs = [ArrivalEnvelope(2e-3, 2.0)] * 6
        full, stats = _cut_vs_full(
            traces[0], [traces[1:]] * 2, envs, mode="sigma-rho", dt=dt
        )
        assert full.per_hop_delay[0] == float("inf")
        schedule = _cut_schedule(
            float(times[-1]) + dt, [0.0, 0.0], dt, stats["grid_bins"] - 1
        )
        assert len(schedule) >= 3
        assert stats["cut_attempts"] == len(schedule)
        assert stats["sim_bins"] == sum(m + 1 for m in schedule)

    def test_near_critical_chain_needs_three_doublings(self):
        """Utilisation 0.99 with every flow's burst at t = 0: the MUX
        drains long after the first cuts, but long before the end of a
        grid sized by near-critical drain margins."""
        rho = 0.33
        traces = [
            _trace([0.0, 0.05, 0.1], [0.6, 0.01, 0.01]) for _ in range(3)
        ]
        envs = [
            ArrivalEnvelope(tr.empirical_sigma(rho), rho) for tr in traces
        ]
        _, stats = _cut_vs_full(
            traces[0], [traces[1:]] * 2, envs, mode="sigma-rho", dt=2e-3,
            propagation=[0.01, 0.02],
        )
        assert stats["cut_attempts"] >= 4
        assert stats["sim_bins"] < stats["grid_bins"] / 4

    @pytest.mark.parametrize("mode", ["none", "sigma-rho", "sigma-rho-lambda"])
    def test_single_flow(self, mode):
        trace, envs, *_ = chain_scenario(0.7, k=1, horizon=1.0)
        _cut_vs_full(
            trace, [[]] * 3, envs, mode=mode, dt=2e-3,
            propagation=[0.0, 0.03, 0.01],
        )

    def test_empty_tagged_trace(self):
        trace, envs, *_ = chain_scenario(0.6, horizon=1.0)
        empty = _trace([], [])
        full, _ = _cut_vs_full(
            empty, [[trace, trace]] * 2, envs, mode="sigma-rho", dt=2e-3
        )
        assert full.per_hop_delay == (0.0, 0.0)

    def test_tagged_regulator_holding_past_the_grid(self):
        """A unit packet behind a token bucket of burst 0.01 and rate
        0.2 takes about 5 s to leave, past the end of the full grid: no
        cut is quiet, and the full grid's finite delay (its last point
        less the arrival) is the one returned."""
        dt = 1e-3
        full, stats = _cut_vs_full(
            _trace([0.0], [1.0]), [[]], [ArrivalEnvelope(0.01, 0.2)],
            mode="sigma-rho", dt=dt,
        )
        n_bins = stats["grid_bins"] - 1
        assert full.per_hop_delay == (n_bins * dt - dt,)
        schedule = _cut_schedule(dt, [0.0], dt, n_bins)
        assert stats["cut_attempts"] == len(schedule) >= 3

    def test_tagged_input_still_arriving_at_the_cut(self):
        """Hop 0 drains a cross burst just before the second cut and
        only then forwards the tagged flow's last packet, which reaches
        hop 1 (half the capacity, idle by then) after the cut.  Hop 1
        is empty there, but its tagged input is short of the source
        total, so the cut is rejected: that packet sets hop 1's delay."""
        dt, prop = 1e-3, 0.05
        tagged = _trace([0.0, 0.6], [1e-3, 1e-2])
        second_cut = 2 * (2 * int(np.ceil((0.6 + dt + prop) / dt)) + 64)
        burst = second_cut * dt - prop / 2 - 0.5
        cross = [[_trace([0.5], [burst])], [_trace([0.0], [1e-3])]]
        envs = [ArrivalEnvelope(0.01, 0.2), ArrivalEnvelope(burst, 0.3)]
        full, stats = _cut_vs_full(
            tagged, cross, envs, mode="none", dt=dt,
            propagation=[0.0, prop], capacity=[1.0, 0.5],
        )
        assert stats["cut_attempts"] == 3
        # Hop 1 queues the late 0.01 packet at half the capacity.
        assert full.per_hop_delay[1] > 0.015


class TestDesChain:
    def test_runs_and_measures(self):
        trace, envs, *_ = chain_scenario(0.7, horizon=2.0)
        res = simulate_regulated_chain(
            trace, [[trace, trace]] * 2, envs,
            mode="sigma-rho", discipline="adversarial",
        )
        assert res.hops == 2
        assert res.worst_case_delay > 0
        assert res.tagged_stats.count == len(trace)

    def test_delay_grows_with_hops(self):
        trace, envs, *_ = chain_scenario(0.7, horizon=2.0)
        r1 = simulate_regulated_chain(
            trace, [[trace, trace]], envs, mode="sigma-rho",
        )
        r3 = simulate_regulated_chain(
            trace, [[trace, trace]] * 3, envs, mode="sigma-rho",
        )
        assert r3.worst_case_delay > r1.worst_case_delay

    def test_vacation_mode_runs_multi_hop(self):
        trace, envs, *_ = chain_scenario(0.85, horizon=2.0)
        res = simulate_regulated_chain(
            trace, [[trace, trace]] * 2, envs,
            mode="sigma-rho-lambda", discipline="fifo",
        )
        assert res.tagged_stats.count == len(trace)

    def test_propagation_validation(self):
        trace, envs, *_ = chain_scenario(0.5, horizon=1.0)
        with pytest.raises(ValueError):
            simulate_regulated_chain(
                trace, [[trace, trace]] * 2, envs, propagation=[0.0],
            )
        # Every entry is checked on entry: by the closed-form
        # (adversarial) and the evented (FIFO) DES pipelines alike, and
        # by the fluid chain before it sizes its grid.
        nan, inf = float("nan"), float("inf")
        for bad in ([-0.01, 0.0], [0.0, -0.01], [nan, 0.0], [0.0, inf]):
            for discipline in ("adversarial", "fifo"):
                with pytest.raises(ValueError, match="propagation"):
                    simulate_regulated_chain(
                        trace, [[trace, trace]] * 2, envs, propagation=bad,
                        mode="sigma-rho", discipline=discipline,
                    )
            with pytest.raises(ValueError, match="propagation"):
                simulate_fluid_chain(
                    trace, [[trace, trace]] * 2, envs, propagation=bad,
                    mode="sigma-rho", discipline="adversarial",
                )

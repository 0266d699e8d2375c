"""Multi-hop chain simulations (DES and fluid)."""

import numpy as np
import pytest

from repro.calculus.envelope import ArrivalEnvelope
from repro.core.multicast_bounds import (
    remark2_multicast_wdb_homogeneous,
    theorem8_multicast_wdb_homogeneous,
)
from repro.simulation.chain import simulate_regulated_chain
from repro.simulation.flow import VBRVideoSource
from repro.simulation.fluid import (
    _adversarial_worst,
    _default_drain_margin,
    _regulator_stage,
    _shift_cum,
    _worst_delay,
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

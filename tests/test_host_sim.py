"""Single regulated host DES: bounds, conservation, adaptive switching."""

import numpy as np
import pytest

from repro.calculus.envelope import ArrivalEnvelope
from repro.core.delay_bounds import (
    remark1_wdb_homogeneous,
    theorem2_wdb_homogeneous,
)
from repro.core.threshold import homogeneous_threshold
from repro.simulation.flow import AudioSource, VBRVideoSource
from repro.simulation.chain import simulate_regulated_chain
from repro.simulation.host_sim import simulate_regulated_host
from tests.tolerances import SOUND_ABS_DES, sound_limit


def make_scenario(u, k=3, horizon=6.0, seed=42, kind="video"):
    rho = u / k
    if kind == "video":
        src = VBRVideoSource(rho, scene_strength=0.15, scene_persistence=0.9)
    else:
        src = AudioSource(rho)
    trace = src.generate(horizon, rng=seed).fragment(0.002)
    traces = [trace] * k
    sigma = max(trace.empirical_sigma(rho), 1e-6)
    envs = [ArrivalEnvelope(sigma, rho)] * k
    return traces, envs, sigma, rho


class TestBounds:
    @pytest.mark.parametrize("u", [0.5, 0.8, 0.95])
    def test_sigma_rho_measured_below_remark1(self, u):
        traces, envs, sigma, rho = make_scenario(u)
        res = simulate_regulated_host(
            traces, envs, mode="sigma-rho", discipline="adversarial"
        )
        bound = remark1_wdb_homogeneous(3, sigma, rho)
        assert res.worst_case_delay <= sound_limit(bound, abs_tol=SOUND_ABS_DES)

    @pytest.mark.parametrize("u", [0.5, 0.8, 0.95])
    def test_sigma_rho_lambda_measured_below_theorem2(self, u):
        traces, envs, sigma, rho = make_scenario(u)
        res = simulate_regulated_host(
            traces, envs, mode="sigma-rho-lambda", discipline="adversarial"
        )
        bound = theorem2_wdb_homogeneous(3, sigma, rho)
        assert res.worst_case_delay <= sound_limit(bound, abs_tol=SOUND_ABS_DES)


class TestPaperShape:
    def test_lambda_regulator_wins_at_heavy_load(self):
        """The core claim: beyond the threshold the vacation regulator
        achieves the smaller measured worst-case delay."""
        traces, envs, *_ = make_scenario(0.95, horizon=10.0)
        sr = simulate_regulated_host(
            traces, envs, mode="sigma-rho", discipline="adversarial"
        )
        srl = simulate_regulated_host(
            traces, envs, mode="sigma-rho-lambda", discipline="adversarial"
        )
        assert srl.worst_case_delay < sr.worst_case_delay

    def test_sigma_rho_wins_at_light_load(self):
        traces, envs, *_ = make_scenario(0.35, horizon=10.0)
        sr = simulate_regulated_host(
            traces, envs, mode="sigma-rho", discipline="adversarial"
        )
        srl = simulate_regulated_host(
            traces, envs, mode="sigma-rho-lambda", discipline="adversarial"
        )
        assert sr.worst_case_delay < srl.worst_case_delay

    def test_sigma_rho_delay_grows_with_rate(self):
        worst = []
        for u in (0.5, 0.75, 0.95):
            traces, envs, *_ = make_scenario(u)
            res = simulate_regulated_host(
                traces, envs, mode="sigma-rho", discipline="adversarial"
            )
            worst.append(res.worst_case_delay)
        assert worst[0] < worst[1] < worst[2]


class TestMechanics:
    def test_conservation_and_counts(self):
        traces, envs, *_ = make_scenario(0.6, horizon=3.0)
        res = simulate_regulated_host(traces, envs, mode="sigma-rho")
        assert res.events > 0
        total_delivered = sum(s.count for s in res.per_flow)
        assert total_delivered == sum(len(t) for t in traces)

    def test_adaptive_mode_selects_by_threshold(self):
        rho_star = homogeneous_threshold(3)
        light, *_ = make_scenario(rho_star * 3 * 0.6)
        heavy, *_ = make_scenario(min(rho_star * 3 * 1.2, 0.99))
        _, envs_l, *_ = make_scenario(rho_star * 3 * 0.6)
        _, envs_h, *_ = make_scenario(min(rho_star * 3 * 1.2, 0.99))
        res_l = simulate_regulated_host(light, envs_l, mode="adaptive", horizon=2.0)
        res_h = simulate_regulated_host(heavy, envs_h, mode="adaptive", horizon=2.0)
        assert res_l.mode == "sigma-rho"
        assert res_h.mode == "sigma-rho-lambda"

    def test_mode_none_is_plain_mux(self):
        traces, envs, *_ = make_scenario(0.5, horizon=2.0)
        res = simulate_regulated_host(traces, envs, mode="none")
        assert res.worst_case_delay >= 0

    def test_mismatched_inputs_rejected(self):
        traces, envs, *_ = make_scenario(0.5, horizon=1.0)
        with pytest.raises(ValueError):
            simulate_regulated_host(traces[:-1], envs)
        with pytest.raises(ValueError):
            simulate_regulated_host([], [])

    def test_worst_flow_identified(self):
        traces, envs, *_ = make_scenario(0.8, horizon=3.0)
        res = simulate_regulated_host(
            traces, envs, mode="sigma-rho", discipline="priority"
        )
        wf = res.worst_flow()
        assert res.per_flow[wf].worst == res.worst_case_delay
        # With per-index priorities the last flow is served last.
        assert wf == len(traces) - 1

    def test_discipline_alone_picks_the_pipeline(self):
        """No engine switch: every discipline runs closed form."""
        traces, envs, *_ = make_scenario(0.6, horizon=1.0)
        for discipline in ("adversarial", "fifo", "priority"):
            res = simulate_regulated_host(
                traces, envs, mode="sigma-rho", discipline=discipline
            )
            assert res.primed
        with pytest.raises(TypeError):
            simulate_regulated_host(traces, envs, engine="batched")
        with pytest.raises(TypeError):
            simulate_regulated_chain(
                traces[0], [traces[1:]], envs, engine="batched"
            )

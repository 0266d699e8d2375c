"""The Adaptive Control Algorithm (Section III)."""

import pytest

from repro.calculus.envelope import ArrivalEnvelope
from repro.core.adaptive import (
    AdaptiveController,
    ControlMode,
    StaggerPlan,
    resolve_mode,
)
from repro.core.regulator import SigmaRhoLambdaRegulator, SigmaRhoRegulator
from repro.core.threshold import heterogeneous_threshold, homogeneous_threshold


def hom_envs(k, sigma, rho):
    return [ArrivalEnvelope(sigma, rho)] * k


class TestModeSelection:
    def test_light_load_uses_sigma_rho(self):
        k = 3
        rho = homogeneous_threshold(k) * 0.5
        ctrl = AdaptiveController(hom_envs(k, 0.1, rho))
        assert ctrl.select_mode() is ControlMode.SIGMA_RHO
        regs = ctrl.build_regulators()
        assert all(isinstance(r, SigmaRhoRegulator) for r in regs)

    def test_heavy_load_uses_sigma_rho_lambda(self):
        k = 3
        rho = homogeneous_threshold(k) * 1.2
        ctrl = AdaptiveController(hom_envs(k, 0.1, rho))
        assert ctrl.select_mode() is ControlMode.SIGMA_RHO_LAMBDA
        regs = ctrl.build_regulators()
        assert all(isinstance(r, SigmaRhoLambdaRegulator) for r in regs)

    def test_switch_exactly_at_threshold(self):
        """Step 3: rho_bar in [rho*, 1/K) selects the lambda model."""
        k = 3
        rho_star = homogeneous_threshold(k)
        ctrl = AdaptiveController(hom_envs(k, 0.1, rho_star * 1.000001))
        assert ctrl.select_mode() is ControlMode.SIGMA_RHO_LAMBDA

    def test_heterogeneous_threshold_used(self):
        envs = [
            ArrivalEnvelope(0.2, 0.25),
            ArrivalEnvelope(0.01, 0.02),
            ArrivalEnvelope(0.01, 0.02),
        ]
        ctrl = AdaptiveController(envs)
        assert not ctrl.is_homogeneous
        assert ctrl.rho_star == pytest.approx(heterogeneous_threshold(3))

    def test_single_flow_never_switches(self):
        ctrl = AdaptiveController([ArrivalEnvelope(0.1, 0.9)])
        assert ctrl.select_mode() is ControlMode.SIGMA_RHO

    def test_threshold_override(self):
        ctrl = AdaptiveController(hom_envs(3, 0.1, 0.2), threshold_override=0.1)
        assert ctrl.select_mode() is ControlMode.SIGMA_RHO_LAMBDA

    def test_stability_flag(self):
        assert AdaptiveController(hom_envs(3, 0.1, 0.2)).is_stable
        assert not AdaptiveController(hom_envs(3, 0.1, 0.4)).is_stable

    def test_average_rate(self):
        envs = [ArrivalEnvelope(0.1, 0.1), ArrivalEnvelope(0.1, 0.3)]
        assert AdaptiveController(envs).average_rate == pytest.approx(0.2)

    def test_empty_flows_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveController([])

    def test_resolve_mode(self):
        """``adaptive`` resolves to the controller's choice; concrete
        modes pass through, without building a controller."""
        k = 3
        light = hom_envs(k, 0.1, homogeneous_threshold(k) * 0.5)
        heavy = hom_envs(k, 0.1, homogeneous_threshold(k) * 1.2)
        assert resolve_mode("adaptive", light) == "sigma-rho"
        assert resolve_mode("adaptive", heavy) == "sigma-rho-lambda"
        for mode in ("sigma-rho", "sigma-rho-lambda", "none"):
            assert resolve_mode(mode, []) == mode


class TestStaggerPlan:
    def test_windows_tile_without_overlap(self):
        ctrl = AdaptiveController(hom_envs(3, 0.06, 0.3))
        plan = ctrl.build_stagger_plan()
        assert not plan.windows_overlap()
        assert plan.utilization == pytest.approx(0.9)

    def test_offsets_are_cumulative_working_periods(self):
        ctrl = AdaptiveController(hom_envs(3, 0.06, 0.3))
        plan = ctrl.build_stagger_plan()
        w = plan.regulators[0].working_period
        assert plan.offsets == pytest.approx((0.0, w, 2 * w))

    def test_heterogeneous_common_period(self):
        envs = [
            ArrivalEnvelope(0.2, 0.3),
            ArrivalEnvelope(0.05, 0.25),
            ArrivalEnvelope(0.1, 0.2),
        ]
        plan = AdaptiveController(envs).build_stagger_plan()
        periods = {round(r.regulator_period, 12) for r in plan.regulators}
        assert len(periods) == 1
        assert not plan.windows_overlap()

    def test_unstable_plan_rejected(self):
        ctrl = AdaptiveController(hom_envs(3, 0.1, 0.4))
        with pytest.raises(ValueError, match="stability|tile"):
            ctrl.build_stagger_plan()

    def test_plan_validation_direct(self):
        reg = SigmaRhoLambdaRegulator(0.1, 0.3)
        with pytest.raises(ValueError):
            StaggerPlan(
                regulators=(reg,) * 4,  # 4 * W > P at rho = 0.3
                offsets=(0.0, 0.1, 0.2, 0.3),
                period=reg.regulator_period,
            )

    def test_overlap_detection(self):
        reg = SigmaRhoLambdaRegulator(0.1, 0.3)
        plan = StaggerPlan(
            regulators=(reg, reg),
            offsets=(0.0, reg.working_period / 2),  # deliberately overlapping
            period=reg.regulator_period,
        )
        assert plan.windows_overlap()


class TestDescribe:
    def test_describe_reports_paper_quantities(self):
        ctrl = AdaptiveController(hom_envs(3, 0.06, 0.3))
        info = ctrl.describe()
        assert info["k_hat"] == 3
        assert info["mode"] == "sigma-rho-lambda"
        assert info["rho_star_aggregate"] == pytest.approx(
            homogeneous_threshold(3, aggregate=True)
        )
        assert "stagger_period" in info

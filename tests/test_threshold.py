"""Rate threshold rho* (Theorems 3 and 4)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from repro.core.threshold import (
    control_range,
    control_range_heterogeneous_limit,
    control_range_homogeneous_limit,
    heterogeneous_threshold,
    heterogeneous_threshold_asymptotic,
    heterogeneous_threshold_quadratic,
    homogeneous_threshold,
    homogeneous_threshold_asymptotic,
)


class TestHomogeneous:
    def test_threshold_inside_stability_region(self):
        for k in (2, 3, 5, 10):
            rho = homogeneous_threshold(k)
            assert 0 < rho < 1 / k

    def test_aggregate_converges_to_paper_value(self):
        """The paper's 'rho* = 0.73 C' (Theorem 4 / contributions)."""
        assert homogeneous_threshold(1000, aggregate=True) == pytest.approx(
            math.sqrt(3) - 1, abs=1e-3
        )

    def test_crossing_property(self):
        """At rho < rho* the lambda-regulator bound is larger; above, smaller."""
        k = 4
        rho_star = homogeneous_threshold(k)

        def g1(rho):
            return k / (1 - rho) + 2 / (rho * (1 - rho))

        def g2(rho):
            return k / (1 - k * rho)

        below, above = rho_star * 0.9, min(rho_star * 1.1, 1 / k * 0.999)
        assert g1(below) > g2(below)
        assert g1(above) < g2(above)
        assert g1(rho_star) == pytest.approx(g2(rho_star), rel=1e-9)

    def test_capacity_scaling(self):
        assert homogeneous_threshold(3, capacity=2.0) == pytest.approx(
            2.0 * homogeneous_threshold(3)
        )

    def test_k_below_2_rejected(self):
        with pytest.raises(ValueError):
            homogeneous_threshold(1)
        with pytest.raises(TypeError):
            homogeneous_threshold(3.0)

    def test_asymptotic_matches_exact_for_large_k(self):
        k = 500
        assert homogeneous_threshold(k) == pytest.approx(
            homogeneous_threshold_asymptotic(k), rel=1e-2
        )


class TestHeterogeneous:
    def test_quadratic_matches_exact_crossing(self):
        """The paper's closed form solves exactly g1 = g2 (K >= 3)."""
        for k in (3, 5, 10, 50):
            assert heterogeneous_threshold_quadratic(k) == pytest.approx(
                heterogeneous_threshold(k), rel=1e-9
            )

    def test_k2_fallback(self):
        # At K=2 the quadratic degenerates; the function must still give
        # a threshold inside (0, 1/2).
        rho = heterogeneous_threshold_quadratic(2)
        assert 0 < rho < 0.5
        assert rho == pytest.approx(heterogeneous_threshold(2))

    def test_aggregate_converges_to_paper_value(self):
        """The paper's 'rho* = 0.79 C' (Theorem 3 / contributions)."""
        assert heterogeneous_threshold(1000, aggregate=True) == pytest.approx(
            (math.sqrt(21) - 3) / 2, abs=1e-3
        )

    def test_heterogeneous_above_homogeneous(self):
        """The extra 1/rho term pushes the crossing to higher rates."""
        for k in (3, 5, 10):
            assert heterogeneous_threshold(k) > homogeneous_threshold(k)

    def test_asymptotic(self):
        k = 500
        assert heterogeneous_threshold(k) == pytest.approx(
            heterogeneous_threshold_asymptotic(k), rel=1e-2
        )


class TestControlRanges:
    def test_limits_match_paper_constants(self):
        assert control_range_homogeneous_limit() == pytest.approx(
            2 - math.sqrt(3)
        )  # ~ 0.27
        assert control_range_heterogeneous_limit() == pytest.approx(
            (5 - math.sqrt(21)) / 2
        )  # ~ 0.21

    def test_finite_k_ranges_converge(self):
        hom = control_range(200, heterogeneous=False)
        het = control_range(200, heterogeneous=True)
        assert hom == pytest.approx(2 - math.sqrt(3), abs=5e-3)
        assert het == pytest.approx((5 - math.sqrt(21)) / 2, abs=5e-3)

    @given(st.integers(min_value=2, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_threshold_always_strictly_inside(self, k):
        for fn in (homogeneous_threshold, heterogeneous_threshold):
            rho = fn(k)
            assert 0.0 < rho < 1.0 / k


class TestRootCache:
    """The roots are cached per K; results must not move by a bit."""

    @staticmethod
    def _uncached(k, capacity, extra):
        def gap(rho):
            g1 = k / (1.0 - rho) + 2.0 / (rho * (1.0 - rho))
            if extra:
                g1 += 1.0 / rho
            return g1 - k / (1.0 - k * rho)

        eps = 1e-9
        rho = brentq(gap, eps, 1.0 / k - eps, xtol=1e-14, rtol=1e-13)
        rho *= capacity
        return rho

    @pytest.mark.parametrize("capacity", [1.0, 0.37, 2.5, 1e3])
    def test_cached_roots_equal_an_uncached_solve(self, capacity):
        for k in range(2, 65):
            for fn, extra in (
                (homogeneous_threshold, False),
                (heterogeneous_threshold, True),
            ):
                expect = self._uncached(k, capacity, extra)
                # Twice: the first call fills the cache, the second reads it.
                for _ in range(2):
                    assert fn(k, capacity) == expect
                    assert fn(k, capacity, aggregate=True) == k * expect

"""Metamorphic properties of the batch delay bounds.

Each test relates the bounds of two populations that differ in one
controlled way, so it checks :func:`batch_theorem1_wdb`,
:func:`batch_remark1_wdb` and :func:`batch_bounds` without a second
implementation of their formulas.  Every population is evaluated as
its own ``(1, K)`` row: padding a row with NaN columns changes how
``nansum`` rounds it.

The monotonicity properties hold in exact arithmetic.  In floats, a
last-bit increase of the sigma that sets Theorem 1's common period can
lower the bound by an ulp (the excess term's subtraction rounds at
sigma's scale), and adding a flow of negligible size can lower Remark 1
by reordering its sums.  The strategies therefore grow sigma by at
least 0.1% and add flows no smaller than the populations' own.

Theorem 1 is *not* monotone when an arbitrary flow joins: the common
period is the smallest per-flow period, so a flow with a short one
shrinks every flow's stagger window (the named example below).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.calculus.envelope import ArrivalEnvelope
from repro.scenarios.analytic import (
    batch_bounds,
    batch_remark1_wdb,
    batch_theorem1_wdb,
)

MAX_K = 9
SIGMAS = st.floats(1e-4, 1.0)


def _rhos(k: int):
    # Stable populations: sum(rho) <= 0.95 at C = 1.
    return st.floats(0.01, 0.95 / k)


@st.composite
def populations(draw):
    k = draw(st.integers(1, MAX_K))
    sigmas = draw(st.lists(SIGMAS, min_size=k, max_size=k))
    rhos = draw(st.lists(_rhos(k), min_size=k, max_size=k))
    return np.array(sigmas), np.array(rhos)


def _bounds(sigmas, rhos, capacity=1.0):
    """``(Theorem 1, Remark 1)`` of one population, as its own row."""
    s = np.asarray(sigmas, dtype=np.float64)[None, :]
    r = np.asarray(rhos, dtype=np.float64)[None, :]
    return (
        float(batch_theorem1_wdb(s, r, capacity)[0]),
        float(batch_remark1_wdb(s, r, capacity)[0]),
    )


@settings(max_examples=200, deadline=None)
@given(pop=populations(), data=st.data())
def test_bounds_non_decreasing_in_each_sigma(pop, data):
    sigmas, rhos = pop
    j = data.draw(st.integers(0, sigmas.size - 1))
    grown = sigmas.copy()
    grown[j] *= 1.0 + data.draw(st.floats(1e-3, 3.0))
    t1, r1 = _bounds(sigmas, rhos)
    t1_grown, r1_grown = _bounds(grown, rhos)
    assert t1_grown >= t1
    assert r1_grown >= r1


@settings(max_examples=200, deadline=None)
@given(
    pop=populations(),
    hops=st.integers(1, 8),
    propagation=st.floats(0.0, 0.5),
)
def test_bounds_non_decreasing_in_hops(pop, hops, propagation):
    sigmas, rhos = pop
    envs = [ArrivalEnvelope(s, r) for s, r in zip(sigmas, rhos)]
    modes = ["sigma-rho-lambda", "sigma-rho"]

    def at(h):
        return batch_bounds(
            [envs, envs], modes, hops=[h, h],
            propagation_total=[propagation] * 2,
        )

    bounds, baselines = at(hops)
    more_bounds, more_baselines = at(hops + 1)
    assert np.all(more_bounds >= bounds)
    assert np.all(more_baselines >= baselines)


@settings(max_examples=200, deadline=None)
@given(pop=populations(), data=st.data())
def test_remark1_non_decreasing_when_a_flow_joins(pop, data):
    sigmas, rhos = pop
    sigma = data.draw(SIGMAS)
    rho = data.draw(_rhos(sigmas.size))
    _, r1 = _bounds(sigmas, rhos)
    _, r1_joined = _bounds(np.append(sigmas, sigma), np.append(rhos, rho))
    assert r1_joined >= r1


@settings(max_examples=200, deadline=None)
@given(pop=populations(), data=st.data())
def test_theorem1_non_decreasing_when_a_flow_is_copied(pop, data):
    sigmas, rhos = pop
    j = data.draw(st.integers(0, sigmas.size - 1))
    t1, _ = _bounds(sigmas, rhos)
    t1_copied, _ = _bounds(np.append(sigmas, sigmas[j]), np.append(rhos, rhos[j]))
    assert t1_copied >= t1


@settings(max_examples=200, deadline=None)
@given(
    pop=populations(),
    exponent=st.integers(-10, 10),
    capacity=st.floats(1.0, 4.0),
)
def test_scaling_sigma_rho_and_capacity_together_is_exact(
    pop, exponent, capacity
):
    sigmas, rhos = pop
    c = 2.0 ** exponent
    assert _bounds(sigmas * c, rhos * c, capacity * c) == _bounds(
        sigmas, rhos, capacity
    )


@settings(max_examples=200, deadline=None)
@given(pop=populations(), exponent=st.integers(-10, 10))
def test_scaling_sigma_by_a_power_of_two_scales_both_bounds(pop, exponent):
    sigmas, rhos = pop
    c = 2.0 ** exponent
    t1, r1 = _bounds(sigmas, rhos)
    assert _bounds(sigmas * c, rhos) == (c * t1, c * r1)


def test_theorem1_falls_when_a_flow_with_a_shorter_period_joins():
    """Two flows at (0.1, 0.2) share a 0.625 s period; a third at
    (0.001, 0.2) cuts it to 6.25 ms, so the stagger term drops far more
    than the excess term grows.  Remark 1 rises, as it must."""
    t1, r1 = _bounds([0.1, 0.1], [0.2, 0.2])
    t1_joined, r1_joined = _bounds([0.1, 0.1, 0.001], [0.2, 0.2, 0.2])
    assert t1 == pytest.approx(1.5)
    assert t1_joined == pytest.approx(0.51125)
    assert r1 == pytest.approx(1 / 3)
    assert r1_joined == pytest.approx(0.5025)
    assert t1_joined < t1 and r1_joined > r1

"""Cost-model-driven campaign scheduling (repro.runtime.cost)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.cost import (
    BACKEND_VARIANCE,
    CellCostModel,
    backend_profile,
    plan_chunks,
)
from repro.runtime.executor import ProcessExecutor, SerialExecutor
from repro.scenarios.generator import generate_scenarios
from repro.scenarios.runner import run_batch
from repro.scenarios.spec import Scenario


def _cell(**kw) -> Scenario:
    base = dict(name="cost-cell", kinds=("video",) * 3, utilization=0.8)
    base.update(kw)
    return Scenario(**base)


# ----------------------------------------------------------------------
# Estimation
# ----------------------------------------------------------------------
def test_des_cells_estimated_dearer_than_fluid():
    model = CellCostModel()
    fluid = model.estimate(_cell(backend="fluid"))
    des = model.estimate(_cell(backend="des"))
    tree = model.estimate(
        _cell(backend="tree_des", topology="tree", tree_members=16,
              mode="sigma-rho")
    )
    assert fluid > 0
    assert des > fluid
    assert tree > des


def test_estimate_scales_with_workload():
    model = CellCostModel()
    small = model.estimate(_cell(backend="des", horizon=1.0))
    big = model.estimate(_cell(backend="des", horizon=4.0))
    assert big == pytest.approx(4.0 * small)
    shallow = model.estimate(
        _cell(backend="des", topology="chain", hops=2)
    )
    deep = model.estimate(_cell(backend="des", topology="chain", hops=6))
    assert deep == pytest.approx(3.0 * shallow)


def test_variance_marks_des_high():
    model = CellCostModel()
    assert model.relative_variance(_cell(backend="des")) > \
        model.relative_variance(_cell(backend="fluid"))


# ----------------------------------------------------------------------
# Fitting from store records
# ----------------------------------------------------------------------
def test_fit_recovers_coefficient_from_records():
    model = CellCostModel()
    records = []
    coeff = 5e-6
    for horizon in (1.0, 2.0, 3.0, 4.0, 5.0):
        sc = _cell(backend="des", horizon=horizon)
        from repro.runtime.cost import _spec_features

        _, workload = _spec_features(sc)
        # Evented records (``primed: false``) fit the evented
        # coefficient.
        records.append(
            {
                "backend": "des",
                "k": sc.k,
                "hops": sc.hops,
                "tree_members": 0,
                "horizon": horizon,
                "dt": sc.dt,
                "primed": False,
                "wall_time": coeff * workload,
            }
        )
    fitted = CellCostModel.fit(records, base=model)
    assert fitted.coefficients["des"] == pytest.approx(coeff)
    # Backends absent from the data keep their prior coefficients.
    assert fitted.coefficients["fluid"] == model.coefficients["fluid"]
    assert fitted.variance == dict(BACKEND_VARIANCE)


def test_fit_ignores_unusable_records():
    model = CellCostModel.fit(
        [{"backend": "des", "wall_time": 0.0}, {"nonsense": True}, "junk"]
    )
    assert model.coefficients == CellCostModel().coefficients


def test_fit_empty_store_keeps_prior():
    prior = CellCostModel(coefficients={"des": 1.0}, variance={"des": 0.5})
    fitted = CellCostModel.fit([], base=prior)
    assert fitted.coefficients == {"des": 1.0}
    assert fitted.variance == {"des": 0.5}


def test_fit_guards_nonfinite_wall_clocks():
    """NaN/inf wall clocks (error cells, clock glitches) must never
    poison a coefficient -- the degenerate-refit guard."""
    records = [
        {"backend": "des", "horizon": 2.0, "k": 3, "hops": 1,
         "wall_time": wall}
        for wall in (float("nan"), float("inf"), -1.0, None, "fast")
    ]
    fitted = CellCostModel.fit(records)
    assert fitted.coefficients == CellCostModel().coefficients
    assert all(np.isfinite(c) for c in fitted.coefficients.values())


def test_fit_guards_degenerate_feature_columns():
    """Zero/non-finite workloads (the ratio model's singular or constant
    feature column) are skipped; a usable record still fits."""
    records = [
        # Negative horizon -> non-positive workload: the constant/
        # singular-column analogue of the ratio model.
        {"backend": "des", "horizon": -1.0, "k": 3, "wall_time": 0.5},
        # non-finite feature -> non-finite workload.
        {"backend": "des", "horizon": float("inf"), "k": 3, "wall_time": 0.5},
        {"backend": "des", "horizon": float("nan"), "k": 3, "wall_time": 0.5},
    ]
    fitted = CellCostModel.fit(records)
    assert fitted.coefficients == CellCostModel().coefficients
    # Mixing in one clean record fits from that record alone.
    from repro.runtime.cost import _spec_features

    sc = _cell(backend="des", horizon=2.0)
    _, workload = _spec_features(sc)
    records.append(
        {"backend": "des", "horizon": 2.0, "k": sc.k, "hops": 1,
         "tree_members": 0, "dt": sc.dt, "primed": False,
         "wall_time": 3e-6 * workload}
    )
    refit = CellCostModel.fit(records)
    assert refit.coefficients["des"] == pytest.approx(3e-6)


def test_fit_never_produces_nonpositive_coefficients():
    fitted = CellCostModel.fit(
        [{"backend": "des", "horizon": 2.0, "k": 3, "wall_time": 1e-300},
         {"backend": "des", "horizon": 2.0, "k": 3, "wall_time": 1.0}]
    )
    assert all(c > 0 for c in fitted.coefficients.values())


# ----------------------------------------------------------------------
# Chunk planning
# ----------------------------------------------------------------------
def test_plan_chunks_is_a_partition_dearest_first():
    rng = np.random.default_rng(0)
    costs = rng.uniform(0.001, 2.0, size=57)
    plan = plan_chunks(costs, jobs=4)
    flat = [i for chunk in plan for i in chunk]
    assert sorted(flat) == list(range(57))
    # Dearest-first: the very first scheduled cell is the dearest.
    assert plan[0][0] == int(np.argmax(costs))
    # Chunk sizes bounded.
    assert all(1 <= len(chunk) <= 16 for chunk in plan)


def test_plan_chunks_variance_shrinks_chunks():
    costs = [0.01] * 32
    uniform = plan_chunks(costs, jobs=2, variances=[0.0] * 32)
    jittery = plan_chunks(costs, jobs=2, variances=[2.0] * 32)
    assert max(len(c) for c in jittery) < max(len(c) for c in uniform)


def test_plan_chunks_edge_cases():
    assert plan_chunks([], jobs=2) == []
    assert plan_chunks([0.0, 0.0], jobs=1) != []
    with pytest.raises(ValueError):
        plan_chunks([1.0], jobs=0)
    with pytest.raises(ValueError):
        plan_chunks([1.0, -1.0], jobs=1)
    with pytest.raises(ValueError):
        plan_chunks([1.0, 1.0], jobs=1, variances=[0.1])


def test_single_high_variance_cell_travels_nearly_alone():
    costs = [1e-6] * 20
    variances = [0.0] * 20
    variances[7] = 5.0
    plan = plan_chunks(costs, jobs=2, variances=variances)
    for chunk in plan:
        if 7 in chunk:
            assert len(chunk) <= 2


# ----------------------------------------------------------------------
# End to end: scheduling must not change outcomes
# ----------------------------------------------------------------------
@pytest.mark.runtime
def test_cost_scheduled_batch_is_bit_identical():
    scenarios = generate_scenarios(10, seed=3, horizon=0.6)
    serial = run_batch(scenarios, executor=SerialExecutor())
    pooled = run_batch(
        scenarios,
        executor=ProcessExecutor(jobs=2),
        cost_model=CellCostModel(),
    )
    for a, b in zip(serial.outcomes, pooled.outcomes):
        assert a.scenario.name == b.scenario.name
        assert a.measured == b.measured
        assert a.bound == b.bound
        assert a.sound == b.sound


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------
def test_backend_profile_breakdown():
    records = [
        {"eff_backend": "fluid", "wall_time": 0.01},
        {"eff_backend": "fluid", "wall_time": 0.03},
        {"eff_backend": "tree_des", "wall_time": 1.0},
    ]
    rows = backend_profile(records)
    assert [r["backend"] for r in rows] == ["tree_des", "fluid"]
    assert rows[0]["cells"] == 1
    assert rows[1]["wall_total"] == pytest.approx(0.04)
    assert rows[0]["share"] == pytest.approx(1.0 / 1.04)
    assert backend_profile([]) == []

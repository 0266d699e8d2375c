"""The scenario-matrix regression net: every cell must be sound.

Tier-1 runs a parametrized *smoke slice* -- the full curated corpus
plus a deterministic slab of generated scenarios (>= 40 cells total) --
with one test per scenario so a violation names its cell directly.
The full matrix (hundreds of generated cells across several seeds) is
registered behind the ``scenario`` marker: ``pytest -m scenario``.
"""

import pytest

from repro.scenarios import (
    adversarial_corpus,
    generate_scenarios,
    run_batch,
    run_scenario,
)

SMOKE_GENERATED = 32
CORPUS = adversarial_corpus()
SMOKE = list(CORPUS) + generate_scenarios(SMOKE_GENERATED, seed=2006)


def _assert_sound(outcome):
    sc = outcome.scenario
    assert outcome.height_ok, f"{sc.name}: constructed tree exceeds Lemma 2"
    assert outcome.sound, (
        f"{sc.name} ({outcome.eff_mode}, {outcome.eff_backend}, "
        f"hops={outcome.hops}): measured={outcome.measured:.6g} exceeds "
        f"bound={outcome.bound:.6g} + eps={outcome.eps:.3g}"
    )


@pytest.mark.parametrize("scenario", SMOKE, ids=lambda sc: sc.name)
def test_smoke_slice_is_sound(scenario):
    """>= 40 scenarios spanning every topology/workload/mode axis."""
    _assert_sound(run_scenario(scenario))


def test_smoke_slice_is_large_enough():
    assert len(SMOKE) >= 40


def test_smoke_slice_covers_the_axes():
    """The tier-1 slice must exercise every axis, not just the default."""
    assert {sc.topology for sc in SMOKE} == {"host", "chain", "tree"}
    assert {sc.backend for sc in SMOKE} == {"fluid", "des", "tree_des"}
    assert {sc.mode for sc in SMOKE} == {
        "sigma-rho", "sigma-rho-lambda", "adaptive"
    }


def test_batch_and_single_agree():
    """run_batch's vectorised bounds equal the one-off path."""
    batch = run_batch(SMOKE[:6])
    for outcome, sc in zip(batch.outcomes, SMOKE[:6]):
        single = run_scenario(sc)
        assert single.bound == pytest.approx(outcome.bound)
        assert single.measured == pytest.approx(outcome.measured)


def test_batch_report_accounting():
    rep = run_batch(SMOKE[:8])
    assert rep.n_scenarios == 8
    assert rep.elapsed > 0
    assert rep.scenarios_per_sec > 0
    assert not rep.violations
    lines = rep.summary_lines()
    assert any("soundness violations: 0" in ln for ln in lines)
    assert f"DES passes: {rep.events_total}" in lines


@pytest.mark.slow
@pytest.mark.scenario
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_full_matrix_is_sound(seed):
    """The opt-in full sweep: hundreds of generated cells per seed."""
    report = run_batch(generate_scenarios(200, seed=seed))
    assert report.violations == (), [
        (o.scenario.name, o.measured, o.bound) for o in report.violations
    ]
    # The matrix is not vacuous: some cell must approach its bound.
    assert report.max_tightness > 0.5

"""Campaign driver tests + the tier-1 parallel smoke campaign.

``test_parallel_smoke_campaign`` keeps the multiprocessing path
permanently exercised in tier-1 (2 workers, 24 cells); the rest covers
the satellite guarantees: serial/parallel bit-identical outcomes,
resume-after-partial-run, per-cell failure containment and perf-budget
verdicts.
"""

import dataclasses
from pathlib import Path

import pytest

import repro.scenarios.cellmatrix as cellmatrix_mod
from repro.runtime import (
    CampaignConfig,
    ProcessExecutor,
    ResultStore,
    SerialExecutor,
    build_campaign,
    cell_key,
    outcome_record,
    run_campaign,
)
from repro.scenarios import generate_scenarios, run_batch

pytestmark = pytest.mark.runtime

N_SMOKE = 24


@pytest.fixture(scope="module")
def smoke_matrix():
    return generate_scenarios(N_SMOKE, seed=11)


def test_parallel_smoke_campaign(smoke_matrix, tmp_path):
    """Tier-1 keeps the multiprocessing path alive: 2 workers, 24 cells."""
    campaign = run_campaign(
        smoke_matrix,
        executor=ProcessExecutor(jobs=2),
        store=tmp_path / "smoke",
    )
    assert campaign.evaluated == N_SMOKE
    assert campaign.clean, [o.scenario.name for o in campaign.report.violations]
    assert campaign.store_records == N_SMOKE
    assert ResultStore(tmp_path / "smoke").completed_keys() == {
        cell_key(sc) for sc in smoke_matrix
    }


def test_serial_and_parallel_outcomes_are_bit_identical(smoke_matrix):
    """The determinism contract: worker count never changes a verdict."""
    serial = run_batch(smoke_matrix, executor=SerialExecutor())
    parallel = run_batch(smoke_matrix, executor=ProcessExecutor(jobs=2))
    for s, p in zip(serial.outcomes, parallel.outcomes):
        assert s.scenario.name == p.scenario.name
        assert s.measured == p.measured          # bit-identical, no approx
        assert s.bound == p.bound
        assert s.eps == p.eps
        assert s.events == p.events
        assert s.sound and p.sound


def test_resume_skips_completed_cells(smoke_matrix, tmp_path):
    store = tmp_path / "resume"
    first = run_campaign(smoke_matrix[:10], store=store)
    assert first.evaluated == 10 and first.skipped == 0
    second = run_campaign(smoke_matrix, store=store, resume=True)
    assert second.skipped == 10
    assert second.evaluated == N_SMOKE - 10
    third = run_campaign(smoke_matrix, store=store, resume=True)
    assert third.evaluated == 0
    assert third.skipped == N_SMOKE
    assert third.store_records == N_SMOKE


def test_resume_retries_error_cells(smoke_matrix, tmp_path):
    store = ResultStore(tmp_path / "retry")
    bad = outcome_record(run_batch(smoke_matrix[:1]).outcomes[0])
    bad["error"] = "Traceback (most recent call last): boom"
    store.append(bad)
    campaign = run_campaign(smoke_matrix[:1], store=store, resume=True)
    assert campaign.skipped == 0 and campaign.evaluated == 1


def test_resume_requires_store(smoke_matrix):
    with pytest.raises(ValueError, match="store"):
        run_campaign(smoke_matrix[:2], resume=True)


def test_resume_never_launders_stored_violations(smoke_matrix, tmp_path):
    """Skipping a known-unsound cell must keep the campaign dirty."""
    store = ResultStore(tmp_path / "dirty")
    bad = outcome_record(run_batch(smoke_matrix[:1]).outcomes[0])
    bad["sound"] = False
    store.append(bad)
    campaign = run_campaign(smoke_matrix[:1], store=store, resume=True)
    assert campaign.evaluated == 0 and campaign.skipped == 1
    assert campaign.skipped_violations == 1
    assert not campaign.clean
    assert any(
        "already-failed in store" in ln for ln in campaign.summary_lines()
    )
    # And the no-op report does not fabricate infinite throughput.
    assert campaign.report.scenarios_per_sec == 0.0


def test_tick_streams_inflight_progress(smoke_matrix):
    seen = []
    run_batch(
        smoke_matrix[:5],
        executor=ProcessExecutor(jobs=2),
        tick=lambda done, n: seen.append((done, n)),
    )
    assert seen and seen[-1] == (5, 5)


def test_crashing_cell_fails_its_verdict_not_the_campaign(
    smoke_matrix, monkeypatch, tmp_path
):
    victim = smoke_matrix[3].name
    real_simulate = cellmatrix_mod.simulate_cells

    def sabotage(key, realised, pack_stats=None):
        # The dispatch reports a failed cell as its exception.
        out = real_simulate(key, realised, pack_stats)
        return [
            RuntimeError("injected simulator crash")
            if r.scenario.name == victim
            else cell
            for r, cell in zip(realised, out)
        ]

    monkeypatch.setattr(cellmatrix_mod, "simulate_cells", sabotage)
    # Through the process pool, whose fork-started workers inherit the
    # patch; the grouped evaluator's error isolation has its own test
    # in test_scenarios_cellmatrix.py.
    campaign = run_campaign(
        smoke_matrix[:6], executor=ProcessExecutor(jobs=2),
        store=tmp_path / "crash",
    )
    assert campaign.evaluated == 6
    errors = campaign.report.errors
    assert [o.scenario.name for o in errors] == [victim]
    assert "injected simulator crash" in errors[0].error
    assert not errors[0].sound
    # The other five cells got real verdicts.
    assert sum(o.sound for o in campaign.report.outcomes) == 5
    # And the store recorded the failure for later retry/diffing.
    rec = ResultStore(tmp_path / "crash").load()[cell_key(smoke_matrix[3])]
    assert rec["error"] and not rec["sound"]


def test_perf_budget_verdict(smoke_matrix):
    strangled = [
        dataclasses.replace(sc, perf_budget=1e-9) for sc in smoke_matrix[:3]
    ]
    campaign = run_campaign(strangled)
    assert len(campaign.report.perf_violations) == 3
    # Budget misses are perf regressions, not soundness violations.
    assert not campaign.report.violations
    assert not campaign.clean
    lines = "\n".join(campaign.summary_lines())
    assert "perf-budget violations: 3" in lines
    assert "OVER-BUDGET" in lines


def test_outcome_record_schema(smoke_matrix):
    outcome = run_batch(smoke_matrix[:1]).outcomes[0]
    rec = outcome_record(outcome)
    assert rec["key"] == cell_key(smoke_matrix[0])
    assert rec["name"] == smoke_matrix[0].name
    assert rec["sound"] is True and rec["error"] is None
    assert rec["budget_ok"] is True
    assert rec["measured"] == pytest.approx(outcome.measured)
    assert rec["wall_time"] > 0


class TestCampaignConfig:
    def test_from_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"count": 12, "seed": 5, "max_k": 8, "max_hops": 4}')
        config = CampaignConfig.from_file(path)
        assert (config.count, config.seed) == (12, 5)
        matrix = build_campaign(config)
        assert len(matrix) == 12
        assert max(sc.k for sc in matrix) <= 8
        assert all(sc.hops <= 4 for sc in matrix)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"count": 5, "frobnicate": true}')
        with pytest.raises(ValueError, match="frobnicate"):
            CampaignConfig.from_file(path)

    def test_shipped_thousand_cell_config_parses(self):
        config = CampaignConfig.from_file(
            Path(__file__).resolve().parents[1]
            / "examples"
            / "campaign_thousand.json"
        )
        assert config.count >= 1000
        assert config.max_k > 6       # the K > 6 population regime
        assert config.max_hops > 3    # deeper chains than the default draw

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(count=0)
        with pytest.raises(ValueError):
            CampaignConfig(perf_budget=-1.0)

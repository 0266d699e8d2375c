"""SoA grouped cell-matrix evaluation: the bit-identity contract.

``evaluate_grouped`` and ``evaluate_cell`` (a batch of one) are
throughput-only: every ``CellResult`` field must equal the per-cell
reference (``tests/reference.py``: per-cell realisation, scalar
simulators) bit for bit, over the curated corpus, generated matrices
(which mix groupable hosts with chain/tree/fifo fallback cells),
hand-built edge cells and groups of one; a cell whose grouped
realisation or evaluation raises must fail only its own verdict with
the exact error ``evaluate_cell`` records.  The lean kernels the
grouped path substitutes for the scalar ones
(`_empirical_sigma_fast`, `_first_passage_arrays`, the
``batch_fluid_*`` rows, the primed host's dedupe cache) are pinned
against their scalar references here too.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scenarios.cellmatrix as cellmatrix_mod
import repro.simulation.batched as batched_mod
from repro.calculus.envelope import ArrivalEnvelope
from repro.runtime.cost import _spec_features, plan_chunks, spec_group_key
from repro.runtime.executor import SerialExecutor, _run_one
from repro.scenarios import adversarial_corpus, generate_scenarios, run_batch
from repro.scenarios.cellmatrix import (
    evaluate_grouped,
    group_key,
    simulate_cells,
)
from repro.scenarios.runner import evaluate_cell
from repro.scenarios.spec import Scenario
from repro.scenarios.tracebatch import _empirical_sigma_fast, realise_batch
from repro.simulation.batched import primed_adversarial_host
from repro.simulation.flow import OnOffSource, PacketTrace
from repro.simulation.fluid import (
    _first_passage_arrays,
    batch_fluid_next_empty,
    batch_fluid_on_time,
    batch_fluid_token_bucket,
    batch_fluid_work_conserving,
    fluid_next_empty,
    fluid_on_time,
    fluid_token_bucket,
    fluid_work_conserving,
)
from repro.utils.piecewise import PiecewiseLinearCurve
from tests.reference import reference_cell

pytestmark = pytest.mark.runtime


def _assert_grouped_matches_percell(scenarios):
    reference = [
        _run_one(reference_cell, i, sc) for i, sc in enumerate(scenarios)
    ]
    per_cell = [_run_one(evaluate_cell, i, sc) for i, sc in enumerate(scenarios)]
    grouped = evaluate_grouped(scenarios)
    assert len(grouped) == len(scenarios)
    for ref, p, g in zip(reference, per_cell, grouped):
        assert g.index == p.index == ref.index
        # Production (grouped and the batch of one) vs the reference;
        # dataclass equality: every field, no approx.
        assert p.ok == ref.ok, p.error or ref.error
        assert p.value == ref.value
        assert g.value == ref.value
        # A failing cell records evaluate_cell's exact error.
        assert g.error == p.error
        assert g.wall_time > 0.0


# ----------------------------------------------------------------------
# Grouped vs per-cell equivalence
# ----------------------------------------------------------------------
class TestGroupedEquivalence:
    def test_curated_corpus_bit_identical(self):
        _assert_grouped_matches_percell(adversarial_corpus())

    def test_generated_matrix_bit_identical(self):
        # 256 generated cells: hosts (groupable) mixed with chains,
        # trees, fifo cells and adaptive modes (fallback).
        _assert_grouped_matches_percell(generate_scenarios(256, seed=77))

    def test_edge_cells_bit_identical(self):
        base = dict(kinds=("cbr", "poisson", "onoff"), utilization=0.6)
        cells = [
            Scenario(name="edge-cap", capacity=2.0, mode="sigma-rho", **base),
            Scenario(name="edge-adaptive", mode="adaptive", **base),
            Scenario(
                name="edge-offsets",
                mode="sigma-rho",
                start_offsets=(0.0, 0.1, 0.25),
                **base,
            ),
            Scenario(name="edge-unshared", shared=False, **base),
            Scenario(
                name="edge-overload",
                kinds=("cbr",) * 3,
                utilization=1.4,
                mode="sigma-rho",
            ),
            Scenario(name="edge-fifo", discipline="fifo", **base),
            Scenario(name="edge-chain", topology="chain", hops=3, **base),
            Scenario(
                name="edge-des-stagger",
                backend="des",
                stagger_phase=0.37,
                **base,
            ),
            Scenario(name="edge-des-sr", backend="des", mode="sigma-rho", **base),
        ]
        _assert_grouped_matches_percell(cells)
        # A group of one is realised and evaluated like any batch.
        for sc in cells:
            _assert_grouped_matches_percell([sc])

    def test_serial_executor_advertises_grouping(self):
        assert SerialExecutor().supports_cell_grouping
        from repro.runtime import ProcessExecutor

        assert not ProcessExecutor(jobs=2).supports_cell_grouping


# ----------------------------------------------------------------------
# Error isolation
# ----------------------------------------------------------------------
class TestErrorIsolation:
    def test_crashing_cell_fails_only_its_own_verdict(self, monkeypatch):
        """A kernel crash inside a group reruns the cell through
        evaluate_cell: the failing cell carries the pool path's exact
        error, neighbours keep their values."""
        cells = [
            Scenario(
                name="victim-des",
                kinds=("cbr",) * 3,
                utilization=0.6,
                mode="sigma-rho",
                backend="des",
            ),
            Scenario(
                name="bystander-fluid",
                kinds=("cbr",) * 3,
                utilization=0.6,
                mode="sigma-rho",
            ),
            Scenario(
                name="bystander-lambda",
                kinds=("audio", "video", "cbr"),
                utilization=0.7,
            ),
            Scenario(
                name="bystander-chain",
                kinds=("cbr",) * 3,
                utilization=0.6,
                topology="chain",
                hops=2,
            ),
        ]
        healthy = evaluate_grouped(cells)
        assert all(r.error is None for r in healthy)

        real = batched_mod.sigma_rho_departures

        def sabotage(*args, **kwargs):
            raise RuntimeError("injected kernel crash")

        # The primed DES kernel resolves sigma_rho_departures through
        # this module global.
        monkeypatch.setattr(batched_mod, "sigma_rho_departures", sabotage)
        grouped = evaluate_grouped(cells)
        per_cell = [_run_one(evaluate_cell, i, sc) for i, sc in enumerate(cells)]
        monkeypatch.setattr(batched_mod, "sigma_rho_departures", real)

        assert grouped[0].value is None
        assert "injected kernel crash" in grouped[0].error
        # The grouped fallback reruns evaluate_cell, so the captured
        # traceback is the per-cell one, character for character.
        assert grouped[0].error == per_cell[0].error
        for r, h in zip(grouped[1:], healthy[1:]):
            assert r.error is None
            assert r.value == h.value

        # A cell the batch realiser cannot realise (every onoff lane
        # crashes) fails alone, with the per-cell error and reason.
        cells.append(
            Scenario(
                name="victim-onoff", kinds=("onoff", "cbr"), utilization=0.5
            )
        )
        healthy.append(_run_one(evaluate_cell, len(healthy), cells[-1]))

        def crash(self, horizon, rng=None):
            raise RuntimeError("injected generate crash")

        monkeypatch.setattr(OnOffSource, "generate", crash)
        stats: dict = {}
        grouped = evaluate_grouped(cells, stats=stats)
        per_cell = _run_one(evaluate_cell, len(cells) - 1, cells[-1])
        monkeypatch.undo()

        assert "injected generate crash" in grouped[-1].error
        assert grouped[-1].error == per_cell.error
        for r, h in zip(grouped[:-1], healthy[:-1]):
            assert r.error is None
            assert r.value == h.value
        summary = stats["records"][-1]
        assert summary["fallback_reasons"]["realise-error"] == 1

    def test_failing_fluid_pack_fails_each_member(self, monkeypatch):
        """Every member of a pack that raises gets the pack's exception
        from the dispatch; the grouped path then records the error
        evaluate_cell reproduces for each of them."""
        cells = [
            Scenario(
                name=f"pack-{i}",
                kinds=("cbr",) * 3,
                utilization=0.5 + 0.1 * i,
                mode="sigma-rho",
            )
            for i in range(3)
        ]
        realised, _ = realise_batch(cells)
        key = group_key(realised[0])

        def crash(*args, **kwargs):
            raise RuntimeError("injected pack crash")

        monkeypatch.setattr(cellmatrix_mod, "batch_fluid_token_bucket", crash)
        out = simulate_cells(key, realised)
        assert all(isinstance(o, RuntimeError) for o in out)
        stats: dict = {}
        grouped = evaluate_grouped(cells, stats=stats)
        per_cell = [_run_one(evaluate_cell, i, sc) for i, sc in enumerate(cells)]
        for g, p in zip(grouped, per_cell):
            assert "injected pack crash" in g.error
            assert g.error == p.error
        assert stats["records"][-1]["fallback_reasons"] == {"kernel-error": 3}


# ----------------------------------------------------------------------
# Lean kernel pins (each grouped substitute vs its scalar reference)
# ----------------------------------------------------------------------
class TestLeanKernels:
    def test_empirical_sigma_fast_matches_trace_method(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            n = int(rng.integers(1, 120))
            # Duplicate timestamps exercise the staircase jumps.
            times = np.sort(rng.choice(rng.uniform(0, 2.0, n), size=n))
            sizes = rng.uniform(1e-4, 0.01, n)
            tr = PacketTrace(times=times, sizes=sizes)
            for rho in (0.0, 0.3, 1.7):
                assert _empirical_sigma_fast(
                    tr.times, tr.sizes, rho
                ) == tr.empirical_sigma(rho)
        assert _empirical_sigma_fast(np.empty(0), np.empty(0), 0.5) == 0.0

    def test_first_passage_arrays_matches_curve(self):
        rng = np.random.default_rng(9)
        t = np.cumsum(rng.uniform(0.0, 0.2, 60))
        v = np.cumsum(rng.choice([0.0, 0.0, 0.05, 0.2], size=60))
        curve = PiecewiseLinearCurve(t, v)
        levels = np.concatenate(
            [[0.0, v[0], v[-1], v[-1] + 1.0], rng.uniform(0, v[-1], 40)]
        )
        assert np.array_equal(
            _first_passage_arrays(t, v, levels),
            curve.first_passage(levels),
        )

    def _rows(self, rng, n_rows=5, width=200):
        return np.cumsum(rng.uniform(0.0, 0.05, (n_rows, width)), axis=1)

    def test_batch_token_bucket_matches_scalar_rows(self):
        rng = np.random.default_rng(3)
        rows = self._rows(rng)
        t_grid = 0.01 * np.arange(rows.shape[1])
        sigmas = rng.uniform(0.01, 0.5, rows.shape[0])
        rhos = rng.uniform(0.0, 2.0, rows.shape[0])
        batch = batch_fluid_token_bucket(rows, t_grid, sigmas, rhos)
        for i in range(rows.shape[0]):
            assert np.array_equal(
                batch[i], fluid_token_bucket(rows[i], t_grid, sigmas[i], rhos[i])
            )

    def test_batch_work_conserving_matches_scalar_rows(self):
        rng = np.random.default_rng(4)
        rows = self._rows(rng)
        service = np.cumsum(rng.uniform(0.0, 0.06, rows.shape), axis=1)
        service[:, 0] = 0.0
        batch = batch_fluid_work_conserving(rows, service)
        for i in range(rows.shape[0]):
            assert np.array_equal(
                batch[i], fluid_work_conserving(rows[i], service[i])
            )

    def test_batch_on_time_matches_scalar_rows(self):
        t_grid = 0.01 * np.arange(300)
        working = np.array([0.05, 0.2, 0.31])
        period = np.array([0.11, 0.2, 0.5])
        offset = np.array([0.0, 0.07, 1.3])
        batch = batch_fluid_on_time(t_grid, working, period, offset)
        for i in range(3):
            assert np.array_equal(
                batch[i],
                fluid_on_time(t_grid, working[i], period[i], offset[i]),
            )

    def test_batch_next_empty_matches_scalar_prefixes(self):
        """Flat-padded rows of different valid lengths: each valid
        prefix is bit-identical to the scalar kernel on that prefix --
        including an unstable row whose tail is inf."""
        rng = np.random.default_rng(6)
        dt = 0.01
        widths = [120, 200, 260]
        caps = np.array([1.0, 2.0, 0.5])
        n_max = max(widths)
        t_grid = dt * np.arange(n_max)
        agg = np.empty((3, n_max))
        rows = []
        for i, w in enumerate(widths):
            row = np.cumsum(rng.uniform(0.0, caps[i] * dt * 1.2, w))
            # Drain the tail so stable rows end empty (except row 2,
            # kept overloaded to exercise the inf tail).
            if i != 2:
                row[w // 2:] = row[w // 2]
            rows.append(row)
            agg[i, :w] = row
            agg[i, w:] = row[-1]
        n_valid = np.array([w - 1 for w in widths])
        batch = batch_fluid_next_empty(t_grid, agg, caps, n_valid)
        for i, w in enumerate(widths):
            scalar = fluid_next_empty(t_grid[:w], rows[i], caps[i])
            assert np.array_equal(batch[i, :w], scalar)

    def test_primed_worst_dedupe_cache_is_invisible(self):
        times = np.sort(np.random.default_rng(2).uniform(0, 1.0, 30))
        sizes = np.full(30, 4e-3)
        traces = [(times, sizes)] * 3
        envelopes = [ArrivalEnvelope(0.05, 0.3)] * 3
        keys = [(id(times), 0.05, 0.3)] * 3
        plain = primed_adversarial_host(traces, envelopes, "sigma-rho")
        cached = primed_adversarial_host(
            traces, envelopes, "sigma-rho", dep_cache={}, cache_keys=keys
        )
        assert cached.batch_events == plain.batch_events
        for a, b in zip(cached.per_flow_delays, plain.per_flow_delays):
            assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# Group-aware chunk planning
# ----------------------------------------------------------------------
class TestGroupAwarePlanning:
    def test_spec_group_key_separates_structures(self):
        host = Scenario(
            name="h", kinds=("cbr",) * 3, utilization=0.5, mode="sigma-rho"
        )
        assert spec_group_key(host) == spec_group_key(
            dataclasses.replace(host, name="h2", utilization=0.9)
        )
        for variant in (
            dataclasses.replace(host, topology="chain", hops=2),
            dataclasses.replace(host, backend="des"),
            dataclasses.replace(host, mode="sigma-rho-lambda"),
            dataclasses.replace(host, discipline="fifo"),
            dataclasses.replace(host, dt=0.004),
        ):
            assert spec_group_key(variant) != spec_group_key(host)

    def test_plan_chunks_groups_is_exact_cover_of_coherent_blocks(self):
        rng = np.random.default_rng(8)
        n = 40
        costs = rng.uniform(0.5, 5.0, n)
        groups = [("g", int(i)) for i in rng.integers(0, 4, n)]
        chunks = plan_chunks(costs, 4, groups=groups)
        flat = sorted(i for chunk in chunks for i in chunk)
        assert flat == list(range(n))  # exact cover, no dupes
        for chunk in chunks:
            assert len({groups[i] for i in chunk}) == 1  # group-coherent

    def test_plan_chunks_without_groups_unchanged(self):
        costs = [3.0, 1.0, 2.0, 5.0]
        assert plan_chunks(costs, 2) == plan_chunks(costs, 2, groups=None)


# ----------------------------------------------------------------------
# Satellite regressions: cost features, stability band, empty matrices
# ----------------------------------------------------------------------
class TestCostFeatureBackend:
    def test_record_eff_backend_wins_over_requested(self):
        rec = {
            "backend": "des",
            "eff_backend": "fluid",
            "horizon": 2.0,
            "kinds": ["cbr"] * 3,
        }
        as_fluid = dict(rec, backend="fluid")
        assert _spec_features(rec) == _spec_features(as_fluid)
        label, _ = _spec_features(rec)
        assert label.startswith("fluid")

    def test_spec_without_eff_backend_uses_requested(self):
        sc = Scenario(
            name="c", kinds=("cbr",) * 3, utilization=0.5, backend="des"
        )
        label, _ = _spec_features(sc)
        assert label.startswith("des")


class TestStabilityBoundary:
    """Batch and scalar bounds agree bit-for-bit at the critical load.

    Dyadic sigma/rho values keep every sum exact, so ``np.nansum`` and
    Python ``sum`` cannot diverge: the only way batch and scalar could
    disagree is a tolerance-band mismatch -- the regression under test.
    """

    dyadic_rho = st.integers(1, 48).map(lambda i: i / 64.0)
    dyadic_sigma = st.integers(1, 128).map(lambda i: i / 32.0)

    @given(
        st.lists(
            st.tuples(dyadic_sigma, dyadic_rho), min_size=1, max_size=4
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_remark1_batch_equals_scalar(self, flows):
        from repro.calculus.mux import mux_delay_bound_heterogeneous
        from repro.scenarios.analytic import batch_remark1_wdb

        envs = [ArrivalEnvelope(s, r) for s, r in flows]
        sig = np.array([[s for s, _ in flows]])
        rho = np.array([[r for _, r in flows]])
        batch = float(batch_remark1_wdb(sig, rho)[0])
        scalar = mux_delay_bound_heterogeneous(envs)
        assert batch == scalar  # bitwise, including the inf cases

    @given(
        st.lists(
            st.tuples(dyadic_sigma, dyadic_rho), min_size=2, max_size=4
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_theorem1_batch_agrees_on_finiteness(self, flows):
        from repro.core.delay_bounds import theorem1_wdb_heterogeneous
        from repro.scenarios.analytic import batch_theorem1_wdb

        sig = np.array([[s for s, _ in flows]])
        rho = np.array([[r for _, r in flows]])
        batch = float(batch_theorem1_wdb(sig, rho)[0])
        scalar = theorem1_wdb_heterogeneous(
            [s for s, _ in flows], [r for _, r in flows]
        )
        assert np.isfinite(batch) == np.isfinite(scalar)
        if np.isfinite(batch):
            assert batch == pytest.approx(scalar, rel=1e-12, abs=0.0)

    def test_exact_critical_load_is_finite_in_both(self):
        from repro.calculus.mux import mux_delay_bound_heterogeneous
        from repro.scenarios.analytic import batch_remark1_wdb

        # sum(rho) == capacity exactly: the tolerance band keeps both
        # finite and equal (priced at the tolerance-wide slack).
        envs = [
            ArrivalEnvelope(0.5, 0.5),
            ArrivalEnvelope(0.25, 0.25),
            ArrivalEnvelope(0.25, 0.25),
        ]
        sig = np.array([[0.5, 0.25, 0.25]])
        rho = np.array([[0.5, 0.25, 0.25]])
        batch = float(batch_remark1_wdb(sig, rho)[0])
        scalar = mux_delay_bound_heterogeneous(envs)
        assert np.isfinite(batch) and np.isfinite(scalar)
        assert batch == scalar
        # One ulp past the band: both go unbounded.
        rho_over = rho + np.array([[2e-12, 0.0, 0.0]])
        assert np.isinf(float(batch_remark1_wdb(sig, rho_over)[0]))
        envs_over = [ArrivalEnvelope(0.5, 0.5 + 2e-12), *envs[1:]]
        assert np.isinf(mux_delay_bound_heterogeneous(envs_over))


class TestEmptyShards:
    def test_run_batch_empty_input_is_clean(self):
        report = run_batch([])
        assert report.outcomes == ()
        assert report.elapsed == 0.0

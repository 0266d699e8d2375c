"""SoA grouped cell-matrix evaluation: the bit-identity contract.

``evaluate_grouped`` and ``evaluate_cell`` (a batch of one) are
throughput-only: every ``CellResult`` field must equal the per-cell
reference (``tests/reference.py``: per-cell realisation, scalar
simulators, the full-grid ``simulate_fluid_chain`` for chains and
trees) bit for bit, over the curated corpus, generated matrices
(which mix grouped hosts, chains and trees with DES chains, which
fall back),
hand-built edge cells and groups of one; a cell whose grouped
realisation or evaluation raises must fail only its own verdict with
the exact error ``evaluate_cell`` records.  Splitting a fluid host
group into packs must not move a result, no pack may outgrow
``MAX_PACK_ELEMENTS`` unless one cell alone does, and a group holds
the binned arrival rows of one pack at a time.  The lean kernels the
grouped path substitutes for the scalar ones
(`_empirical_sigma_fast`, `_first_passage_arrays`, the
``batch_fluid_*`` rows, the primed host's dedupe cache) are pinned
against their scalar references here too.
"""

import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scenarios.cellmatrix as cellmatrix_mod
import repro.simulation.batched as batched_mod
from repro.calculus.envelope import ArrivalEnvelope
from repro.runtime.cost import (
    CellCostModel,
    _spec_features,
    plan_chunks,
    spec_group_key,
)
from repro.runtime.executor import _run_one
from repro.scenarios import adversarial_corpus, generate_scenarios, run_batch
from repro.scenarios.cellmatrix import (
    evaluate_grouped,
    group_key,
    simulate_cells,
)
from repro.scenarios.runner import CellResult, evaluate_batch, evaluate_cell
from repro.scenarios.spec import Scenario
from repro.scenarios.tracebatch import _empirical_sigma_fast, realise_batch
from repro.simulation.batched import primed_host
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
        # 256 generated cells: fluid hosts, chains and trees and DES
        # hosts (grouped) mixed with DES chains (fallback).
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
                name="edge-chain-sr",
                topology="chain",
                hops=2,
                mode="sigma-rho",
                propagation=0.01,
                capacity=2.0,
                **base,
            ),
            Scenario(
                name="edge-tree",
                topology="tree",
                tree_members=12,
                mode="sigma-rho",
                **base,
            ),
            Scenario(
                name="edge-chain-fifo",
                topology="chain",
                hops=2,
                discipline="fifo",
                **base,
            ),
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

    def test_chunked_batches_match_the_whole_matrix(self):
        """A ``--jobs`` worker evaluates its group-coherent chunk as one
        batch: every chunk's results equal the whole matrix's, and each
        cell lands in a group kernel or falls back exactly as it does
        in the whole matrix."""
        cells = generate_scenarios(48, seed=17, horizon=0.6)
        model = CellCostModel()
        chunks = plan_chunks(
            model.estimate_many(cells),
            2,
            variances=[model.relative_variance(sc) for sc in cells],
            groups=[spec_group_key(sc) for sc in cells],
        )
        assert 1 < len(chunks) < len(cells)
        whole = evaluate_batch(cells)
        for chunk in chunks:
            part = evaluate_batch([cells[i] for i in chunk])
            for i, t in zip(chunk, part):
                assert t.ok and t.value == whole[i].value
                counters = t.telemetry.counters
                assert set(counters) & {"grouped_cells", "fallback_cells"}
                for name in ("grouped_cells", "fallback_cells"):
                    assert counters.get(name) == whole[i].telemetry.counters.get(name)


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

    def test_failing_chain_kernel_fails_each_member(self, monkeypatch):
        """The chain group runs cell by cell: a raising kernel fails
        each member alone, with evaluate_cell's exact error."""
        cells = [
            Scenario(
                name=f"chain-{i}",
                kinds=("cbr", "poisson", "onoff"),
                utilization=0.6,
                mode="sigma-rho",
                topology=topology,
                hops=2 if topology == "chain" else 1,
                tree_members=12 if topology == "tree" else 0,
            )
            for i, topology in enumerate(("chain", "tree"))
        ]
        realised, _ = realise_batch(cells)
        assert {group_key(r) for r in realised} == {
            ("fluid", "adversarial", "chain")
        }

        def crash(*args, **kwargs):
            raise RuntimeError("injected chain crash")

        monkeypatch.setattr(cellmatrix_mod, "adversarial_chain_delays", crash)
        out = simulate_cells(group_key(realised[0]), realised)
        assert all(isinstance(o, RuntimeError) for o in out)
        stats: dict = {}
        grouped = evaluate_grouped(cells, stats=stats)
        per_cell = [_run_one(evaluate_cell, i, sc) for i, sc in enumerate(cells)]
        for g, p in zip(grouped, per_cell):
            assert "injected chain crash" in g.error
            assert g.error == p.error
        assert stats["records"][-1]["fallback_reasons"] == {"kernel-error": 2}

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
# Fluid host packs: splitting, the cap, one pack's rows at a time
# ----------------------------------------------------------------------
def _host_group(mode):
    """Realised members of one fluid host group in ``mode``, with grids
    of different widths (horizons and drain margins differ), and the
    group's key.  ``"none"`` (no shaping; no scenario resolves to it)
    packs the σ-ρ cells' arrival rows as they are."""
    cell_mode = "sigma-rho" if mode == "none" else mode
    kinds = ("cbr", "audio", "video", "cbr")
    cells = [
        Scenario(name=f"pack-{i}", kinds=kinds, utilization=u,
                 mode=cell_mode, horizon=h, seed=i)
        for i, (h, u) in enumerate(
            [(0.5, 0.5), (0.5, 0.6), (0.55, 0.4), (0.6, 0.7), (1.2, 0.5)]
        )
    ]
    # Twelve unshared flows: one cell with many more lanes than the rest.
    cells.append(
        Scenario(name="pack-wide", kinds=("cbr", "audio", "video") * 4,
                 utilization=0.5, mode=cell_mode, horizon=0.5, shared=False,
                 seed=9)
    )
    realised, _ = realise_batch(cells)
    key = group_key(realised[0])
    assert all(group_key(r) == key for r in realised)
    return realised, (*key[:3], mode, key[4])


def _sizes(realised, key):
    """Each member's (lanes, padded grid width) in a pack."""
    cells = [
        cellmatrix_mod._prep_fluid_cell(r, key[3], key[4]) for r in realised
    ]
    return [(len(c.lane_params), c.n_bins + 1) for c in cells]


class TestFluidPacks:
    @pytest.mark.parametrize("mode", ["none", "sigma-rho", "sigma-rho-lambda"])
    def test_pack_splitting_is_invisible(self, mode, monkeypatch):
        realised, key = _host_group(mode)
        assert len({w for _lanes, w in _sizes(realised, key)}) > 1
        packed_stats: dict = {}
        packed = simulate_cells(key, realised, packed_stats)
        assert all(isinstance(r, CellResult) for r in packed)
        monkeypatch.setattr(cellmatrix_mod, "MAX_PACK_ELEMENTS", 1)
        alone_stats: dict = {}
        alone = simulate_cells(key, realised, alone_stats)
        assert alone_stats["packs"] == len(realised) > packed_stats["packs"]
        assert alone == packed

    def test_no_pack_matrix_exceeds_the_cap(self, monkeypatch):
        realised, key = _host_group("sigma-rho")
        sizes = [lanes * width for lanes, width in _sizes(realised, key)]
        # Two of the small cells fit under the cap; the wide one alone
        # does not.
        cap = 2 * sorted(sizes)[-2]
        assert max(sizes) > cap
        monkeypatch.setattr(cellmatrix_mod, "MAX_PACK_ELEMENTS", cap)
        matrices, members = [], []
        real_shape = cellmatrix_mod.batch_fluid_token_bucket
        real_pack = cellmatrix_mod._eval_fluid_pack

        def shape(arrivals_cum, *args):
            matrices.append(arrivals_cum.shape)
            return real_shape(arrivals_cum, *args)

        def pack(mode, dt, cells):
            members.append(len(cells))
            return real_pack(mode, dt, cells)

        monkeypatch.setattr(cellmatrix_mod, "batch_fluid_token_bucket", shape)
        monkeypatch.setattr(cellmatrix_mod, "_eval_fluid_pack", pack)
        out = simulate_cells(key, realised)
        assert all(isinstance(r, CellResult) for r in out)
        assert len(matrices) == len(members) and max(members) > 1
        over = [
            n for (lanes, width), n in zip(matrices, members)
            if lanes * width > cap
        ]
        assert over == [1]

    def test_binned_rows_live_one_pack_at_a_time(self, monkeypatch):
        realised, key = _host_group("sigma-rho-lambda")
        rows = []
        live_at_pack = []
        real_bin = cellmatrix_mod._binned_cum
        real_pack = cellmatrix_mod._eval_fluid_pack

        def binned(*args):
            row = real_bin(*args)
            rows.append(weakref.ref(row))
            return row

        def pack(mode, dt, cells):
            live = sum(ref() is not None for ref in rows)
            own = sum(len(cell.arr_rows) for _slot, cell in cells)
            live_at_pack.append((live, own))
            return real_pack(mode, dt, cells)

        monkeypatch.setattr(cellmatrix_mod, "_binned_cum", binned)
        monkeypatch.setattr(cellmatrix_mod, "_eval_fluid_pack", pack)
        monkeypatch.setattr(cellmatrix_mod, "MAX_PACK_ELEMENTS", 1)
        out = simulate_cells(key, realised)
        assert all(isinstance(r, CellResult) for r in out)
        assert len(live_at_pack) == len(realised)
        assert all(live == own > 0 for live, own in live_at_pack)
        assert all(ref() is None for ref in rows)

    def test_failing_binning_fails_only_its_cell(self, monkeypatch):
        realised, key = _host_group("sigma-rho")
        healthy = simulate_cells(key, realised)
        victim = 1
        packs = cellmatrix_mod._fluid_subbatches(
            [
                (i, cellmatrix_mod._prep_fluid_cell(r, key[3], key[4]))
                for i, r in enumerate(realised)
            ]
        )
        (victim_pack,) = [
            pack for pack in packs if victim in [i for i, _cell in pack]
        ]
        assert len(victim_pack) > 1
        doomed = {id(tr) for tr in realised[victim].traces} - {
            id(tr)
            for i, r in enumerate(realised) if i != victim
            for tr in r.traces
        }
        assert doomed
        real_bin = cellmatrix_mod._binned_cum

        def crash(tr, *args):
            if id(tr) in doomed:
                raise RuntimeError("injected binning crash")
            return real_bin(tr, *args)

        monkeypatch.setattr(cellmatrix_mod, "_binned_cum", crash)
        out = simulate_cells(key, realised)
        assert isinstance(out[victim], RuntimeError)
        assert "injected binning crash" in str(out[victim])
        for i, (o, h) in enumerate(zip(out, healthy)):
            if i != victim:
                assert o == h


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
        plain = primed_host(traces, envelopes, "sigma-rho")
        cached = primed_host(
            traces, envelopes, "sigma-rho", dep_cache={}, cache_keys=keys
        )
        assert cached.batch_events == plain.batch_events
        for a, b in zip(cached.per_flow_delays, plain.per_flow_delays):
            assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# Group-aware chunk planning
# ----------------------------------------------------------------------
class TestChainGroup:
    def test_group_keys_and_fallback_reasons(self):
        """Adversarial fluid chains and trees share one group; a fluid
        FIFO chain falls back on its discipline and a DES chain on its
        topology (the first fact group_key rejects)."""
        base = dict(
            kinds=("cbr", "poisson", "onoff"), utilization=0.6,
            mode="sigma-rho",
        )
        cells = [
            Scenario(name="c-sr", topology="chain", hops=2, **base),
            Scenario(
                name="c-lambda", topology="chain", hops=3,
                **{**base, "mode": "sigma-rho-lambda"},
            ),
            Scenario(name="t-sr", topology="tree", tree_members=12, **base),
            Scenario(
                name="c-fifo", topology="chain", hops=2, discipline="fifo",
                **base,
            ),
            Scenario(
                name="c-des", topology="chain", hops=2, backend="des", **base
            ),
        ]
        realised, _ = realise_batch(cells)
        keys = [group_key(r) for r in realised]
        assert keys[:3] == [("fluid", "adversarial", "chain")] * 3
        assert keys[3:] == [None, None]
        assert cellmatrix_mod._fallback_reason(realised[3]) == "discipline:fifo"
        assert cellmatrix_mod._fallback_reason(realised[4]) == "topology:chain"
        stats: dict = {}
        evaluate_grouped(cells, stats=stats)
        summary = stats["records"][-1]
        assert summary["grouped_cells"] == 3
        assert summary["fallback_reasons"] == {
            "discipline:fifo": 1, "topology:chain": 1,
        }


    def test_members_are_timed_one_by_one(self):
        """The chain group runs cell by cell, so each member records its
        own simulate time, not the group mean; the shares still add up
        to the group's kernel time."""
        base = dict(kinds=("cbr", "poisson", "onoff"), utilization=0.6)
        cells = [
            Scenario(name="c-short", topology="chain", hops=2,
                     mode="sigma-rho", **base),
            Scenario(name="c-long", topology="chain", hops=3,
                     mode="sigma-rho-lambda", horizon=4.0, **base),
            Scenario(name="t-sr", topology="tree", tree_members=12,
                     mode="sigma-rho", **base),
        ]
        stats: dict = {}
        tasks = evaluate_grouped(cells, stats=stats)
        (group,) = [
            r for r in stats["records"]
            if r["kind"] == "grouping" and r["topology"] == "chain"
        ]
        assert group["cells"] == len(cells)
        shares = [t.telemetry.phases["simulate"] for t in tasks]
        assert len(set(shares)) == len(shares)
        assert sum(shares) == pytest.approx(group["kernel_s"], rel=1e-9)
        for t, share in zip(tasks, shares):
            assert t.telemetry.dur == t.wall_time > share

    def test_packed_hosts_keep_the_amortised_share(self):
        cells = [
            Scenario(name=f"h-{i}", kinds=("cbr",) * 3,
                     utilization=0.5 + 0.1 * i, mode="sigma-rho")
            for i in range(3)
        ]
        stats: dict = {}
        tasks = evaluate_grouped(cells, stats=stats)
        (group,) = [r for r in stats["records"] if r["kind"] == "grouping"]
        shares = {t.telemetry.phases["simulate"] for t in tasks}
        assert shares == {group["kernel_s"] / len(cells)}


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
        # Every DES cell runs the closed-form passes and is priced so.
        chain = dict(
            name="c", kinds=("cbr",) * 4, utilization=0.5, backend="des",
            topology="chain", hops=3, horizon=0.8,
        )
        for discipline, features in (
            ("adversarial", ("des_primed", 4000.0)),
            ("fifo", ("des_primed", 4000.0)),
            ("priority", ("des_primed", 4000.0)),
        ):
            sc = Scenario(discipline=discipline, **chain)
            assert _spec_features(sc) == pytest.approx(features), discipline


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


# ----------------------------------------------------------------------
# Slices: a matrix is realised and simulated SLICE_CELLS cells at a time
# ----------------------------------------------------------------------
#: The horizon of the one cell whose realisation raises (see
#: ``_crash_broken_cell``).
_BROKEN_HORIZON = 0.77


def _slice_matrix(mixed_matrix):
    """Every group kernel and every fallback: fluid σ-ρ, λ and ``none``
    hosts (``none-*`` cells, see ``_with_none_hosts``), fluid chains and
    trees, adversarial and FIFO DES hosts and chains, a fluid FIFO host
    and a cell whose realisation raises."""
    base = dict(kinds=("cbr", "poisson", "onoff"), utilization=0.6)
    extra = [
        Scenario(name="none-0", kinds=("cbr",) * 3, utilization=0.5,
                 mode="sigma-rho"),
        Scenario(name="none-1", kinds=("cbr", "audio"), utilization=0.6,
                 mode="sigma-rho", horizon=0.5),
        Scenario(name="lambda-host", mode="sigma-rho-lambda", **base),
        Scenario(name="fluid-fifo-host", discipline="fifo", **base),
        Scenario(name="des-fifo-chain", topology="chain", hops=2,
                 backend="des", discipline="fifo", mode="sigma-rho", **base),
        Scenario(name="broken", kinds=("onoff", "cbr"), utilization=0.5,
                 horizon=_BROKEN_HORIZON),
    ]
    return [*mixed_matrix[:12], *extra[:3], *mixed_matrix[12:], *extra[3:]]


def _with_none_hosts(realise):
    """``realise`` with the ``none-*`` cells' mode resolved to
    ``"none"`` (unshaped fluid hosts; no scenario resolves to it)."""

    def realise_none(scenarios):
        realised, info = realise(scenarios)
        return [
            dataclasses.replace(r, eff_mode="none")
            if not isinstance(r, Exception)
            and r.scenario.name.startswith("none-")
            else r
            for r in realised
        ], info

    return realise_none


def _crash_broken_cell(monkeypatch):
    real = OnOffSource.generate

    def generate(self, horizon, rng=None):
        if horizon == _BROKEN_HORIZON:
            raise RuntimeError("injected generate crash")
        return real(self, horizon, rng=rng)

    monkeypatch.setattr(OnOffSource, "generate", generate)


def _grouping_fields(tasks):
    return [
        (t.telemetry.counters.get("grouped_cells"),
         t.telemetry.counters.get("fallback_cells"))
        for t in tasks
    ]


class TestSlices:
    @pytest.mark.parametrize("size", [1, 7, cellmatrix_mod.SLICE_CELLS])
    def test_slicing_is_invisible(self, size, mixed_matrix, monkeypatch):
        """Results, per-cell grouping counters and the run's grouping
        totals do not depend on the slice size."""
        cells = _slice_matrix(mixed_matrix)
        assert {
            (sc.topology, sc.backend, sc.discipline) for sc in cells
        } >= {
            ("host", "fluid", "adversarial"), ("chain", "fluid", "adversarial"),
            ("tree", "fluid", "adversarial"), ("host", "fluid", "fifo"),
            ("host", "des", "adversarial"), ("host", "des", "fifo"),
            ("chain", "des", "adversarial"), ("chain", "des", "fifo"),
        }
        _crash_broken_cell(monkeypatch)
        monkeypatch.setattr(
            cellmatrix_mod, "realise_batch", _with_none_hosts(realise_batch)
        )
        monkeypatch.setattr(cellmatrix_mod, "SLICE_CELLS", len(cells))
        whole_stats: dict = {}
        whole = evaluate_grouped(cells, stats=whole_stats)
        monkeypatch.setattr(cellmatrix_mod, "SLICE_CELLS", size)
        stats: dict = {}
        sliced = evaluate_grouped(cells, stats=stats)

        *whole_groups, whole_summary = whole_stats["records"]
        assert {
            (g["backend"], g["topology"], g["mode"]) for g in whole_groups
        } >= {
            ("fluid", "host", "sigma-rho"), ("fluid", "host", "none"),
            ("fluid", "host", "sigma-rho-lambda"), ("fluid", "chain", "mixed"),
            ("des", "host", "sigma-rho"), ("des", "host", "sigma-rho-lambda"),
        }
        assert set(whole_summary["fallback_reasons"]) == {
            "realise-error", "discipline:fifo", "topology:chain",
        }

        assert [t.index for t in sliced] == list(range(len(cells)))
        assert [t.value for t in sliced] == [t.value for t in whole]
        assert [t.error for t in sliced] == [t.error for t in whole]
        assert "injected generate crash" in sliced[-1].error
        assert _grouping_fields(sliced) == _grouping_fields(whole)

        *groups, summary = stats["records"]
        assert [g["kind"] for g in groups] == ["grouping"] * len(whole_groups)
        assert summary["kind"] == "grouping_summary"
        for g, w in zip(groups, whole_groups):
            for name in ("backend", "topology", "mode", "cells",
                         "kernel_fallbacks", "lanes", "valid_elements",
                         "sim_bins", "grid_bins", "cut_attempts"):
                assert g.get(name) == w.get(name), name
            if "pad_elements" in g:
                assert g["padding_waste"] == (
                    1.0 - g["valid_elements"] / g["pad_elements"]
                )
        for name in ("cells", "grouped_cells", "fallback_cells",
                     "fallback_reasons", "batch_realised_cells",
                     "batch_lanes_generated"):
            assert summary[name] == whole_summary[name], name
        assert (
            summary["source_cache_hits"] + summary["source_cache_misses"]
            == whole_summary["source_cache_hits"]
            + whole_summary["source_cache_misses"]
        )

    def test_one_slice_of_realised_cells_is_alive(self, monkeypatch):
        """When a group kernel starts, only its own slice's realised
        cells are alive, and none outlives the call."""
        cells = generate_scenarios(40, seed=13, horizon=0.4)
        refs: list = []
        alive_at_kernel: list[int] = []
        real_realise = cellmatrix_mod.realise_batch
        real_simulate = cellmatrix_mod.simulate_cells

        def realise(scenarios):
            realised, info = real_realise(scenarios)
            refs.extend(
                weakref.ref(r) for r in realised
                if not isinstance(r, Exception)
            )
            return realised, info

        def simulate(key, realised, *rest):
            if key is not None:
                alive_at_kernel.append(sum(ref() is not None for ref in refs))
            return real_simulate(key, realised, *rest)

        monkeypatch.setattr(cellmatrix_mod, "realise_batch", realise)
        monkeypatch.setattr(cellmatrix_mod, "simulate_cells", simulate)
        monkeypatch.setattr(cellmatrix_mod, "SLICE_CELLS", 8)
        tasks = evaluate_grouped(cells)
        assert all(t.ok for t in tasks)
        assert len(refs) == len(cells)
        assert len(alive_at_kernel) >= len(cells) // 8
        assert max(alive_at_kernel) <= 8
        assert all(ref() is None for ref in refs)

"""Batched trace synthesis: the bit-identity contract.

``realise_batch`` is throughput-only: every trace, envelope and
``_Realised`` execution fact must equal the per-cell reference
realiser (``tests/reference.py``) bit for bit, over generated
matrices and hand-built edge cells covering every mix kind, start
offsets, unshared flows and the MTU fragmentation split.  The batch
sigma kernel is pinned against its scalar reference (including pack
splitting), and the vectorised on/off generator against the retired
scalar while-loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scenarios.tracebatch as tb
from repro.scenarios import generate_scenarios
from repro.scenarios.spec import Scenario
from repro.scenarios.tracebatch import (
    _empirical_sigma_fast,
    batch_empirical_sigma,
    realise_batch,
)
from repro.simulation.flow import OnOffSource, PacketTrace
from repro.workloads.profiles import MIX_KINDS
from tests.reference import realise

pytestmark = pytest.mark.runtime


def _assert_batch_matches_percell(scenarios):
    batch, info = realise_batch(scenarios)
    assert len(batch) == len(scenarios)
    assert info["lanes_generated"] > 0
    for sc, b in zip(scenarios, batch):
        p = realise(sc)
        assert not isinstance(b, Exception), sc.name
        assert b.eff_mode == p.eff_mode
        assert b.eff_backend == p.eff_backend
        assert b.mtu == p.mtu
        assert b.hops == p.hops
        assert b.propagation == p.propagation
        assert b.height_ok == p.height_ok
        assert b.extra_eps == p.extra_eps
        assert len(b.traces) == len(p.traces)
        for bt, pt in zip(b.traces, p.traces):
            assert np.array_equal(bt.times, pt.times)  # bitwise
            assert np.array_equal(bt.sizes, pt.sizes)
        for be, pe in zip(b.envelopes, p.envelopes):
            assert be.sigma == pe.sigma
            assert be.rho == pe.rho


# ----------------------------------------------------------------------
# Batched realisation vs the per-cell path
# ----------------------------------------------------------------------
class TestBatchRealisationEquivalence:
    def test_generated_matrix_bit_identical(self):
        # 96 generated cells: every family, shared and unshared flows,
        # staggered starts, host/chain/tree topologies, des slices.
        _assert_batch_matches_percell(generate_scenarios(96, seed=123))

    def test_edge_cells_bit_identical(self):
        base = dict(utilization=0.6)
        cells = [
            # Every mix kind in one cell (audio/video packets straddle
            # the MTU: fragmentation on; cbr/poisson packets under it).
            Scenario(name="e-all-kinds", kinds=MIX_KINDS, **base),
            Scenario(name="e-cap", kinds=("cbr",) * 4, capacity=2.0, **base),
            Scenario(
                name="e-offsets",
                kinds=("onoff", "audio", "cbr"),
                start_offsets=(0.0, 0.13, 0.29),
                **base,
            ),
            Scenario(
                name="e-unshared", kinds=("cbr", "cbr", "onoff"),
                shared=False, **base,
            ),
            Scenario(name="e-adaptive", kinds=("audio", "video"),
                     mode="adaptive", **base),
            Scenario(name="e-overload", kinds=("cbr",) * 3,
                     utilization=1.4, mode="sigma-rho"),
            Scenario(name="e-fifo", kinds=("poisson", "cbr"),
                     discipline="fifo", **base),
            Scenario(name="e-chain", kinds=("cbr", "video"),
                     topology="chain", hops=3, **base),
            Scenario(name="e-des", kinds=("cbr", "onoff", "audio"),
                     backend="des", mode="sigma-rho", **base),
            Scenario(name="e-horizon", kinds=("audio", "audio"),
                     horizon=0.8, **base),
        ]
        _assert_batch_matches_percell(cells)

    @given(
        st.lists(
            st.tuples(
                st.lists(
                    st.sampled_from(MIX_KINDS), min_size=1, max_size=4
                ),
                st.sampled_from((0.35, 0.6, 0.85)),
                st.booleans(),  # shared
                st.booleans(),  # start offsets
                st.sampled_from(
                    ("sigma-rho", "sigma-rho-lambda", "adaptive")
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_cells_bit_identical(self, drawn):
        cells = []
        for i, (kinds, u, shared, skew, mode) in enumerate(drawn):
            offsets = (
                tuple(0.07 * j for j in range(len(kinds))) if skew else ()
            )
            cells.append(
                Scenario(
                    name=f"hyp-{i}",
                    kinds=tuple(kinds),
                    utilization=u,
                    mode=mode,
                    shared=shared,
                    start_offsets=offsets,
                    seed=i * 31 + 7,
                )
            )
        _assert_batch_matches_percell(cells)

    def test_bad_cell_never_fails_batch_mates(self, monkeypatch):
        cells = [
            Scenario(name="ok-a", kinds=("cbr", "onoff"), utilization=0.5),
            Scenario(name="victim", kinds=("onoff", "cbr"), utilization=0.5),
            Scenario(name="ok-b", kinds=("audio", "cbr"), utilization=0.5),
        ]
        real = OnOffSource.generate

        def sabotage(self, horizon, rng=None):
            if isinstance(rng, int) and rng % 2 == hash("x") % 2:
                pass
            raise RuntimeError("injected generate crash")

        # Crash every onoff lane: the two cells that own one come back
        # as the exception, the audio/cbr-only cell still realises.
        monkeypatch.setattr(OnOffSource, "generate", sabotage)
        batch, _ = realise_batch(cells)
        monkeypatch.setattr(OnOffSource, "generate", real)
        for failed in batch[:2]:
            assert isinstance(failed, RuntimeError)
            assert "injected generate crash" in str(failed)
        assert batch[2].scenario is cells[2]


# ----------------------------------------------------------------------
# The batch sigma kernel vs its scalar reference
# ----------------------------------------------------------------------
class TestBatchSigma:
    def _lanes(self, rng, n=24):
        lanes = []
        for i in range(n):
            m = int(rng.integers(0, 150))
            if i % 5 == 0 and m:
                # Duplicate timestamps: forces the scalar route.
                t = np.sort(rng.choice(rng.uniform(0, 2.0, max(m // 2, 1)), m))
            else:
                t = np.sort(rng.uniform(0, 2.0, m))
                t = np.unique(t)
            s = rng.uniform(1e-4, 0.01, t.shape[0])
            lanes.append((t, s, float(rng.choice((0.0, 0.3, 1.1)))))
        return lanes

    def test_matches_scalar_lane_by_lane(self):
        lanes = self._lanes(np.random.default_rng(17))
        out = batch_empirical_sigma(lanes)
        for i, lane in enumerate(lanes):
            assert out[i] == _empirical_sigma_fast(*lane)  # bitwise

    def test_matches_trace_method(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            t = np.unique(rng.uniform(0, 2.0, 80))
            s = rng.uniform(1e-4, 0.01, t.shape[0])
            rho = float(rng.uniform(0.0, 1.5))
            (out,) = batch_empirical_sigma([(t, s, rho)])
            assert out == PacketTrace(times=t, sizes=s).empirical_sigma(rho)

    def test_pack_splitting_is_invisible(self, monkeypatch):
        lanes = self._lanes(np.random.default_rng(29))
        whole = batch_empirical_sigma(lanes)
        monkeypatch.setattr(tb, "MAX_SIGMA_PACK_ELEMENTS", 200)
        monkeypatch.setattr(tb, "MAX_SIGMA_PACK_RATIO", 1.05)
        split = batch_empirical_sigma(lanes)
        assert np.array_equal(whole, split)


# ----------------------------------------------------------------------
# The vectorised on/off generator vs the retired scalar loop
# ----------------------------------------------------------------------
class TestOnOffVectorised:
    @staticmethod
    def _reference(src, horizon, seed):
        """The pre-vectorisation while-loop, verbatim."""
        gen = np.random.default_rng(seed)
        times_parts = []
        gap = src.packet_size / src.peak_rate
        t = 0.0
        while t < horizon:
            on = gen.exponential(src.mean_on)
            burst = np.arange(t, min(t + on, horizon), gap)
            if burst.size:
                times_parts.append(burst)
            t += on + gen.exponential(src.mean_off)
        if times_parts:
            times = np.concatenate(times_parts)
        else:
            times = np.empty(0, dtype=np.float64)
        return PacketTrace(times, np.full(times.shape, src.packet_size))

    def test_bit_identical_to_scalar_loop(self):
        rng = np.random.default_rng(33)
        for trial in range(60):
            src = OnOffSource(
                peak_rate=float(rng.uniform(0.5, 4.0)),
                mean_on=float(rng.uniform(0.01, 0.5)),
                mean_off=float(rng.uniform(0.01, 0.8)),
                packet_size=float(rng.uniform(1e-3, 2e-2)),
            )
            horizon = float(rng.uniform(0.2, 4.0))
            seed = int(rng.integers(1_000_000_000))
            ref = self._reference(src, horizon, seed)
            out = src.generate(horizon, rng=seed)
            assert np.array_equal(out.times, ref.times), trial
            assert np.array_equal(out.sizes, ref.sizes), trial

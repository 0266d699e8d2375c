"""Scenario spec, registry, generator and vectorised-bound unit tests."""

import warnings

import numpy as np
import pytest

import repro.scenarios  # noqa: F401  (registers the corpus)
from repro.calculus.envelope import ArrivalEnvelope
from repro.core.delay_bounds import (
    remark1_wdb_heterogeneous,
    theorem1_wdb_heterogeneous,
    theorem2_wdb_homogeneous,
)
from repro.scenarios import (
    Scenario,
    adversarial_corpus,
    generate_scenarios,
    get_scenario,
    registered_scenarios,
    run_batch,
    scenario_names,
)
from repro.scenarios.analytic import (
    batch_bounds,
    batch_remark1_wdb,
    batch_theorem1_wdb,
    pack_envelopes,
)
from repro.scenarios.spec import scenario_from_dict
from repro.scenarios.tracebatch import realise_batch


class TestScenarioSpec:
    def test_validation_rejects_bad_fields(self):
        ok = dict(name="x", kinds=("video",) * 2, utilization=0.5)
        Scenario(**ok)
        with pytest.raises(ValueError):
            Scenario(**{**ok, "kinds": ("warez",)})
        with pytest.raises(ValueError):
            Scenario(**{**ok, "mode": "psychic"})
        with pytest.raises(ValueError):
            Scenario(**{**ok, "topology": "torus"})
        with pytest.raises(ValueError):
            Scenario(**{**ok, "backend": "quantum"})
        with pytest.raises(ValueError):
            Scenario(**{**ok, "stagger_phase": 1.5})
        with pytest.raises(ValueError):
            Scenario(**{**ok, "start_offsets": (0.1,)})  # wrong arity
        with pytest.raises(ValueError):
            Scenario(**{**ok, "topology": "tree"})  # needs tree_members
        # Malformed numbers fail here, not inside a kernel.
        nan = float("nan")
        for bad in (
            {"start_offsets": (nan, 0.0)},
            {"start_offsets": (0.0, -0.1)},
            {"perf_budget": nan},
            {"propagation": nan},
            {"propagation": -1.0},
            {"topology": "chain", "hops": 2.5},
            {"topology": "chain", "hops": 0},
            {"tree_members": 10.5},
            {"tree_members": -1},
            # Malformed specs that used to get a key and fail in a worker
            # (or run a duplicate computation under another key).
            {"discipline": "bogus"},
            {"discipline": "Adversarial"},
            {"seed": 1.5},
            {"seed": nan},
            {"seed": True},
            {"shared": 1},
            {"tags": "smoke"},
            {"tags": ("smoke", 3)},
            # Fields the topology ignores: they would run the default's
            # computation under another key.
            {"hops": 5},
            {"topology": "tree", "tree_members": 9, "hops": 2},
            {"propagation": 0.5},
            {"topology": "tree", "tree_members": 9, "propagation": 0.5},
            {"tree_members": 9},
            {"topology": "chain", "hops": 2, "tree_members": 9},
        ):
            with pytest.raises((ValueError, TypeError)):
                Scenario(**{**ok, **bad})
        Scenario(**{**ok, "topology": "chain", "hops": 3, "propagation": 0.5})
        Scenario(**{**ok, "topology": "tree", "tree_members": 9})
        # Store records and campaign files go through the same checks.
        with pytest.raises(ValueError):
            scenario_from_dict({**ok, "start_offsets": [nan, 0.0]})
        for bad in ({"discipline": "bogus"}, {"seed": 1.5}, {"tags": "smoke"}):
            with pytest.raises((ValueError, TypeError)):
                scenario_from_dict({**ok, **bad})
        # Overloaded vacation cells fail at the spec, not in the stagger
        # plan or the single-flow regulator.
        for mode in ("sigma-rho-lambda", "adaptive"):
            for kinds, util in (
                (("video",) * 2, 1.0 + 5e-10),
                (("video",) * 2, 1.000001),
                (("cbr",) * 4, 1.1),
                (("video",), 1.0),
                (("audio",), 1.1),
            ):
                bad = {**ok, "kinds": kinds, "utilization": util, "mode": mode}
                for build in (lambda d: Scenario(**d), scenario_from_dict):
                    with pytest.raises(
                        ValueError, match=rf"utilization.*{mode}.*K={len(kinds)}"
                    ):
                        build(bad)
        # Full load tiles with K >= 2; sigma-rho takes any load.
        Scenario(**{**ok, "utilization": 1.0, "mode": "adaptive"})
        Scenario(**{**ok, "utilization": 1.0, "topology": "chain", "hops": 2})
        Scenario(**{**ok, "kinds": ("video",), "utilization": 1.5,
                    "mode": "sigma-rho"})

    def test_realise_is_deterministic(self):
        sc = Scenario(name="det", kinds=("video", "audio"), utilization=0.6, seed=5)
        (r1, r2), _ = realise_batch([sc, sc])
        (r3,), _ = realise_batch([sc])
        for a, b, c in zip(r1.traces, r2.traces, r3.traces):
            np.testing.assert_array_equal(a.times, b.times)
            np.testing.assert_array_equal(a.sizes, b.sizes)
            np.testing.assert_array_equal(a.times, c.times)
            np.testing.assert_array_equal(a.sizes, c.sizes)

    def test_start_offsets_shift_traces_not_envelopes(self):
        base = Scenario(name="p", kinds=("cbr",) * 2, utilization=0.5, seed=3)
        skew = Scenario(
            name="p", kinds=("cbr",) * 2, utilization=0.5, seed=3,
            start_offsets=(0.0, 0.25),
        )
        (r_base, r_skew), _ = realise_batch([base, skew])
        t_base, t_skew = r_base.traces, r_skew.traces
        assert t_skew[1].times[0] == pytest.approx(t_base[1].times[0] + 0.25)
        assert r_base.envelopes[1].sigma == pytest.approx(
            r_skew.envelopes[1].sigma
        )

    def test_effective_mode_resolves_adaptive(self):
        sc = Scenario(name="a", kinds=("cbr",) * 3, utilization=0.9, mode="adaptive")
        envs = [ArrivalEnvelope(0.05, 0.3)] * 3
        assert sc.effective_mode(envs) == "sigma-rho-lambda"
        light = [ArrivalEnvelope(0.05, 0.1)] * 3
        assert sc.effective_mode(light) == "sigma-rho"


class TestRegistry:
    def test_corpus_registered_on_import(self):
        names = scenario_names()
        for sc in adversarial_corpus():
            assert sc.name in names
            assert get_scenario(sc.name).kinds == sc.kinds

    def test_tag_filter(self):
        heavy = registered_scenarios(tag="heavy-band")
        assert len(heavy) >= 3
        assert all("heavy-band" in sc.tags for sc in heavy)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("no-such-scenario")


class TestGenerator:
    def test_stable_in_seed_and_index(self):
        a = generate_scenarios(10, seed=4)
        b = generate_scenarios(30, seed=4)
        assert a == b[:10]  # growing the matrix never perturbs a prefix

    def test_seeds_differ(self):
        assert generate_scenarios(5, seed=1) != generate_scenarios(5, seed=2)

    def test_axes_covered_at_scale(self):
        scs = generate_scenarios(150, seed=9)
        assert {s.topology for s in scs} == {"host", "chain", "tree"}
        assert {s.mode for s in scs} == {
            "sigma-rho", "sigma-rho-lambda", "adaptive"
        }
        assert any("heavy-band" in s.tags for s in scs)
        assert any(s.start_offsets for s in scs)
        assert all(0 < s.utilization <= 0.96 for s in scs)


class TestBatchAnalytic:
    """The vectorised kernels pinned to the scalar theorems."""

    def _random_populations(self, rng, n=50):
        pops = []
        for _ in range(n):
            k = int(rng.integers(1, 7))
            sig = rng.uniform(1e-3, 0.5, size=k)
            rho = rng.uniform(0.01, 0.95 / k, size=k)
            pops.append([ArrivalEnvelope(s, r) for s, r in zip(sig, rho)])
        return pops

    def test_theorem1_matches_scalar(self, rng):
        pops = self._random_populations(rng)
        sig, rho = pack_envelopes(pops)
        batch = batch_theorem1_wdb(sig, rho)
        for i, envs in enumerate(pops):
            scalar = theorem1_wdb_heterogeneous(
                [e.sigma for e in envs], [e.rho for e in envs]
            )
            assert batch[i] == pytest.approx(scalar, rel=1e-12)

    def test_remark1_matches_scalar(self, rng):
        pops = self._random_populations(rng)
        sig, rho = pack_envelopes(pops)
        batch = batch_remark1_wdb(sig, rho)
        for i, envs in enumerate(pops):
            scalar = remark1_wdb_heterogeneous(
                [e.sigma for e in envs], [e.rho for e in envs]
            )
            assert batch[i] == pytest.approx(scalar, rel=1e-12)

    def test_theorem1_homogeneous_equals_theorem2(self):
        envs = [[ArrivalEnvelope(0.05, 0.2)] * 4]
        sig, rho = pack_envelopes(envs)
        batch = batch_theorem1_wdb(sig, rho)
        assert batch[0] == pytest.approx(theorem2_wdb_homogeneous(4, 0.05, 0.2))

    def test_unstable_rows_are_infinite(self):
        envs = [
            [ArrivalEnvelope(0.1, 0.6), ArrivalEnvelope(0.1, 0.6)],
            [ArrivalEnvelope(0.1, 0.2)],
        ]
        sig, rho = pack_envelopes(envs)
        assert np.isinf(batch_theorem1_wdb(sig, rho)[0])
        assert np.isinf(batch_remark1_wdb(sig, rho)[0])
        assert np.isfinite(batch_theorem1_wdb(sig, rho)[1])

    def test_single_flow_at_capacity_does_not_warn(self):
        """K = 1 at rho = C, which ``sigma-rho`` admits: Theorem 1's
        excess terms form an all-NaN row.  Its reduction must not warn,
        and neither value moves (Theorem 1 is NaN there; the cell is
        judged on Remark 1 at the stability band's slack)."""
        cell = Scenario(
            name="k1-at-capacity", kinds=("cbr",), utilization=1.0,
            mode="sigma-rho",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wdb = batch_theorem1_wdb([[0.01]], [[1.0]])
            (outcome,) = run_batch([cell]).outcomes
        assert np.isnan(wdb[0])
        assert outcome.error is None and outcome.sound
        assert outcome.measured == 0.0020000000000000018
        assert outcome.bound == outcome.baseline_bound == 4000000000.001558

    def test_excess_reduction_equals_nanmax(self, rng):
        """The NaN-skipping reduction behind Theorem 1's excess term
        equals ``np.nanmax`` on NaN-padded rows, all-NaN rows included."""
        rows = rng.normal(size=(500, 6))
        rows[rng.random(rows.shape) < 0.4] = np.nan
        rows[::50] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = np.nanmax(rows, axis=1)
        assert np.array_equal(
            np.fmax.reduce(rows, axis=1), expected, equal_nan=True
        )

    def test_capacity_denormalisation(self):
        envs = [[ArrivalEnvelope(0.2, 0.8), ArrivalEnvelope(0.1, 0.6)]]
        sig, rho = pack_envelopes(envs)
        batch = batch_theorem1_wdb(sig, rho, capacity=np.array([2.0]))
        scalar = theorem1_wdb_heterogeneous([0.2, 0.1], [0.8, 0.6], capacity=2.0)
        assert batch[0] == pytest.approx(scalar, rel=1e-12)

    def test_batch_bounds_hop_scaling(self):
        envs = [[ArrivalEnvelope(0.05, 0.2)] * 3] * 2
        bounds, baselines = batch_bounds(
            envs, ["sigma-rho-lambda", "sigma-rho"],
            hops=[3, 1], propagation_total=[0.5, 0.0],
        )
        per_hop_t1 = theorem1_wdb_heterogeneous([0.05] * 3, [0.2] * 3)
        per_hop_r1 = remark1_wdb_heterogeneous([0.05] * 3, [0.2] * 3)
        assert bounds[0] == pytest.approx(3 * per_hop_t1 + 0.5)
        assert bounds[1] == pytest.approx(per_hop_r1)
        assert baselines[0] == pytest.approx(3 * per_hop_r1 + 0.5)

    def test_batch_bounds_rejects_unresolved_modes(self):
        envs = [[ArrivalEnvelope(0.05, 0.2)]]
        with pytest.raises(ValueError, match="resolved"):
            batch_bounds(envs, ["adaptive"])

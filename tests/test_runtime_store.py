"""The pluggable result store: keys, backends, resume, corruption, diffing.

The store is the campaign's memory: content-hashed keys make resume
and cross-campaign diffing order-independent, and a corrupt row (torn
JSONL write, hand-edited SQLite payload) must quarantine rather than
kill the next run.  The backend-parametrised classes here pin the
contract both backends share; concurrency-specific coverage lives in
``test_runtime_store_sqlite.py``.
"""

import dataclasses
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.runtime.campaign import outcome_record
from repro.runtime.store import (
    JsonlResultStore,
    ResultStore,
    cell_key,
    diff_records,
    diff_stores,
    open_store,
    spec_fingerprint,
)
from repro.runtime.store_sqlite import SqliteResultStore
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import Scenario

pytestmark = pytest.mark.runtime

BACKENDS = ("jsonl", "sqlite")


def _make_store(kind: str, root) -> ResultStore:
    return open_store(f"{kind}:{root}")


def _sc(**kw):
    base = dict(name="cell", kinds=("audio",) * 2, utilization=0.5, seed=3)
    base.update(kw)
    return Scenario(**base)


def _rec(key, *, sound=True, error=None, budget_ok=True, tightness=0.5):
    return {
        "key": key,
        "sound": sound,
        "error": error,
        "budget_ok": budget_ok,
        "tightness": tightness,
        "wall_time": 0.1,
    }


class TestKeys:
    def test_key_covers_every_field_including_seed(self):
        a, b = _sc(seed=1), _sc(seed=2)
        assert cell_key(a) != cell_key(b)
        assert cell_key(a) == cell_key(_sc(seed=1))

    def test_fingerprint_ignores_seed_only(self):
        assert spec_fingerprint(_sc(seed=1)) == spec_fingerprint(_sc(seed=2))
        assert spec_fingerprint(_sc(utilization=0.5)) != spec_fingerprint(
            _sc(utilization=0.6)
        )
        assert spec_fingerprint(_sc(name="a")) != spec_fingerprint(_sc(name="b"))

    def test_keys_are_short_hex(self):
        key = cell_key(_sc())
        assert len(key) == 16
        int(key, 16)  # parses as hex

    def test_verdict_knobs_never_rekey_or_reseed(self):
        """perf_budget moves the verdict threshold, not the measurement:
        changing it must not invalidate stored cells or reseed traces."""
        plain, budgeted = _sc(), _sc(perf_budget=60.0)
        assert cell_key(plain) == cell_key(budgeted)
        assert spec_fingerprint(plain) == spec_fingerprint(budgeted)

    def test_keys_and_stored_spec_are_pinned(self):
        """The shallow spec dict hashes and serialises exactly like
        ``dataclasses.asdict``: literal keys of a spec with tuple fields,
        and the stored spec's JSON."""
        sc = Scenario(
            name="pinned-chain", kinds=("audio", "video", "audio"),
            utilization=0.7, mode="sigma-rho", topology="chain", hops=3,
            backend="fluid", discipline="adversarial", horizon=1.5,
            dt=2e-3, seed=42, stagger_phase=0.25,
            start_offsets=(0.0, 0.1, 0.25), propagation=0.01,
            capacity=1.0, perf_budget=5.0, tags=("chain", "pinned"),
        )
        assert cell_key(sc) == "dac4f45bb2c353f6"
        assert spec_fingerprint(sc) == "ea0140fecd14f50b"
        outcome = run_scenario(replace(sc, horizon=0.3))
        rec = outcome_record(outcome)
        assert rec["key"] == cell_key(outcome.scenario)
        assert rec["fingerprint"] == spec_fingerprint(outcome.scenario)
        assert json.dumps(rec["spec"], sort_keys=True) == json.dumps(
            dataclasses.asdict(outcome.scenario), sort_keys=True
        )


class TestFactory:
    def test_base_class_dispatches_jsonl_default(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        assert isinstance(store, JsonlResultStore)
        assert store.kind == "jsonl"

    def test_url_schemes_force_backends(self, tmp_path):
        assert isinstance(
            open_store(f"jsonl:{tmp_path / 'j'}"), JsonlResultStore
        )
        assert isinstance(
            open_store(f"sqlite:{tmp_path / 's'}"), SqliteResultStore
        )
        assert isinstance(
            ResultStore(f"sqlite:{tmp_path / 's2'}"), SqliteResultStore
        )

    def test_bare_path_autodetects_existing_sqlite(self, tmp_path):
        sq = open_store(f"sqlite:{tmp_path / 'camp'}")
        sq.append(_rec("aa"))
        reopened = open_store(tmp_path / "camp")
        assert isinstance(reopened, SqliteResultStore)
        assert set(reopened.load()) == {"aa"}

    def test_instances_pass_through(self, tmp_path):
        store = open_store(tmp_path)
        assert open_store(store) is store

    def test_open_store_rejects_non_path_targets(self, tmp_path, monkeypatch):
        """Regression: a non-path object used to be str()-coerced into a
        literal '<... object at 0x...>' directory in the cwd."""
        monkeypatch.chdir(tmp_path)
        for bogus in (object(), 123, ["a"], None):
            with pytest.raises(TypeError, match="ResultStore instance"):
                open_store(bogus)
        assert list(tmp_path.iterdir()) == []  # nothing conjured

    def test_open_store_accepts_path_like_objects(self, tmp_path):
        """Anything implementing __fspath__ (py.path.local, custom
        path types) keeps working -- the guard targets stray objects,
        not the os.PathLike protocol."""

        class _FsPath:
            def __init__(self, p):
                self._p = str(p)

            def __fspath__(self):
                return self._p

        store = open_store(_FsPath(tmp_path / "pathlike"))
        assert isinstance(store, JsonlResultStore)
        assert store.root == tmp_path / "pathlike"
        assert isinstance(JsonlResultStore(_FsPath(tmp_path / "j2")).root, Path)

    def test_backend_constructors_reject_store_instances(
        self, tmp_path, monkeypatch
    ):
        """Passing a ResultStore where a root path is expected must fail
        loudly instead of mkdir-ing the instance's repr."""
        monkeypatch.chdir(tmp_path)
        store = open_store(tmp_path / "real")
        with pytest.raises(TypeError, match="open_store"):
            JsonlResultStore(store)
        with pytest.raises(TypeError, match="open_store"):
            SqliteResultStore(store)
        with pytest.raises(TypeError):
            JsonlResultStore(4.2)
        assert not any(
            "object at 0x" in p.name for p in tmp_path.iterdir()
        )

    def test_run_campaign_accepts_store_instance(self, tmp_path, monkeypatch):
        """run_campaign(store=<instance>) must use the instance as-is."""
        from repro.runtime import run_campaign
        from repro.scenarios import generate_scenarios

        monkeypatch.chdir(tmp_path)
        store = open_store(tmp_path / "inst")
        campaign = run_campaign(generate_scenarios(2, seed=3), store=store)
        assert campaign.store_records == 2
        assert len(store.load()) == 2
        assert not any(
            "object at 0x" in p.name for p in tmp_path.iterdir()
        )

    def test_base_class_requires_target(self):
        with pytest.raises(TypeError):
            ResultStore()

    def test_base_class_rejects_instances(self, tmp_path):
        """ResultStore(instance) would re-run the instance's __init__
        (type.__call__ semantics); open_store is the pass-through."""
        store = open_store(tmp_path)
        with pytest.raises(TypeError, match="open_store"):
            ResultStore(store)
        assert store.root == tmp_path  # untouched

    def test_must_exist_refuses_missing_stores(self, tmp_path):
        missing = tmp_path / "typo"
        with pytest.raises(FileNotFoundError):
            open_store(missing, must_exist=True)
        with pytest.raises(FileNotFoundError):
            open_store(f"sqlite:{missing}", must_exist=True)
        # And it must not have conjured the directory while checking.
        assert not missing.exists()
        # A real store (even an empty-but-initialised one) opens fine.
        open_store(tmp_path / "real").append(_rec("aa"))
        assert open_store(tmp_path / "real", must_exist=True).load()

    def test_must_exist_accepts_zero_record_shard_store(self, tmp_path):
        """A campaign that evaluated zero cells writes only
        summary.json; that store is real and must pass the reference
        check (report/diff/curate consumers see it)."""
        empty = open_store(tmp_path / "empty")
        empty.append_many([])           # no results file created...
        empty.write_summary()           # ...but the summary always is
        reopened = open_store(tmp_path / "empty", must_exist=True)
        assert reopened.load() == {}


@pytest.mark.parametrize("kind", BACKENDS)
class TestStoreRoundtrip:
    def test_append_load(self, kind, tmp_path):
        store = _make_store(kind, tmp_path / "camp")
        store.append(_rec("aa"))
        store.append(_rec("bb", sound=False))
        records = store.load()
        assert set(records) == {"aa", "bb"}
        assert records["bb"]["sound"] is False
        assert records["aa"]["v"] == 2

    def test_nonfinite_floats_survive(self, kind, tmp_path):
        store = _make_store(kind, tmp_path)
        store.append({"key": "inf", "bound": float("inf"), "measured": float("nan")})
        rec = store.load()["inf"]
        assert rec["bound"] == float("inf")
        assert rec["measured"] != rec["measured"]  # NaN

    def test_last_record_wins(self, kind, tmp_path):
        store = _make_store(kind, tmp_path)
        store.append(_rec("aa", sound=False))
        store.append(_rec("aa", sound=True))
        assert store.load()["aa"]["sound"] is True

    def test_append_many_batches(self, kind, tmp_path):
        store = _make_store(kind, tmp_path)
        store.append_many(_rec(f"k{i:02d}") for i in range(20))
        assert len(store.load()) == 20

    def test_keyless_record_rejected_on_write(self, kind, tmp_path):
        with pytest.raises(ValueError, match="key"):
            _make_store(kind, tmp_path).append({"sound": True})

    def test_missing_store_is_empty(self, kind, tmp_path):
        assert _make_store(kind, tmp_path / "fresh").load() == {}

    def test_completed_keys_skips_error_records(self, kind, tmp_path):
        store = _make_store(kind, tmp_path)
        store.append(_rec("ok"))
        store.append(_rec("boom", sound=False, error="Traceback ..."))
        assert store.completed_keys() == {"ok"}

    def test_backends_load_bit_identical_records(self, kind, tmp_path):
        """A record round-trips to the same dict through either backend."""
        recs = [
            _rec("aa", tightness=0.123456789),
            {"key": "bb", "bound": float("inf"), "measured": float("nan"),
             "tags": ["x"], "spec": {"name": "cell"}},
        ]
        store = _make_store(kind, tmp_path / kind)
        reference = JsonlResultStore(tmp_path / "ref")
        store.append_many(recs)
        reference.append_many(recs)
        loaded, ref = store.load(), reference.load()
        assert loaded["aa"] == ref["aa"]
        assert loaded["bb"]["bound"] == ref["bb"]["bound"]
        assert loaded["bb"]["tags"] == ref["bb"]["tags"]


class TestCorruption:
    def test_corrupt_lines_quarantined_not_fatal(self, tmp_path):
        store = JsonlResultStore(tmp_path)
        store.append(_rec("aa"))
        with store.results_path.open("a") as fh:
            fh.write("{torn json!!\n")           # unparseable
            fh.write('{"sound": true}\n')        # keyless
        store.append(_rec("bb"))
        records = store.load()
        assert set(records) == {"aa", "bb"}
        assert store.quarantined == 2
        quarantined = store.quarantine_path.read_text().splitlines()
        assert "{torn json!!" in quarantined
        # The rewritten results file is clean: a second load sees no rot.
        assert store.load() == records
        assert store.quarantined == 0


class TestSummary:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_summary_counts(self, kind, tmp_path):
        store = _make_store(kind, tmp_path)
        store.append(_rec("a", tightness=0.4))
        store.append(_rec("b", sound=False, tightness=1.2))
        store.append(_rec("c", sound=False, error="Traceback ...", tightness=0.0))
        store.append(_rec("d", budget_ok=False, tightness=0.7))
        summary = store.write_summary(extra={"campaign": "t"})
        assert summary["cells"] == 4
        assert summary["sound"] == 2
        assert summary["unsound"] == 1          # error cells counted apart
        assert summary["errors"] == 1
        assert summary["budget_violations"] == 1
        assert summary["max_tightness"] == pytest.approx(1.2)
        assert summary["campaign"] == "t"
        on_disk = json.loads(store.summary_path.read_text())
        assert on_disk == summary

    def test_summary_write_is_atomic_replace(self, tmp_path):
        """The summary lands via temp-file + os.replace, and the temp
        file never survives (concurrent campaign processes rewrite it)."""
        store = JsonlResultStore(tmp_path)
        store.append(_rec("a"))
        store.write_summary()
        leftovers = [
            p for p in tmp_path.iterdir() if p.name.endswith(".tmp")
        ]
        assert leftovers == []
        assert json.loads(store.summary_path.read_text())["cells"] == 1

    def test_summary_is_deterministic_across_backends(self, tmp_path):
        """Same records -> byte-identical summary.json, whichever backend
        holds them (no wall clocks or run-local state in the summary)."""
        recs = [_rec("a", tightness=0.25), _rec("b", sound=False)]
        files = []
        for kind in BACKENDS:
            store = _make_store(kind, tmp_path / kind)
            store.append_many(recs)
            store.write_summary()
            files.append(store.summary_path.read_bytes())
        assert files[0] == files[1]


class TestDiff:
    def test_newly_unsound_cell_is_a_regression(self):
        old = {"a": _rec("a"), "b": _rec("b")}
        new = {"a": _rec("a"), "b": _rec("b", sound=False)}
        diff = diff_records(old, new)
        assert diff.regressions == ("b",)
        assert not diff.clean
        assert any("REGRESSION b" in ln for ln in diff.summary_lines())

    def test_worker_error_is_a_regression_too(self):
        diff = diff_records(
            {"a": _rec("a")}, {"a": _rec("a", error="Traceback ...")}
        )
        assert diff.regressions == ("a",)

    def test_fixes_added_removed(self):
        old = {"a": _rec("a", sound=False), "gone": _rec("gone")}
        new = {"a": _rec("a"), "fresh": _rec("fresh")}
        diff = diff_records(old, new)
        assert diff.fixes == ("a",)
        assert diff.added == ("fresh",)
        assert diff.removed == ("gone",)
        assert diff.clean

    def test_budget_regression_flagged(self):
        diff = diff_records(
            {"a": _rec("a")}, {"a": _rec("a", budget_ok=False)}
        )
        assert diff.budget_regressions == ("a",)
        assert not diff.clean

    def test_strict_gate_fails_on_removed_cells(self):
        diff = diff_records({"a": _rec("a"), "gone": _rec("gone")},
                            {"a": _rec("a")})
        assert diff.clean                       # not a regression per se...
        assert diff.gate() and not diff.gate(strict=True)  # ...but coverage loss

    def test_to_dict_machine_readable(self):
        diff = diff_records({"a": _rec("a")}, {"a": _rec("a", sound=False)})
        payload = diff.to_dict()
        assert payload["clean"] is False
        assert payload["regressions"] == ["a"]
        json.dumps(payload)  # JSON-serialisable as-is

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_diff_stores_end_to_end(self, kind, tmp_path):
        old = _make_store(kind, tmp_path / "old")
        new = _make_store(kind, tmp_path / "new")
        old.append(_rec("a"))
        new.append(_rec("a", sound=False))
        diff = diff_stores(f"{kind}:{tmp_path / 'old'}",
                           f"{kind}:{tmp_path / 'new'}")
        assert diff.regressions == ("a",)

    def test_diff_across_backends(self, tmp_path):
        """The diff is over records, so backends may differ freely."""
        JsonlResultStore(tmp_path / "old").append(_rec("a"))
        sq = _make_store("sqlite", tmp_path / "new")
        sq.append(_rec("a", budget_ok=False))
        diff = diff_stores(tmp_path / "old", f"sqlite:{tmp_path / 'new'}")
        assert diff.budget_regressions == ("a",)

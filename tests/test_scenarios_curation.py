"""Store-driven corpus curation: spec round-trips and promotion.

The curation loop (ROADMAP open item): campaign stores record each
cell's tightness plus (v2) its full spec, so cells that push measured
delay close to the analytic bound can be promoted into a re-runnable
curated corpus without the generating code.
"""

import dataclasses
import json

import pytest

from repro.runtime import cell_key, outcome_record, run_campaign
from repro.scenarios import (
    curate_records,
    generate_scenarios,
    load_curated,
    run_batch,
    save_curated,
    scenario_from_dict,
)

pytestmark = pytest.mark.runtime


def _record(name="cell", *, tightness=0.95, sound=True, error=None, spec=True):
    sc = generate_scenarios(1, seed=41)[0]
    sc = dataclasses.replace(sc, name=name)
    rec = {
        "key": name,
        "name": name,
        "sound": sound,
        "error": error,
        "tightness": tightness,
    }
    if spec:
        rec["spec"] = dataclasses.asdict(sc)
    return rec


class TestSpecRoundtrip:
    def test_asdict_roundtrips_through_json_types(self):
        for sc in generate_scenarios(6, seed=13):
            payload = dataclasses.asdict(sc)
            # JSON turns tuples into lists; simulate that wire format.
            for field in ("kinds", "start_offsets", "tags"):
                payload[field] = list(payload[field])
            assert scenario_from_dict(payload) == sc

    def test_unknown_keys_rejected(self):
        payload = dataclasses.asdict(generate_scenarios(1, seed=13)[0])
        payload["frobnicate"] = True
        with pytest.raises(ValueError, match="frobnicate"):
            scenario_from_dict(payload)

    def test_validation_still_runs(self):
        payload = dataclasses.asdict(generate_scenarios(1, seed=13)[0])
        payload["mode"] = "nonsense"
        with pytest.raises(ValueError, match="mode"):
            scenario_from_dict(payload)


class TestCurateRecords:
    def test_promotes_tight_cells_tightest_first(self):
        records = [
            _record("loose", tightness=0.2),
            _record("tight", tightness=0.97),
            _record("tighter", tightness=0.99),
        ]
        promoted = curate_records(records, min_tightness=0.9)
        assert [sc.name for sc in promoted] == ["tighter", "tight"]

    def test_promoted_specs_keep_their_cell_keys(self):
        """Promotion must not decorate the spec: a curated cell has to
        resume/diff in alignment with the store it came from."""
        rec = _record("tight", tightness=0.97)
        (promoted,) = curate_records([rec], min_tightness=0.9)
        assert cell_key(promoted) == cell_key(rec["spec"])

    def test_never_promotes_unsound_error_or_specless_cells(self):
        records = [
            _record("unsound", sound=False, tightness=1.5),
            _record("crashed", error="Traceback ...", tightness=0.99),
            _record("v1-record", tightness=0.99, spec=False),
            _record("nan", tightness=float("nan")),
            _record("good", tightness=0.95),
        ]
        promoted = curate_records(records, min_tightness=0.9)
        assert [sc.name for sc in promoted] == ["good"]

    def test_limit_and_dedup(self):
        records = [
            _record("a", tightness=0.99),
            _record("a", tightness=0.98),  # duplicate name: first wins
            _record("b", tightness=0.95),
            _record("c", tightness=0.94),
        ]
        promoted = curate_records(records, min_tightness=0.9, limit=2)
        assert [sc.name for sc in promoted] == ["a", "b"]

    def test_malformed_spec_skipped_not_raised(self):
        bad = _record("bad", tightness=0.99)
        bad["spec"]["mode"] = "nonsense"
        promoted = curate_records([bad, _record("ok", tightness=0.95)])
        assert [sc.name for sc in promoted] == ["ok"]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            curate_records([], min_tightness=0.0)
        with pytest.raises(ValueError):
            curate_records([], limit=0)


class TestCuratedCorpusFile:
    def test_save_load_roundtrip(self, tmp_path):
        scenarios = generate_scenarios(4, seed=17)
        path = save_curated(scenarios, tmp_path / "corpus.json")
        assert load_curated(path) == tuple(scenarios)

    def test_malformed_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="scenarios"):
            load_curated(path)
        # The retired per-packet *_legacy backends are rejected at the
        # boundary with the one-line backend error, by the loader and
        # by `scenarios run --corpus` alike.
        from repro.experiments.cli import main

        for backend in ("des", "tree_des"):
            payload = json.loads(
                save_curated(generate_scenarios(1, seed=17), path).read_text()
            )
            payload["scenarios"][0]["backend"] = f"{backend}_legacy"
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match="backend must be one of"):
                load_curated(path)
            with pytest.raises(SystemExit) as exit_info:
                main(["scenarios", "run", "--no-corpus", "--count", "0",
                      "--corpus", str(path)])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err.strip().splitlines()[-1]
            assert "backend must be one of" in err
            assert f"got '{backend}_legacy'" in err


class TestEndToEnd:
    def test_store_to_corpus_to_rerun(self, tmp_path):
        """Sweep -> promote from the store -> re-run the promoted cells."""
        matrix = generate_scenarios(8, seed=23, horizon=0.5)
        run_campaign(matrix, store=tmp_path / "camp")
        from repro.runtime import open_store

        records = open_store(tmp_path / "camp").load().values()
        promoted = curate_records(records, min_tightness=0.05, limit=3)
        assert promoted  # this matrix always has cells above 0.05
        path = save_curated(promoted, tmp_path / "corpus.json")
        rerun = run_batch(load_curated(path))
        assert not rerun.violations
        # Promoted specs re-realise bit-identically: same measurement.
        by_key = {rec["name"]: rec for rec in records}
        for outcome in rerun.outcomes:
            assert outcome.measured == by_key[outcome.scenario.name]["measured"]

    def test_outcome_record_spec_rebuilds_the_cell(self):
        sc = generate_scenarios(1, seed=29, horizon=0.5)[0]
        rec = outcome_record(run_batch([sc]).outcomes[0])
        assert scenario_from_dict(rec["spec"]) == sc

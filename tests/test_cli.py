"""The repro-experiments command-line interface."""

import pytest

from repro.experiments.cli import EXPERIMENTS, main
from repro.runtime import ProcessExecutor


def test_theory_runs(capsys):
    assert main(["theory"]) == 0
    out = capsys.readouterr().out
    assert "Rate thresholds" in out
    assert "0.73" in out and "0.79" in out


def test_fig4_quick(capsys):
    assert main(["fig4a", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4(a)" in out
    assert "crossover" in out


def test_table_quick(capsys):
    assert main(["table3", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out
    assert "Capacity-aware DSCT" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig9z"])


def test_experiment_registry_complete():
    for name in ("fig4a", "fig6c", "table1", "theory", "validate", "all"):
        assert name in EXPERIMENTS


def test_validate_quick(capsys):
    assert main(["validate", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Measured vs analytic" in out
    assert "unsound cells: 0" in out


class TestScenariosSubcommand:
    def test_list_shows_corpus(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "Registered scenarios" in out
        assert "sync-burst-video" in out
        assert "heavy-band-k3-n2" in out

    def test_list_tag_filter(self, capsys):
        assert main(["scenarios", "list", "--tag", "heavy-band"]) == 0
        out = capsys.readouterr().out
        assert "heavy-band-k2-n2" in out
        assert "sync-burst-video" not in out

    def test_run_small_matrix_reports_soundness(self, capsys):
        assert main(
            ["scenarios", "run", "--count", "6", "--seed", "3", "--no-corpus"]
        ) == 0
        out = capsys.readouterr().out
        assert "scenarios evaluated: 6" in out
        assert "soundness violations: 0" in out
        assert "scenarios/s" in out

    def test_run_verbose_prints_cells(self, capsys):
        assert main(
            ["scenarios", "run", "--count", "3", "--seed", "3",
             "--no-corpus", "--verbose"]
        ) == 0
        out = capsys.readouterr().out
        assert "Scenario matrix cross-validation" in out
        assert "gen-3-0000" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["frobnicate"],
            # Retired surfaces: the process pool (--jobs) and the lease
            # coordinator (--coordinator, 'scenarios work') replace them.
            ["run", "--count", "1", "--no-corpus", "--shard", "1/2"],
            ["run", "--count", "1", "--no-corpus", "--executor", "thread"],
            ["merge", "DIR"],
            # Cost-aware scheduling is always on; outcomes never
            # depended on it.
            ["run", "--count", "1", "--no-corpus", "--no-cost-model"],
        ],
        ids=[
            "frobnicate", "run-shard", "run-executor", "merge",
            "run-no-cost-model",
        ],
    )
    def test_bad_subcommand_rejected(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # nothing may land in the checkout
        with pytest.raises(SystemExit) as exc:
            main(["scenarios", *argv])
        assert exc.value.code == 2  # argparse usage error, no traceback


class TestScenariosRuntime:
    """The parallel-runtime flags: --jobs/--store/--resume/--campaign/diff."""

    pytestmark = pytest.mark.runtime

    def test_run_parallel_jobs(self, capsys, monkeypatch):
        import repro.runtime as runtime

        executors = []
        real_run_campaign = runtime.run_campaign

        def spy(scenarios, **kwargs):
            executors.append(kwargs["executor"])
            return real_run_campaign(scenarios, **kwargs)

        monkeypatch.setattr(runtime, "run_campaign", spy)
        assert main(
            ["scenarios", "run", "--count", "8", "--seed", "3",
             "--no-corpus", "--jobs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "scenarios evaluated: 8" in out
        assert "soundness violations: 0" in out
        assert main(
            ["scenarios", "run", "--count", "2", "--seed", "3",
             "--no-corpus", "--jobs", "1"]
        ) == 0
        # --jobs N > 1 is the process pool; --jobs 1 stays in process.
        pool, serial = executors
        assert type(pool) is ProcessExecutor and pool.jobs == 2
        assert serial is None

    def test_store_and_resume_evaluate_zero_new_cells(self, capsys, tmp_path):
        store = str(tmp_path / "camp")
        argv = ["scenarios", "run", "--count", "6", "--seed", "3",
                "--no-corpus", "--store", store]
        assert main(argv) == 0
        assert "scenarios evaluated: 6" in capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "cells skipped (already in store): 6" in out
        assert "scenarios evaluated: 0" in out

    def test_campaign_config_file(self, capsys, tmp_path):
        config = tmp_path / "c.json"
        config.write_text('{"count": 5, "seed": 9, "max_k": 7, "max_hops": 4}')
        assert main(
            ["scenarios", "run", "--campaign", str(config), "--jobs", "2"]
        ) == 0
        assert "scenarios evaluated: 5" in capsys.readouterr().out

    def test_diff_clean_campaigns(self, capsys, tmp_path):
        store = str(tmp_path / "camp")
        argv = ["scenarios", "run", "--count", "4", "--seed", "5",
                "--no-corpus", "--store", store]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["scenarios", "diff", store, store]) == 0
        out = capsys.readouterr().out
        assert "soundness regressions: 0" in out

    def test_diff_flags_regression(self, capsys, tmp_path):
        from repro.runtime import ResultStore

        old, new = tmp_path / "old", tmp_path / "new"
        ResultStore(old).append({"key": "aa", "sound": True})
        ResultStore(new).append({"key": "aa", "sound": False})
        assert main(["scenarios", "diff", str(old), str(new)]) == 1
        assert "REGRESSION aa" in capsys.readouterr().out

    def test_resume_without_store_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenarios", "run", "--count", "2", "--resume"])

    def test_sqlite_store_url(self, capsys, tmp_path):
        store = f"sqlite:{tmp_path / 'camp'}"
        argv = ["scenarios", "run", "--count", "4", "--seed", "3",
                "--no-corpus", "--store", store]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[sqlite]" in out and "4 records" in out
        assert (tmp_path / "camp" / "results.sqlite").exists()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "cells skipped (already in store): 4" in out

    def test_bad_shard_rejected(self):
        # --shard is retired: old invocations stop with a usage error.
        for spec in ("0/2", "junk"):
            with pytest.raises(SystemExit) as exc:
                main(["scenarios", "run", "--count", "2", "--shard", spec])
            assert exc.value.code == 2

    def test_baseline_gate_passes_and_fails(self, capsys, tmp_path):
        base = ["scenarios", "run", "--count", "4", "--seed", "5",
                "--no-corpus"]
        assert main(base + ["--store", str(tmp_path / "pinned")]) == 0
        capsys.readouterr()
        # Same matrix against the pinned baseline: gate passes.
        assert main(
            base + ["--store", str(tmp_path / "cand"),
                    "--baseline", str(tmp_path / "pinned")]
        ) == 0
        assert "Baseline gate" in capsys.readouterr().out
        # Poison the candidate store: gate fails even though the run
        # itself was clean.
        from repro.runtime import open_store

        cand = open_store(tmp_path / "cand2")
        pinned = open_store(tmp_path / "pinned")
        for key, rec in pinned.load().items():
            cand.append({**rec, "sound": False})
        assert main(
            ["scenarios", "run", "--count", "1", "--seed", "5", "--no-corpus",
             "--store", str(tmp_path / "cand2"),
             "--baseline", str(tmp_path / "pinned")]
        ) == 1

    def test_baseline_requires_store(self):
        with pytest.raises(SystemExit):
            main(["scenarios", "run", "--count", "2",
                  "--baseline", "somewhere"])

    def test_typoed_reference_stores_fail_loudly(self, tmp_path):
        """A missing baseline/diff/curate store must error, never pass
        the gate by comparing against a conjured empty store."""
        from repro.runtime import ResultStore

        real = tmp_path / "real"
        ResultStore(real).append({"key": "aa", "sound": True})
        typo = str(tmp_path / "pined")
        with pytest.raises(SystemExit):
            main(["scenarios", "diff", typo, str(real)])
        with pytest.raises(SystemExit):
            main(["scenarios", "diff", str(real), typo])
        with pytest.raises(SystemExit):
            main(["scenarios", "curate", typo])
        with pytest.raises(SystemExit):
            # Fails before the campaign runs, not after.
            main(["scenarios", "run", "--count", "2", "--no-corpus",
                  "--store", str(tmp_path / "cand"), "--baseline", typo])
        assert not (tmp_path / "pined").exists()  # no conjured store

    def test_shard_extra_segments_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["scenarios", "run", "--count", "2", "--shard", "1/2/3"])
        assert exc.value.code == 2

    def test_missing_corpus_file_fails_cleanly(self):
        with pytest.raises(SystemExit):
            main(["scenarios", "run", "--count", "0", "--no-corpus",
                  "--corpus", "no-such-corpus.json"])

    def test_budget_applies_to_corpus_cells(self, capsys, tmp_path):
        store = str(tmp_path / "camp")
        assert main(
            ["scenarios", "run", "--count", "3", "--seed", "3",
             "--no-corpus", "--store", store]
        ) == 0
        capsys.readouterr()
        corpus = tmp_path / "curated.json"
        assert main(
            ["scenarios", "curate", store, "--min-tightness", "0.05",
             "--limit", "2", "--out", str(corpus)]
        ) == 0
        capsys.readouterr()
        # An impossible budget must verdict the curated cells too.
        assert main(
            ["scenarios", "run", "--count", "0", "--no-corpus",
             "--corpus", str(corpus), "--budget", "1e-9"]
        ) == 1
        assert "perf-budget violations: 2" in capsys.readouterr().out

    def test_diff_strict_flags_removed_cells(self, capsys, tmp_path):
        from repro.runtime import ResultStore

        old, new = tmp_path / "old", tmp_path / "new"
        ResultStore(old).append({"key": "aa", "sound": True})
        ResultStore(old).append({"key": "gone", "sound": True})
        ResultStore(new).append({"key": "aa", "sound": True})
        assert main(["scenarios", "diff", str(old), str(new)]) == 0
        capsys.readouterr()
        assert main(["scenarios", "diff", str(old), str(new), "--strict"]) == 1
        assert "baseline cells missing" in capsys.readouterr().out

    def test_diff_json_output(self, capsys, tmp_path):
        import json

        from repro.runtime import ResultStore

        old, new = tmp_path / "old", tmp_path / "new"
        ResultStore(old).append({"key": "aa", "sound": True})
        ResultStore(new).append({"key": "aa", "sound": False})
        report = tmp_path / "diff.json"
        assert main(
            ["scenarios", "diff", str(old), str(new), "--json", str(report)]
        ) == 1
        payload = json.loads(report.read_text())
        assert payload["regressions"] == ["aa"]

    def test_curate_promotes_and_reruns(self, capsys, tmp_path):
        store = str(tmp_path / "camp")
        assert main(
            ["scenarios", "run", "--count", "6", "--seed", "3",
             "--no-corpus", "--store", store]
        ) == 0
        capsys.readouterr()
        corpus = tmp_path / "curated.json"
        assert main(
            ["scenarios", "curate", store, "--min-tightness", "0.05",
             "--limit", "2", "--out", str(corpus)]
        ) == 0
        out = capsys.readouterr().out
        assert "promoted 2 cells" in out
        assert corpus.exists()
        # The promoted corpus feeds straight back into a run.
        assert main(
            ["scenarios", "run", "--count", "0", "--no-corpus",
             "--corpus", str(corpus)]
        ) == 0
        assert "scenarios evaluated: 2" in capsys.readouterr().out

    def test_budget_flag_flags_slow_cells(self, capsys):
        assert main(
            ["scenarios", "run", "--count", "3", "--seed", "3",
             "--no-corpus", "--budget", "1e-9"]
        ) == 1
        out = capsys.readouterr().out
        assert "perf-budget violations: 3" in out

    def test_bad_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenarios", "run", "--count", "2", "--jobs", "0"])


class TestDegradedStores:
    """report/diff on poison-only or partial stores: one useful line,
    correct exit code, never a traceback."""

    pytestmark = pytest.mark.runtime

    @staticmethod
    def _poison_only_store(root):
        from repro.runtime import open_store

        st = open_store(f"jsonl:{root}")
        st.append_poison(
            [{"key": "dead", "name": "cell-x", "attempts": 3,
              "error_head": "boom", "worker": "w1"}]
        )
        st.close()
        return str(root)

    def test_report_on_poison_only_store(self, capsys, tmp_path):
        store = self._poison_only_store(tmp_path / "camp")
        assert main(["scenarios", "report", store]) == 0
        out = capsys.readouterr().out
        assert "Poison channel" in out
        assert "cell-x" in out and "boom" in out
        assert "store holds 1 poison diagnoses and 0 partial" in out

    def test_report_on_partial_error_store(self, capsys, tmp_path):
        from repro.runtime import open_store

        st = open_store(f"sqlite:{tmp_path / 'camp'}")
        st.append({"key": "k1", "error": "Traceback: ..."})
        st.close()
        assert main(["scenarios", "report", f"sqlite:{tmp_path / 'camp'}"]) == 0
        out = capsys.readouterr().out
        assert "0 poison diagnoses and 1 partial (error) records" in out

    def test_report_on_store_without_telemetry_still_fails(
        self, capsys, tmp_path
    ):
        from repro.runtime import open_store

        st = open_store(f"jsonl:{tmp_path / 'camp'}")
        st.append({"key": "k1", "sound": True})
        st.close()
        assert main(["scenarios", "report", str(tmp_path / "camp")]) == 1
        assert "no telemetry records" in capsys.readouterr().out

    def test_diff_notes_empty_sides(self, capsys, tmp_path):
        from repro.runtime import open_store

        empty = self._poison_only_store(tmp_path / "old")
        st = open_store(f"jsonl:{tmp_path / 'new'}")
        st.append({"key": "k1", "sound": True})
        st.close()
        assert main(["scenarios", "diff", empty, str(tmp_path / "new")]) == 0
        out = capsys.readouterr().out
        assert f"note: {empty} has no result records (1 poison diagnoses)" in out
        assert "note: " + str(tmp_path / "new") not in out

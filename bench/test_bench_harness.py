"""Fast checks of the campaign benchmark harness (not a benchmark run)."""

from __future__ import annotations

import json
import math
import statistics

import pytest

import repro.runtime
from bench import run, stats, trace, workloads
from repro.runtime import ProcessExecutor, open_store, run_campaign
from repro.runtime import campaign as campaign_mod
from repro.scenarios import cellmatrix

SPEC = json.loads(run.SPEC_PATH.read_text())


# -- spans and self time ------------------------------------------------
def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        ["root", 0.0, 10.0, None, "r", None],
        ["a", 1.0, 4.0, 0, "r", None],
        ["b", 3.0, 6.0, 0, "r", None],  # overlaps a: union is [1, 6]
        ["c", 8.0, 9.0, 0, "r", None],
        ["a.1", 1.5, 2.0, 1, "r", None],  # grandchild: only a's business
        ["late", 9.5, 12.0, 0, "r", None],  # clipped to the parent
    ]
    own = trace.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0 - 0.5)
    assert own[1] == pytest.approx(2.5)
    assert own[4] == pytest.approx(0.5)


def test_covered_merges_and_clips():
    assert trace.covered([], 0, 1) == 0.0
    assert trace.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert trace.covered([(-5, 0.5), (0.25, 0.75)], 0, 1) == pytest.approx(0.75)


def test_tracer_restores_every_entry_point():
    originals = {
        "run_campaign": repro.runtime.run_campaign,
        "run_batch": campaign_mod.run_batch,
        "evaluate_grouped": cellmatrix.evaluate_grouped,
    }
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert campaign_mod.run_batch is not originals["run_batch"]
        assert "map_tasks" in vars(ProcessExecutor)
    finally:
        tracer.uninstall()
    assert campaign_mod.run_batch is originals["run_batch"]
    assert cellmatrix.evaluate_grouped is originals["evaluate_grouped"]
    assert repro.runtime.run_campaign is originals["run_campaign"]
    # Inherited methods are shadowed only while traced.
    assert "map_tasks" not in vars(ProcessExecutor)


def test_traced_run_reports_every_declared_layer_metric(tmp_path):
    cells = workloads.build_matrix("thousand", 2006, size=16)
    store = str(tmp_path / "st")
    tracer = trace.Tracer()
    tracer.install()
    try:
        workloads.run_workload("serial", cells, store)
    finally:
        tracer.uninstall()
    root = next(i for i, s in enumerate(tracer.spans) if s[0] == "campaign")
    layers = trace.layer_metrics(
        tracer.spans, root, open_store(store).load_telemetry()
    )
    harness_side = {"import_s", "generator.build_s", "trace_overhead_frac"}
    declared = {m["name"] for m in SPEC["per_layer"]} - harness_side
    assert declared == set(layers)
    assert layers["cellmatrix.grouped_cells"] + layers["cellmatrix.fallback_cells"] == 16
    assert layers["runner.evaluate_cell_calls"] == layers["cellmatrix.fallback_cells"]
    assert layers["span_coverage"] >= 0.9


# -- order statistics ---------------------------------------------------
def test_summarise_matches_statistics_quantiles():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    s = stats.summarise(xs)
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (3.5, q1, q3, 6)
    one = stats.summarise([7.0])
    assert one["q1"] == one["q3"] == one["median"] == 7.0
    with pytest.raises(ValueError):
        stats.summarise([])


def test_percentile_interpolates_between_ranks():
    xs = list(range(11))  # 0..10
    assert stats.percentile(xs, 50) == 5
    assert stats.percentile(xs, 90) == 9
    assert stats.percentile([1.0, 2.0], 50) == 1.5
    assert stats.percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# -- compare verdicts ---------------------------------------------------
@pytest.mark.parametrize(
    "base, new, better, expected",
    [
        ([100, 101, 99, 100, 100], [120, 121, 119, 120, 120], "higher", "better"),
        ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], "higher", "worse"),
        ([100, 101, 99, 100, 100], [102, 101, 103, 100, 102], "higher", "unchanged"),
        ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], "lower", "worse"),
        # The base's own spread (~60%) exceeds the 10% bound ...
        ([50, 100, 150, 80, 130], [60, 110, 140, 90, 120], "higher", "unresolved"),
        # ... unless every run of one side beats every run of the other.
        ([50, 100, 150, 80, 130], [200, 210, 220, 205, 215], "higher", "better"),
    ],
)
def test_compare_verdicts(base, new, better, expected):
    row = stats.verdict(base, new, better, 0.1)
    assert row["verdict"] == expected
    assert row["ratio"] == pytest.approx(row["new"]["median"] / row["base"]["median"])


def test_compare_mode_prints_one_row_per_workload_and_metric(tmp_path, capsys):
    def record(cps, failed=0.0):
        runs = [
            {"cells_per_s": c, "setup_s": 1.0, "cpu_ms_per_cell": 5.0,
             "peak_rss_mb": 100.0, "failed_frac": failed}
            for c in cps
        ]
        return {"workloads": {"thousand": {"runs": runs}, "des": {"runs": runs}}}

    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(record([100, 101, 99, 100])))
    new.write_text(json.dumps(record([150, 151, 149, 150], failed=0.5)))
    assert run.main(["--compare", str(base), str(new)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    verdicts = {(r[0], r[1]): r[-1] for r in rows}
    assert len(verdicts) == 2 * 5
    assert verdicts[("thousand", "cells_per_s")] == "better"
    assert verdicts[("des", "setup_s")] == "unchanged"
    assert verdicts[("des", "failed_frac")] == "worse"


def test_compare_zero_base_any_increase_is_worse():
    assert stats.verdict([0, 0, 0], [0, 0.001, 0], "lower", 0.0)["verdict"] == "unchanged"
    assert stats.verdict([0, 0, 0], [0.01, 0.01, 0.02], "lower", 0.0)["verdict"] == "worse"
    assert stats.verdict([0, 0, 0], [0, 0, 0], "lower", 0.0)["ratio"] is None


# -- correctness checks -------------------------------------------------
def test_results_digest_equal_across_jsonl_and_sqlite(tmp_path):
    cells = workloads.build_matrix("thousand", 2006, size=16)
    res = run_campaign(cells, store=f"jsonl:{tmp_path / 'j'}")
    run_campaign(cells, store=f"sqlite:{tmp_path / 's'}")
    j = open_store(tmp_path / "j").load()
    s = open_store(tmp_path / "s").load()
    assert workloads.results_digest(j) == workloads.results_digest(s)
    assert workloads.outcomes_digest(res.report.outcomes) == workloads.results_digest(j)
    # A last-bit change of one verdict field moves the digest.
    key = sorted(j)[0]
    j[key] = dict(j[key], bound=math.nextafter(j[key]["bound"], math.inf))
    assert workloads.results_digest(j) != workloads.results_digest(s)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_executor_on_a_16_cell_matrix(name, tmp_path):
    w = workloads.WORKLOADS[name]
    cells = workloads.build_matrix(w.matrix, w.default_seed, size=16)
    assert len(cells) == 16
    store = f"{w.store_scheme}{tmp_path / 'st'}"
    workloads.run_workload(w.executor, cells, store)
    check = workloads.check_records(cells, open_store(store).load())
    assert check["records"] == 16
    assert check["unsound"] == check["errors"] == check["missing"] == 0
    assert run.rep_failures({"check": check}) == []


def test_seed_changes_traffic_but_not_matrix_shape():
    a = workloads.build_matrix("des", 11, size=16)
    b = workloads.build_matrix("des", 7, size=16)
    shape = lambda sc: (sc.name, sc.kinds, sc.topology, sc.backend, sc.discipline)  # noqa: E731
    assert [shape(sc) for sc in a] == [shape(sc) for sc in b]
    assert [sc.seed for sc in a] != [sc.seed for sc in b]
    assert sum(sc.discipline == "fifo" for sc in a) == 4


def test_cross_checks_tolerate_last_bit_bounds_for_coord2_only():
    base = {"k": [0.5, 1.0, 2.0, 0.01, True]}
    nudged = {"k": [0.5, 1.0 + 2e-16, 2.0, 0.01, True]}
    assert run._cross_checks({"thousand": base, "jobs2": dict(base), "coord2": nudged}) == (
        {},
        {"jobs2_bit_identical": True, "coord2_bit_identical": False},
    )
    problems, _ = run._cross_checks({"thousand": base, "jobs2": nudged})
    assert problems == {"jobs2": ["jobs2 results differ from thousand"]}
    flipped = {"k": [0.5, 1.0, 2.0, 0.01, False]}
    problems, _ = run._cross_checks({"thousand": base, "coord2": flipped})
    assert list(problems) == ["coord2"]


def test_failed_count_adds_bad_cells_and_failed_round_trips():
    ok = {"requested": 4, "records": 4, "missing": 0, "unsound": 0, "errors": 0}
    bad = dict(ok, records=3, missing=1, unsound=1, roundtrip_ok=False)
    assert run.failed_count([{"check": ok}]) == 0
    assert run.failed_count([{"check": ok}, {"check": bad}]) == 3
    assert run.rep_failures({"check": bad}) == [
        "1 unsound", "1 missing", "store round trip changed a verdict field",
    ]


def test_digest_failures_flag_disagreement_and_pin_mismatch():
    rec = lambda d, seed=2006: {"workload": "thousand", "seed": seed, "check": {"digest": d}}  # noqa: E731
    pins = {"digests": {"thousand": {"seed": 2006, "digest": "aa"}}}
    assert run.digest_failures([rec("aa"), rec("aa")], pins) == []
    assert len(run.digest_failures([rec("aa"), rec("bb")], pins)) == 2
    assert run.digest_failures([rec("cc", seed=7)], pins) == []


def test_every_workload_has_a_pinned_digest():
    pins = run.load_pins()["digests"]
    for name, w in workloads.WORKLOADS.items():
        assert pins[name]["seed"] == w.default_seed
        assert len(pins[name]["digest"]) == 64
    assert pins["jobs2"]["digest"] == pins["thousand"]["digest"]


def test_spec_names_exactly_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        "cells_per_s", "setup_s", "cpu_ms_per_cell", "peak_rss_mb",
    ]


def test_harness_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "des", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""

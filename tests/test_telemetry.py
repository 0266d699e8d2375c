"""Campaign telemetry: collection, persistence, and the report/trace lenses.

Telemetry is an observability side-channel with one hard contract: it
must never change a verdict.  The tests here pin that contract from
every direction -- serial/parallel/grouped runs stay bit-identical with
collection on and off, ``summary.json`` is byte-identical either way --
and then exercise the channel itself: worker-side records pickle across
the process executor, both store backends round-trip the telemetry
table/file, ``scenarios report`` renders every section, and ``--trace``
emits loadable Chrome trace-event JSON.
"""

import dataclasses
import json
import pickle
import shutil

import pytest

from repro.experiments.cli import main
from repro.runtime import (
    CellTelemetry,
    JsonlResultStore,
    ProcessExecutor,
    ResultStore,
    SerialExecutor,
    SqliteResultStore,
    chrome_trace_events,
    set_telemetry_enabled,
    telemetry_enabled,
)
from repro.runtime import telemetry as tele
from repro.runtime.cost import CellCostModel
from repro.scenarios import generate_scenarios, run_batch
from repro.scenarios.cellmatrix import evaluate_grouped
from repro.scenarios.corpus import save_curated
from repro.scenarios.spec import Scenario

pytestmark = pytest.mark.runtime


@pytest.fixture
def telemetry_on():
    """Force collection on for a test, restoring the prior state."""
    was = telemetry_enabled()
    set_telemetry_enabled(True)
    yield
    set_telemetry_enabled(was)


@pytest.fixture
def telemetry_off():
    was = telemetry_enabled()
    set_telemetry_enabled(False)
    yield
    set_telemetry_enabled(was)


def _normalised(outcomes):
    """Outcomes with the only legitimately run-dependent compared field
    (wall_time) zeroed, so cross-run comparisons check verdict bits."""
    return [dataclasses.replace(o, wall_time=0.0) for o in outcomes]


# ----------------------------------------------------------------------
# The contract: telemetry never changes a verdict
# ----------------------------------------------------------------------
class TestVerdictInvariance:
    def test_serial_parallel_grouped_identical_on_and_off(self):
        scenarios = generate_scenarios(16, seed=11)
        runs = {}
        was = telemetry_enabled()
        try:
            for flag in (True, False):
                set_telemetry_enabled(flag)
                runs[flag, "parallel"] = run_batch(
                    scenarios, executor=ProcessExecutor(jobs=2)
                )
                runs[flag, "grouped"] = run_batch(
                    scenarios, executor=SerialExecutor()
                )
        finally:
            set_telemetry_enabled(was)
        reference = _normalised(runs[True, "parallel"].outcomes)
        for key, report in runs.items():
            assert _normalised(report.outcomes) == reference, key

    def test_cell_results_identical_with_and_without_collection(self):
        scenarios = generate_scenarios(8, seed=3)
        was = telemetry_enabled()
        try:
            set_telemetry_enabled(True)
            on = evaluate_grouped(scenarios)
            set_telemetry_enabled(False)
            off = evaluate_grouped(scenarios)
        finally:
            set_telemetry_enabled(was)
        for a, b in zip(on, off):
            assert a.value == b.value
            assert a.error == b.error
        assert all(t.telemetry is not None for t in on)
        assert all(t.telemetry is None for t in off)


# ----------------------------------------------------------------------
# Collection primitives
# ----------------------------------------------------------------------
class TestCollection:
    def test_begin_end_span_counter(self, telemetry_on):
        cell = tele.begin_cell("t-cell")
        assert cell is not None and tele.active_cell() is cell
        with tele.span("work"):
            tele.counter_add("widgets", 3)
            tele.extra_set("note", "hi")
        tele.end_cell(cell)
        assert tele.active_cell() is None
        assert cell.dur > 0.0
        assert cell.phases["work"] > 0.0
        assert cell.spans[0][0] == "work"
        assert cell.counters == {"widgets": 3}
        assert cell.extra == {"note": "hi"}

    def test_disabled_collection_is_inert(self, telemetry_off):
        assert tele.begin_cell("t-off") is None
        with tele.span("ignored"):
            tele.counter_add("ignored")
        tele.end_cell(None)  # must not raise
        assert tele.active_cell() is None

    def test_instrumentation_without_active_cell_is_noop(self, telemetry_on):
        # Library code calls span/counter_add unconditionally; outside a
        # begin/end window they must cost nothing and record nothing.
        with tele.span("orphan"):
            tele.counter_add("orphan")
            tele.extra_set("orphan", 1)
        assert tele.active_cell() is None

    def test_telemetry_pickles(self, telemetry_on):
        cell = tele.begin_cell("t-pickle")
        with tele.span("phase"):
            tele.counter_add("n", 2)
        tele.end_cell(cell)
        clone = pickle.loads(pickle.dumps(cell))
        assert clone == cell
        assert isinstance(clone, CellTelemetry)

    def test_parallel_run_collects_worker_side(self, telemetry_on):
        # Telemetry must survive the worker -> parent pickle hop and
        # carry the worker's pid (the trace's track id).
        scenarios = generate_scenarios(6, seed=5)
        report = run_batch(scenarios, executor=ProcessExecutor(jobs=2))
        tels = [o.telemetry for o in report.outcomes]
        assert all(t is not None for t in tels)
        assert all(t.dur > 0.0 and t.worker > 0 for t in tels)
        assert all("simulate" in t.phases for t in tels)


# ----------------------------------------------------------------------
# Grouped-path stats: fallback reasons and packing efficiency
# ----------------------------------------------------------------------
class TestGroupedStats:
    def test_mixed_matrix_stats(self, telemetry_on):
        # Hosts, chains and trees; every chain and tree of this matrix
        # is an adversarial fluid cell, which the chain group takes, so
        # one DES chain is added to keep a topology fallback.
        scenarios = generate_scenarios(24, seed=11) + [_DES_CHAIN]
        stats: dict = {}
        tasks = evaluate_grouped(scenarios, stats=stats)
        records = stats["records"]
        summary = [r for r in records if r["kind"] == "grouping_summary"]
        groups = [r for r in records if r["kind"] == "grouping"]
        assert len(summary) == 1
        s = summary[0]
        assert s["cells"] == len(scenarios)
        assert s["grouped_cells"] + s["fallback_cells"] == s["cells"]
        assert s["grouped_cells"] == sum(g["cells"] for g in groups)
        # generate_scenarios mixes topologies: the fallback reasons must
        # name them rather than hide behind one opaque count.
        assert any(r.startswith("topology:") for r in s["fallback_reasons"])
        assert sum(s["fallback_reasons"].values()) == s["fallback_cells"]
        for g in groups:
            if "padding_waste" in g:
                assert 0.0 <= g["padding_waste"] < 1.0
                assert g["pad_elements"] >= g["valid_elements"]
        # Per-cell annotations agree with the summary tallies.
        grouped_n = sum(
            t.telemetry.counters.get("grouped_cells", 0)
            for t in tasks if t.telemetry is not None
        )
        fallback_n = sum(
            t.telemetry.counters.get("fallback_cells", 0)
            for t in tasks if t.telemetry is not None
        )
        assert grouped_n == s["grouped_cells"]
        assert fallback_n == s["fallback_cells"]


    def test_grouping_records_name_topology_and_grid_cut(
        self, telemetry_on, tmp_path, capsys
    ):
        scenarios = generate_scenarios(24, seed=11) + [_DES_CHAIN]
        stats: dict = {}
        evaluate_grouped(scenarios, stats=stats)
        groups = [r for r in stats["records"] if r["kind"] == "grouping"]
        assert all(g["topology"] in ("host", "chain") for g in groups)
        (chain,) = [g for g in groups if g["topology"] == "chain"]
        # The smoke matrix's 6 chains and 4 trees, all adversarial fluid.
        assert chain["backend"] == "fluid" and chain["cells"] == 10
        assert chain["mode"] == "mixed"
        assert 0 < chain["sim_bins"] < chain["grid_bins"]
        assert chain["cut_attempts"] >= chain["cells"]
        # Its bins are not lane packing: bench/trace.py reads those two
        # keys as pack fill.
        assert "pad_elements" not in chain and "valid_elements" not in chain
        hosts = [g for g in groups if g["topology"] == "host"]
        assert hosts and all("grid_bins" not in g for g in hosts)

        # The report's grouping table shows both columns; host packs and
        # records written before either existed show "-".
        store = JsonlResultStore(tmp_path / "store")
        old = {k: v for k, v in hosts[0].items() if k != "topology"}
        store.append_telemetry(groups + [old])
        assert main(["scenarios", "report", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        table = out[out.index("== Grouping efficiency =="):].splitlines()
        header = [c.strip() for c in table[1].split("|")]
        assert header[:3] == ["backend", "topology", "mode"]
        kept = header.index("grid kept")
        rows = [[c.strip() for c in line.split("|")] for line in table[3:]]
        rows = rows[: len(groups) + 1]
        chain_row = [r for r in rows if r[1] == "chain"]
        assert len(chain_row) == 1
        expected = 100.0 * chain["sim_bins"] / chain["grid_bins"]
        assert chain_row[0][kept] == f"{expected:.1f}%"
        host_rows = [r for r in rows if r[1] != "chain"]
        assert len(host_rows) == len(hosts) + 1
        assert all(r[kept] == "-" for r in host_rows)
        assert host_rows[-1][1] == "-"


#: A cell no group takes: DES chains fall back by topology.
_DES_CHAIN = Scenario(
    name="des-chain",
    kinds=("cbr", "poisson", "onoff"),
    utilization=0.6,
    mode="sigma-rho",
    topology="chain",
    hops=2,
    backend="des",
    horizon=0.5,
)


# ----------------------------------------------------------------------
# Cost-model fit ledger
# ----------------------------------------------------------------------
class TestFitReport:
    def test_degenerate_samples_counted_by_reason(self):
        good = {"wall_time": 0.01, "eff_backend": "fluid", "k": 3,
                "hops": 1, "horizon": 1.0, "dt": 1e-3}
        records = [
            good,
            dict(good, wall_time=None),            # missing-wall
            dict(good, wall_time="fast"),          # missing-wall
            dict(good, wall_time=-1.0),            # bad-wall
            dict(good, wall_time=float("nan")),    # bad-wall
            dict(good, dt="tiny"),                 # bad-features
            dict(good, dt=float("inf")),           # bad-workload
        ]
        report: dict = {}
        model = CellCostModel.fit(records, report=report)
        assert report["records"] == len(records)
        assert report["accepted"] == 1
        assert report["dropped"] == len(records) - 1
        assert report["dropped_reasons"] == {
            "missing-wall": 2, "bad-wall": 2,
            "bad-features": 1, "bad-workload": 1,
        }
        assert report["backends"]["fluid"]["accepted"] == 1
        assert report["backends"]["fluid"]["refit"] is True
        assert model.estimate(good) > 0.0

    def test_empty_fit_reports_zero(self):
        report: dict = {}
        CellCostModel.fit([], report=report)
        assert report == {
            "records": 0, "accepted": 0, "dropped": 0,
            "dropped_reasons": {}, "backends": {},
        }


# ----------------------------------------------------------------------
# Store round-trip: the separate telemetry channel
# ----------------------------------------------------------------------
class TestStoreRoundtrip:
    RECORDS = [
        {"kind": "cell", "name": "c0", "worker": 123, "t0": 1.0,
         "dur": 0.5, "spans": [["simulate", 0.0, 0.5]],
         "phases": {"simulate": 0.5}, "counters": {"events_processed": 9},
         "extra": {}},
        {"kind": "grouping", "backend": "fluid", "cells": 4},
        {"kind": "fit", "records": 4, "accepted": 4, "dropped": 0},
    ]

    @pytest.mark.parametrize("cls", [JsonlResultStore, SqliteResultStore])
    def test_roundtrip(self, cls, tmp_path):
        store = cls(tmp_path / "store")
        assert store.load_telemetry() == []
        store.append_telemetry(self.RECORDS)
        store.append_telemetry([])  # empty batch is a no-op
        assert store.load_telemetry() == self.RECORDS

    def test_jsonl_skips_torn_lines(self, tmp_path):
        store = JsonlResultStore(tmp_path / "store")
        store.append_telemetry(self.RECORDS[:1])
        path = store.root / JsonlResultStore.TELEMETRY
        with open(path, "a") as fh:
            fh.write('{"kind": "cell", "tru\n')  # torn mid-write
        assert store.load_telemetry() == self.RECORDS[:1]

    def test_base_store_hooks_are_noops(self):
        class Dummy(ResultStore):
            def append(self, record):  # pragma: no cover - unused
                raise NotImplementedError

            def load(self):
                return {}

        dummy = Dummy()
        dummy.append_telemetry(self.RECORDS)
        assert dummy.load_telemetry() == []


# ----------------------------------------------------------------------
# The CLI lenses: report, --trace, --progress, --no-telemetry
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_store(tmp_path_factory):
    """One telemetry-enabled 24-cell smoke campaign, reused per lens."""
    root = tmp_path_factory.mktemp("telemetry") / "smoke"
    assert main(
        ["scenarios", "run", "--count", "24", "--seed", "11",
         "--no-corpus", "--store", str(root)]
    ) == 0
    return root


class TestCliLenses:
    def test_report_renders_every_section(self, smoke_store, tmp_path, capsys):
        # Every smoke cell runs in a group kernel, so one DES chain (a
        # fallback cell) is added to the store, for the fallback
        # counter to render.
        mixed = tmp_path / "mixed"
        shutil.copytree(smoke_store, mixed)
        corpus = save_curated([_DES_CHAIN], tmp_path / "des_chain.json")
        assert main(
            ["scenarios", "run", "--count", "24", "--seed", "11",
             "--no-corpus", "--corpus", str(corpus), "--resume",
             "--store", str(mixed)]
        ) == 0
        capsys.readouterr()
        assert main(["scenarios", "report", str(mixed)]) == 0
        out = capsys.readouterr().out
        assert "Campaign telemetry report" in out
        assert "Top 10 slowest cells" in out
        assert "Phase breakdown per backend" in out
        assert "realise" in out and "simulate" in out
        assert "bounds" in out and "verdict" in out
        assert "Engine counters" in out
        assert "grouped_cells" in out and "fallback_cells" in out
        assert "Cost-model calibration" in out
        assert "Grouping efficiency" in out
        assert "grouped cells:" in out
        assert "source cache:" in out
        assert "batch realise:" in out
        # Stores written while batch realisation could be switched off
        # still render; their 0-cell batch tally prints no batch line.
        root = tmp_path / "old"
        shutil.copytree(smoke_store, root)
        JsonlResultStore(root).append_telemetry([{
            "kind": "grouping_summary", "cells": 24, "grouped_cells": 12,
            "fallback_cells": 12, "fallback_reasons": {"topology:chain": 12},
            "source_cache_hits": 0, "source_cache_misses": 0,
            "batch_realise": False, "batch_realised_cells": 0,
            "batch_realise_s": 0.0,
        }])
        assert main(["scenarios", "report", str(root)]) == 0
        out = capsys.readouterr().out
        assert "grouped cells: 12/24" in out
        assert "batch realise:" not in out

    def test_report_top_flag(self, smoke_store, capsys):
        assert main(
            ["scenarios", "report", str(smoke_store), "--top", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "Top 3 slowest cells" in out

    def test_report_bad_top_rejected(self, smoke_store):
        with pytest.raises(SystemExit):
            main(["scenarios", "report", str(smoke_store), "--top", "0"])

    def test_report_missing_store_fails_loudly(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["scenarios", "report", str(tmp_path / "nope")])

    def test_report_empty_telemetry_returns_1(self, tmp_path, capsys):
        root = tmp_path / "bare"
        assert main(
            ["scenarios", "run", "--count", "2", "--seed", "3",
             "--no-corpus", "--no-telemetry", "--store", str(root)]
        ) == 0
        assert main(["scenarios", "report", str(root)]) == 1
        assert "no telemetry records" in capsys.readouterr().out

    def test_trace_writes_valid_chrome_json(self, smoke_store, tmp_path,
                                            capsys):
        trace = tmp_path / "run.trace.json"
        assert main(
            ["scenarios", "run", "--count", "6", "--seed", "5",
             "--no-corpus", "--store", str(tmp_path / "s"),
             "--trace", str(trace)]
        ) == 0
        assert "trace written" in capsys.readouterr().err
        doc = json.loads(trace.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        kinds = {e["ph"] for e in events}
        assert kinds == {"M", "X"}
        cells = [e for e in events if e.get("cat") == "cell"]
        assert len(cells) == 6
        assert all(e["dur"] >= 0.0 and e["ts"] >= 0.0 for e in cells)
        assert any(e.get("cat") == "phase" for e in events)

    def test_trace_with_no_telemetry_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["scenarios", "run", "--count", "2", "--no-corpus",
                 "--no-telemetry", "--trace", str(tmp_path / "t.json")]
            )

    def test_no_telemetry_summary_byte_identical(self, smoke_store,
                                                 tmp_path, capsys):
        off = tmp_path / "off"
        assert main(
            ["scenarios", "run", "--count", "24", "--seed", "11",
             "--no-corpus", "--no-telemetry", "--store", str(off)]
        ) == 0
        capsys.readouterr()
        on_summary = (smoke_store / "summary.json").read_bytes()
        assert (off / "summary.json").read_bytes() == on_summary
        assert (smoke_store / JsonlResultStore.TELEMETRY).exists()
        assert not (off / JsonlResultStore.TELEMETRY).exists()
        # The kill switch is restored after the run.
        assert telemetry_enabled()

    def test_progress_status_line(self, tmp_path, capsys):
        assert main(
            ["scenarios", "run", "--count", "6", "--seed", "3",
             "--no-corpus", "--progress", "--store", str(tmp_path / "p")]
        ) == 0
        err = capsys.readouterr().err
        assert "6/6 cells" in err
        assert "cells/s" in err and "ETA" in err

    def test_profile_prints_fit_ledger(self, tmp_path, capsys):
        root = tmp_path / "prof"
        args = ["scenarios", "run", "--count", "6", "--seed", "3",
                "--no-corpus", "--store", str(root)]
        assert main(args) == 0
        capsys.readouterr()
        # Second run resumes -> refit from the stored wall clocks.
        assert main(args + ["--resume", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "cost-model refit:" in out
        assert "samples accepted" in out


# ----------------------------------------------------------------------
# Aggregation helpers
# ----------------------------------------------------------------------
class TestAggregation:
    def test_chrome_trace_empty(self):
        doc = chrome_trace_events([])
        assert doc == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_phase_breakdown_and_counters(self):
        records = [
            {"kind": "cell", "eff_backend": "fluid", "dur": 0.2,
             "phases": {"simulate": 0.2}, "counters": {"n": 1}},
            {"kind": "cell", "eff_backend": "fluid", "dur": 0.1,
             "phases": {"simulate": 0.05, "realise": 0.05},
             "counters": {"n": 2}},
            {"kind": "cell", "eff_backend": "des", "dur": 0.05,
             "phases": {"simulate": 0.05}, "counters": {}},
            {"kind": "grouping", "backend": "fluid"},  # not a cell
        ]
        rows = tele.phase_breakdown(records)
        assert [r["backend"] for r in rows] == ["fluid", "des"]
        assert rows[0]["cells"] == 2
        assert rows[0]["phases"]["simulate"] == pytest.approx(0.25)
        assert tele.counter_totals(records) == {"n": 3}
        slowest = tele.top_slowest(records, 2)
        assert [r["dur"] for r in slowest] == [0.2, 0.1]

    def test_calibration_rows(self):
        records = [
            {"kind": "cell", "eff_backend": "fluid",
             "wall_time": 0.2, "predicted_cost": 0.1},
            {"kind": "cell", "eff_backend": "fluid",
             "wall_time": 0.1, "predicted_cost": 0.1},
            {"kind": "cell", "eff_backend": "des", "wall_time": 0.1},
        ]
        rows = tele.calibration_rows(records)
        assert rows[0]["backend"] == "fluid"
        assert rows[0]["median_ratio"] == pytest.approx(1.5)
        assert rows[-1] == {"backend": "(no prediction)", "cells": 1}

"""Result-store backend benchmarks (the PR-4 trajectory numbers).

Ingest and load throughput of the two store backends on a
1024-cell campaign's worth of records -- the workload the campaign
runtime actually generates (worker processes committing whole batches,
resume passes re-loading the full store).  The frozen
``BENCH_pr4.json`` at the repo root holds their history.

Floors are deliberately loose (CI containers jitter), but they pin the
property the campaign design relies on: batched ingest of a
thousand-cell campaign is a sub-second affair on either backend, so
the store is never the campaign bottleneck.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.runtime import (
    JsonlResultStore,
    SqliteResultStore,
    cell_key,
    spec_fingerprint,
)
from repro.scenarios import generate_scenarios

#: Records per second both backends must sustain on batched ingest.
INGEST_FLOOR = 2_000.0

N_CELLS = 1024


@pytest.fixture(scope="module")
def campaign_records():
    """1024 realistic records (full spec payloads, no evaluation)."""
    scenarios = generate_scenarios(N_CELLS, seed=2006, max_k=9, max_hops=6)
    records = []
    for i, sc in enumerate(scenarios):
        records.append(
            {
                "key": cell_key(sc),
                "fingerprint": spec_fingerprint(sc),
                "name": sc.name,
                "sound": True,
                "error": None,
                "measured": 0.01 * (i + 1),
                "bound": 0.02 * (i + 1),
                "baseline_bound": 0.03 * (i + 1),
                "eps": 1e-3,
                "tightness": 0.5,
                "eff_mode": sc.mode,
                "eff_backend": sc.backend,
                "hops": sc.hops,
                "propagation_total": 0.0,
                "events": 0,
                "cancelled_events": 0,
                "height_ok": True,
                "wall_time": 0.004,
                "perf_budget": 0.0,
                "budget_ok": True,
                "tags": list(sc.tags),
                "backend": sc.backend,
                "k": sc.k,
                "tree_members": sc.tree_members,
                "horizon": sc.horizon,
                "dt": sc.dt,
                "spec": dataclasses.asdict(sc),
            }
        )
    return records


def _measure(store, records):
    """(ingest seconds, load seconds) for one batched fill + full load."""
    t0 = time.perf_counter()
    store.append_many(records)
    ingest = time.perf_counter() - t0
    t0 = time.perf_counter()
    loaded = store.load()
    load = time.perf_counter() - t0
    assert len(loaded) == len(records)
    return ingest, load


def test_store_ingest_throughput(bench_pr4, artifact_report,
                                 campaign_records, tmp_path):
    """JSONL vs SQLite on the same 1024-record campaign batch."""
    jsonl = JsonlResultStore(tmp_path / "jsonl")
    sqlite = SqliteResultStore(tmp_path / "sqlite")
    j_ingest, j_load = _measure(jsonl, campaign_records)
    s_ingest, s_load = _measure(sqlite, campaign_records)
    # The two backends loaded the identical records.
    assert sqlite.load() == jsonl.load()
    rows = {
        "jsonl": (j_ingest, j_load),
        "sqlite": (s_ingest, s_load),
    }
    bench_pr4["store_ingest_1024"] = {
        "cells": N_CELLS,
        **{
            f"{kind}_{phase}_seconds": round(sec, 5)
            for kind, (ing, ld) in rows.items()
            for phase, sec in (("ingest", ing), ("load", ld))
        },
        **{
            f"{kind}_ingest_records_per_sec": round(N_CELLS / ing)
            for kind, (ing, _) in rows.items()
        },
    }
    artifact_report.append(
        "== Store ingest: 1024-cell campaign batch ==\n"
        + "\n".join(
            f"{kind}: ingest {ing * 1e3:.1f} ms "
            f"({N_CELLS / ing / 1e3:.0f}k rec/s), "
            f"load {ld * 1e3:.1f} ms"
            for kind, (ing, ld) in rows.items()
        )
    )
    for kind, (ing, _) in rows.items():
        assert N_CELLS / ing >= INGEST_FLOOR, (
            f"{kind} ingest only {N_CELLS / ing:.0f} records/s"
        )


def test_sqlite_per_record_commit_cost(bench_pr4, artifact_report,
                                       campaign_records, tmp_path):
    """Worst-case write pattern: one transaction per record (what a
    crash-paranoid writer would do).  Recorded so the batched-commit
    advantage stays visible in the trajectory; only a very loose floor
    is asserted (fsync-bound)."""
    store = SqliteResultStore(tmp_path / "single")
    subset = campaign_records[:64]
    t0 = time.perf_counter()
    for rec in subset:
        store.append(rec)
    elapsed = time.perf_counter() - t0
    per_rec = len(subset) / elapsed
    bench_pr4["sqlite_per_record_commits"] = {
        "records": len(subset),
        "seconds": round(elapsed, 5),
        "records_per_sec": round(per_rec),
    }
    artifact_report.append(
        "== SQLite per-record commits (worst case) ==\n"
        f"{len(subset)} records: {elapsed * 1e3:.1f} ms "
        f"({per_rec:.0f} rec/s)"
    )
    assert per_rec >= 20.0, f"per-record commits only {per_rec:.0f}/s"

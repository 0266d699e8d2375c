"""Dependency-free campaign telemetry: spans, counters, trace export.

When a thousand-cell campaign is slow, the verdict records say nothing
about *where* the time went: trace realisation?  kernel evaluation?
padding waste in a packed group?  queueing behind a mispredicted chunk?
This module is the observability layer the whole runtime threads
through -- per-cell phase timings, named counters, and per-run
aggregates -- with two consumers on top (``scenarios report`` and the
Chrome-trace export behind ``scenarios run --trace``).

Design constraints, in priority order:

* **Near-zero overhead.**  Collection is plain attribute writes and
  dict bumps against a thread-local active cell; no I/O, no locks, no
  string formatting on the hot path.  Disabled collection
  (:func:`set_enabled`) costs one ``None`` check per call site.
* **Worker-side, picklable.**  A :class:`CellTelemetry` is built where
  the cell runs (any process) and travels back with its
  :class:`~repro.runtime.executor.TaskResult`; it holds only
  primitives.  Timestamps are ``time.perf_counter()`` values --
  ``CLOCK_MONOTONIC`` on Linux, shared across forked workers -- so one
  campaign's cells line up on a common timeline per machine.
* **Verdicts stay byte-identical.**  Telemetry never enters a store's
  ``results`` records or ``summary.json``; it persists to a separate
  ``telemetry`` file/table (see :meth:`ResultStore.append_telemetry`),
  so every existing determinism gate is untouched by construction.
* **No import cycles.**  This module imports only the stdlib.  Runtime
  and scenario modules may import it at module level; the simulation
  layer (imported *during* ``repro.runtime``'s own init) does not use
  it.

Collection protocol
-------------------
``begin_cell(name)`` installs the thread's active cell and returns it
(or ``None`` when disabled); ``end_cell`` stamps its duration and
clears the slot.  Inside the window, :func:`span` context managers
record named phases, :func:`counter_add` bumps named counters, and
:func:`extra_set` attaches string/number annotations -- all no-ops when
no cell is active, so instrumented library code needs no conditionals.

Record kinds (the ``telemetry`` table/file schema)
--------------------------------------------------
``{"kind": "cell", ...}``
    One per evaluated cell: worker pid, start/duration, spans
    (``[name, start_offset, duration]``), per-phase totals, counters,
    annotations, and the scheduler's ``predicted_cost`` next to the
    recorded ``wall_time`` (the calibration residual's two sides).
``{"kind": "grouping", ...}``
    One per SoA group evaluated by the grouped cell matrix: backend,
    topology and mode, cell count, prep/eval seconds, and lanes and
    padding-waste ratio (fluid host packs) or simulated vs. full-grid
    bins and cut attempts (the fluid chain group).
``{"kind": "grouping_summary", ...}``
    One per grouped run: grouped/fallback cell totals, per-reason
    fallback counts, source-cache hit rate.
``{"kind": "fit", ...}``
    One per cost-model refit: per-backend acceptance, and the
    degenerate samples the fit dropped, by reason -- "no silent caps".
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional

__all__ = [
    "CellTelemetry",
    "set_enabled",
    "enabled",
    "begin_cell",
    "end_cell",
    "active_cell",
    "span",
    "counter_add",
    "extra_set",
    "cell_record",
    "phase_breakdown",
    "counter_totals",
    "attempt_rows",
    "store_retry_rows",
    "lease_rows",
    "lease_summary",
    "top_slowest",
    "calibration_rows",
    "grouping_rows",
    "fit_rows",
    "report_delta",
    "chrome_trace_events",
    "write_chrome_trace",
]

#: Process-wide kill switch (``scenarios run --no-telemetry``).  Pool
#: executors additionally ship the flag with each chunk so spawned
#: workers agree with the parent regardless of start method.
_ENABLED = True

_TLS = threading.local()


def set_enabled(flag: bool) -> None:
    """Turn collection on/off process-wide (workers inherit via the
    executor's per-chunk flag, not this global)."""
    global _ENABLED
    _ENABLED = bool(flag)


def enabled() -> bool:
    return _ENABLED


@dataclass
class CellTelemetry:
    """One cell's collected telemetry (mutable, picklable primitives).

    ``spans`` hold worker-timeline slices ``[name, start_offset,
    duration]`` (offsets relative to :attr:`t0`; the trace export's
    unit of drawing); ``phases`` hold per-phase-name duration totals
    (the report's unit of aggregation -- parent-side amortised phases
    like the vectorised bounds pass land here without a slice).
    """

    name: str
    #: Worker process id (one trace track per worker).
    worker: int = 0
    #: ``time.perf_counter()`` at cell start (CLOCK_MONOTONIC: one
    #: timeline across forked workers on the same machine).
    t0: float = 0.0
    #: Total seconds attributed to this cell.
    dur: float = 0.0
    spans: list = field(default_factory=list)
    phases: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def add_phase(self, name: str, seconds: float, *, offset: Optional[float] = None) -> None:
        """Credit ``seconds`` to a phase; with ``offset`` also record a
        timeline span (used when kernel time is amortised over a group
        after the fact)."""
        self.phases[name] = self.phases.get(name, 0.0) + seconds
        if offset is not None:
            self.spans.append([name, offset, seconds])


def begin_cell(name: str) -> Optional[CellTelemetry]:
    """Install a fresh active cell for this thread (``None`` when
    collection is disabled)."""
    if not _ENABLED:
        return None
    tel = CellTelemetry(name=name, worker=os.getpid(), t0=time.perf_counter())
    _TLS.cell = tel
    return tel


def end_cell(tel: Optional[CellTelemetry]) -> None:
    """Stamp the cell's duration and clear the active slot."""
    if tel is None:
        return
    tel.dur = time.perf_counter() - tel.t0
    if getattr(_TLS, "cell", None) is tel:
        _TLS.cell = None


def active_cell() -> Optional[CellTelemetry]:
    return getattr(_TLS, "cell", None)


@contextmanager
def span(name: str):
    """Time a named phase of the active cell (no-op without one)."""
    cell = getattr(_TLS, "cell", None)
    if cell is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        dur = time.perf_counter() - start
        cell.spans.append([name, start - cell.t0, dur])
        cell.phases[name] = cell.phases.get(name, 0.0) + dur


def counter_add(name: str, n: int = 1) -> None:
    """Bump a named counter on the active cell (no-op without one)."""
    cell = getattr(_TLS, "cell", None)
    if cell is not None:
        cell.counters[name] = cell.counters.get(name, 0) + n


def extra_set(name: str, value: Any) -> None:
    """Attach an annotation to the active cell (no-op without one)."""
    cell = getattr(_TLS, "cell", None)
    if cell is not None:
        cell.extra[name] = value


# ----------------------------------------------------------------------
# Record building & aggregation (the ``scenarios report`` substrate)
# ----------------------------------------------------------------------
def cell_record(tel: CellTelemetry, **fields_: Any) -> dict:
    """The persisted ``kind="cell"`` telemetry record."""
    rec = {
        "kind": "cell",
        "name": tel.name,
        "worker": int(tel.worker),
        "t0": float(tel.t0),
        "dur": float(tel.dur),
        "spans": [[str(n), float(o), float(d)] for n, o, d in tel.spans],
        "phases": {str(k): float(v) for k, v in tel.phases.items()},
        "counters": {str(k): int(v) for k, v in tel.counters.items()},
        "extra": dict(tel.extra),
    }
    rec.update(fields_)
    return rec


def _cells(records: Iterable[Mapping]) -> list[Mapping]:
    return [r for r in records if isinstance(r, Mapping) and r.get("kind") == "cell"]


def phase_breakdown(records: Iterable[Mapping]) -> list[dict]:
    """Per-backend phase totals: one row per ``eff_backend``, phase
    columns summed over its cells, sorted by total descending."""
    by_backend: dict[str, dict] = {}
    for rec in _cells(records):
        backend = str(rec.get("eff_backend") or "?")
        row = by_backend.setdefault(
            backend, {"backend": backend, "cells": 0, "phases": {}, "total": 0.0}
        )
        row["cells"] += 1
        phases = rec.get("phases") or {}
        if isinstance(phases, Mapping):
            for name, secs in phases.items():
                if isinstance(secs, (int, float)):
                    row["phases"][str(name)] = (
                        row["phases"].get(str(name), 0.0) + float(secs)
                    )
                    row["total"] += float(secs)
    return sorted(by_backend.values(), key=lambda r: -r["total"])


def counter_totals(records: Iterable[Mapping]) -> dict[str, int]:
    """Engine/runtime counters summed across all cell records."""
    totals: dict[str, int] = {}
    for rec in _cells(records):
        counters = rec.get("counters") or {}
        if isinstance(counters, Mapping):
            for name, n in counters.items():
                if isinstance(n, (int, float)):
                    totals[str(name)] = totals.get(str(name), 0) + int(n)
    return totals


def attempt_rows(records: Iterable[Mapping]) -> list[dict]:
    """Retry-ledger records (``kind == "attempts"``) from a campaign.

    One row per cell that needed more than one attempt (or recorded
    injected faults), with its final ``disposition`` -- ``recovered``
    or ``poison`` -- and the per-attempt error heads in ``faults``.
    """
    out: list[dict] = []
    for rec in records:
        if rec.get("kind") == "attempts" and isinstance(rec, Mapping):
            out.append(dict(rec))
    return out


def store_retry_rows(records: Iterable[Mapping]) -> list[dict]:
    """Store-write retry records (``kind == "store_retries"``)."""
    return [
        dict(rec)
        for rec in records
        if rec.get("kind") == "store_retries" and isinstance(rec, Mapping)
    ]


def lease_rows(records: Iterable[Mapping]) -> list[dict]:
    """Per-lease ledger records (``kind == "lease"``) from coordinator
    workers: which worker ran which lease, how many cells it evaluated,
    and how many worker deaths/steals the lease survived -- the
    reclaimed-lease audit trail ``scenarios report`` renders."""
    return [
        dict(rec)
        for rec in records
        if isinstance(rec, Mapping) and rec.get("kind") == "lease"
    ]


def lease_summary(records: Iterable[Mapping]) -> dict:
    """The coordinator's run-level lease digest (``kind == "leases"``):
    planned/done/stolen/split/poisoned lease counts plus worker respawn
    accounting.  Last coordinator run wins; ``{}`` when none ran."""
    summary: dict = {}
    for rec in records:
        if isinstance(rec, Mapping) and rec.get("kind") == "leases":
            summary = dict(rec)
    return summary


def top_slowest(records: Iterable[Mapping], n: int = 10) -> list[Mapping]:
    """The ``n`` dearest cells by recorded duration."""
    cells = _cells(records)
    cells.sort(key=lambda r: -float(r.get("dur") or 0.0))
    return cells[:n]


def calibration_rows(records: Iterable[Mapping]) -> list[dict]:
    """Cost-model calibration per backend: actual vs predicted seconds.

    ``median_ratio`` is the per-cell ``actual / predicted`` median --
    1.0 means the scheduler's coefficients match this machine; the
    spread (p10/p90 of the ratio) shows how trustworthy chunk planning
    was.  Cells without a prediction are skipped (and counted).
    """
    groups: dict[str, list[tuple[float, float]]] = {}
    skipped = 0
    for rec in _cells(records):
        predicted = rec.get("predicted_cost")
        actual = rec.get("wall_time", rec.get("dur"))
        if (
            not isinstance(predicted, (int, float))
            or not isinstance(actual, (int, float))
            or predicted <= 0
        ):
            skipped += 1
            continue
        backend = str(rec.get("eff_backend") or "?")
        groups.setdefault(backend, []).append((float(actual), float(predicted)))
    rows = []
    for backend, pairs in groups.items():
        ratios = sorted(a / p for a, p in pairs)
        mid = len(ratios) // 2
        median = (
            ratios[mid]
            if len(ratios) % 2
            else 0.5 * (ratios[mid - 1] + ratios[mid])
        )
        rows.append(
            {
                "backend": backend,
                "cells": len(pairs),
                "actual_total": sum(a for a, _ in pairs),
                "predicted_total": sum(p for _, p in pairs),
                "median_ratio": median,
                "p10_ratio": ratios[max(0, int(0.1 * (len(ratios) - 1)))],
                "p90_ratio": ratios[int(0.9 * (len(ratios) - 1))],
            }
        )
    rows.sort(key=lambda r: -r["actual_total"])
    if skipped:
        rows.append({"backend": "(no prediction)", "cells": skipped})
    return rows


def grouping_rows(records: Iterable[Mapping]) -> dict:
    """Grouping-efficiency digest from ``grouping``/``grouping_summary``
    records: per-group rows plus run totals."""
    groups = [
        dict(r)
        for r in records
        if isinstance(r, Mapping) and r.get("kind") == "grouping"
    ]
    summary: dict = {}
    for r in records:
        if isinstance(r, Mapping) and r.get("kind") == "grouping_summary":
            summary = dict(r)  # last run wins
    return {"groups": groups, "summary": summary}


def fit_rows(records: Iterable[Mapping]) -> list[dict]:
    """All cost-model refit reports persisted in the store."""
    return [
        dict(r)
        for r in records
        if isinstance(r, Mapping) and r.get("kind") == "fit"
    ]


def report_delta(
    base_records: Iterable[Mapping], cand_records: Iterable[Mapping]
) -> dict:
    """Cross-campaign telemetry deltas (``scenarios report A B``).

    The observability twin of ``scenarios diff``: where that compares
    verdicts, this compares *where the time went* between two stores.
    Returns ``{"phases": [...], "calibration": [...]}``:

    ``phases``
        One row per ``(backend, phase)`` seen in either store, with
        per-cell phase seconds on both sides (totals are normalised by
        cell count, so campaigns of different sizes compare fairly) and
        ``ratio = cand_per_cell / base_per_cell`` when both sides have
        data -- a realise-phase ratio of 0.25 means trace synthesis got
        4x faster per cell.

    ``calibration``
        One row per backend with the cost model's ``median_ratio``
        (actual/predicted) on both sides and the drift between them --
        a calibration trend across campaigns.
    """
    base_records = list(base_records)
    cand_records = list(cand_records)
    base_b = {r["backend"]: r for r in phase_breakdown(base_records)}
    cand_b = {r["backend"]: r for r in phase_breakdown(cand_records)}
    phases: list[dict] = []
    for backend in sorted(set(base_b) | set(cand_b)):
        b = base_b.get(backend, {})
        c = cand_b.get(backend, {})
        names = sorted(set(b.get("phases", {})) | set(c.get("phases", {})))
        for name in names:
            b_cells = int(b.get("cells", 0))
            c_cells = int(c.get("cells", 0))
            b_total = float(b.get("phases", {}).get(name, 0.0))
            c_total = float(c.get("phases", {}).get(name, 0.0))
            row: dict = {
                "backend": backend,
                "phase": name,
                "base_cells": b_cells,
                "cand_cells": c_cells,
                "base_total": b_total,
                "cand_total": c_total,
                "base_per_cell": b_total / b_cells if b_cells else None,
                "cand_per_cell": c_total / c_cells if c_cells else None,
            }
            if row["base_per_cell"] and row["cand_per_cell"] is not None:
                row["ratio"] = row["cand_per_cell"] / row["base_per_cell"]
            phases.append(row)
    base_c = {
        r["backend"]: r
        for r in calibration_rows(base_records)
        if "median_ratio" in r
    }
    cand_c = {
        r["backend"]: r
        for r in calibration_rows(cand_records)
        if "median_ratio" in r
    }
    calibration: list[dict] = []
    for backend in sorted(set(base_c) | set(cand_c)):
        b = base_c.get(backend)
        c = cand_c.get(backend)
        row = {
            "backend": backend,
            "base_median_ratio": b["median_ratio"] if b else None,
            "cand_median_ratio": c["median_ratio"] if c else None,
        }
        if b and c:
            row["drift"] = c["median_ratio"] - b["median_ratio"]
        calibration.append(row)
    return {"phases": phases, "calibration": calibration}


# ----------------------------------------------------------------------
# Chrome trace-event export (chrome://tracing / Perfetto)
# ----------------------------------------------------------------------
def chrome_trace_events(records: Iterable[Mapping]) -> dict:
    """Trace-event JSON over cell records: one track (``tid``) per
    worker pid, one complete (``"X"``) slice per cell and per phase
    span, timestamps in microseconds relative to the earliest cell.

    The format is the Chrome trace-event "JSON object" flavour --
    ``{"traceEvents": [...]}`` -- loadable in ``chrome://tracing`` and
    Perfetto as-is.
    """
    cells = _cells(records)
    events: list[dict] = []
    if not cells:
        return {"traceEvents": events, "displayTimeUnit": "ms"}
    base = min(float(r.get("t0") or 0.0) for r in cells)
    workers = sorted({int(r.get("worker") or 0) for r in cells})
    events.append(
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": "campaign"},
        }
    )
    for w in workers:
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": w,
                "args": {"name": f"worker {w}"},
            }
        )
    for rec in cells:
        t0 = float(rec.get("t0") or 0.0)
        tid = int(rec.get("worker") or 0)
        events.append(
            {
                "ph": "X",
                "name": str(rec.get("name") or "?"),
                "cat": "cell",
                "ts": (t0 - base) * 1e6,
                "dur": float(rec.get("dur") or 0.0) * 1e6,
                "pid": 0,
                "tid": tid,
                "args": {
                    "backend": rec.get("eff_backend"),
                    "counters": rec.get("counters") or {},
                    "extra": rec.get("extra") or {},
                },
            }
        )
        for entry in rec.get("spans") or []:
            try:
                name, off, dur = entry
            except (TypeError, ValueError):
                continue
            events.append(
                {
                    "ph": "X",
                    "name": str(name),
                    "cat": "phase",
                    "ts": (t0 + float(off) - base) * 1e6,
                    "dur": float(dur) * 1e6,
                    "pid": 0,
                    "tid": tid,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: Any, records: Iterable[Mapping]) -> int:
    """Write the trace-event JSON for ``records`` to ``path``; returns
    the event count."""
    trace = chrome_trace_events(records)
    with open(path, "w") as fh:
        json.dump(trace, fh)
        fh.write("\n")
    return len(trace["traceEvents"])

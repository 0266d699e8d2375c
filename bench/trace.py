"""In-memory span tracing around the library's layer entry points.

A :class:`Tracer` replaces each entry point named in
:data:`ENTRY_POINTS` by a wrapper that records one span per call --
``(name, start, end, parent, run_id)`` -- and restores the originals on
:meth:`Tracer.uninstall`.  Untraced runs never construct a tracer, so
they run the library unmodified.  Spans stay in memory until the run
ends; the harness writes them next to its ``--out`` file.

:func:`layer_metrics` turns one traced campaign into the per-layer
numbers of ``BENCHMARK.json``: span self times inside the campaign,
plus the per-cell telemetry the campaign already persists to its store
(worker-side cell times, engine counters, grouping ledgers), which is
the only view into work done by worker processes.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Iterable, Mapping, Sequence

from bench.stats import percentile

__all__ = [
    "ENTRY_POINTS",
    "Tracer",
    "covered",
    "layer_metrics",
    "self_times",
]

#: ``(span name, module, attribute path)`` of every wrapped entry point.
#: Attributes are patched where their *callers* look them up: e.g.
#: ``run_campaign`` calls the ``run_batch`` bound in its own module.
#: The per-cell ``evaluate_cell`` is wrapped only where the grouped
#: evaluator falls back to it; cells evaluated by pool or lease workers
#: are seen through their telemetry instead.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("campaign", "repro.runtime", "run_campaign"),
    ("campaign", "repro.runtime", "run_coordinator"),
    ("campaign.run_batch", "repro.runtime.campaign", "run_batch"),
    ("campaign.outcome_record", "repro.runtime.campaign", "outcome_record"),
    ("campaign.persist_telemetry", "repro.runtime.campaign",
     "_persist_telemetry"),
    ("cellmatrix.evaluate_grouped", "repro.scenarios.cellmatrix",
     "evaluate_grouped"),
    ("tracebatch.realise_batch", "repro.scenarios.cellmatrix",
     "realise_batch"),
    ("runner.evaluate_cell", "repro.scenarios.cellmatrix", "evaluate_cell"),
    ("runner.finalise_batch", "repro.scenarios.runner", "finalise_batch"),
    ("analytic.batch_bounds", "repro.scenarios.runner", "batch_bounds"),
    ("executor.map_tasks", "repro.runtime.executor",
     "ProcessExecutor.map_tasks"),
    ("coordinator.plan_leases", "repro.runtime.coordinator",
     "plan_campaign_leases"),
    ("coordinator.spawn_worker", "repro.runtime.coordinator",
     "_spawn_worker"),
    ("store.append_many", "repro.runtime.store",
     "JsonlResultStore.append_many"),
    ("store.append_many", "repro.runtime.store_sqlite",
     "SqliteResultStore.append_many"),
    ("store.append_telemetry", "repro.runtime.store",
     "JsonlResultStore.append_telemetry"),
    ("store.append_telemetry", "repro.runtime.store_sqlite",
     "SqliteResultStore.append_telemetry"),
    ("store.write_summary", "repro.runtime.store",
     "ResultStore.write_summary"),
    ("store.load", "repro.runtime.store", "JsonlResultStore.load"),
    ("store.load", "repro.runtime.store_sqlite", "SqliteResultStore.load"),
    # Idle time of the campaign process: the coordinator's supervision
    # loop sleeps between polls and waits for its workers to exit.
    ("wait", "time", "sleep"),
    ("wait", "subprocess", "Popen.wait"),
)


class Tracer:
    """Records spans around :data:`ENTRY_POINTS` while installed.

    Each span is a list ``[name, start, end, parent, run_id, pid]``:
    ``parent`` is the index of the enclosing span in :attr:`spans`
    (``None`` at top level) and ``pid`` the process the call started,
    when it returns one (worker spawns), else ``None``.
    """

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            [name, time.perf_counter(), None, parent, self.run_id, None]
        )
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.spans[idx][5] = getattr(result, "pid", None)
            return result

        return traced

    def install(self, entry_points: Sequence[tuple[str, str, str]] = ENTRY_POINTS) -> None:
        for name, module, attr in entry_points:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            # ``None`` marks an inherited method: the wrapper shadows it
            # on the named class only and is deleted again on uninstall.
            self._patched.append((owner, leaf, vars(owner).get(leaf)))
            setattr(owner, leaf, self.wrap(name, getattr(owner, leaf)))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patched):
            if original is None:
                delattr(owner, leaf)
            else:
                setattr(owner, leaf, original)
        self._patched.clear()


# ----------------------------------------------------------------------
# Interval arithmetic
# ----------------------------------------------------------------------
def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Children may overlap each other (concurrent work); their union is
    subtracted once.
    """
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] is not None:
            kids.setdefault(s[3], []).append((s[1], s[2]))
    return [
        (s[2] - s[1]) - covered(kids.get(i, ()), s[1], s[2])
        for i, s in enumerate(spans)
    ]


# ----------------------------------------------------------------------
# Per-layer metrics of one traced campaign
# ----------------------------------------------------------------------
def _descendants(spans: Sequence[Sequence], root: int) -> list[int]:
    # A span is appended when it opens, so parents precede children.
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
    return sorted(inside - {root})


def layer_metrics(
    spans: Sequence[Sequence],
    root: int,
    telemetry: Sequence[Mapping],
    *,
    workers: int = 1,
    store_bytes: int = 0,
    busy_retries: int = 0,
    quarantined: int = 0,
) -> dict:
    """Per-layer numbers of one campaign traced under span ``root``.

    Span-derived times are summed seconds inside the campaign (a layer
    absent from a workload reads 0); ``*_share`` values are fractions
    of the campaign wall time.  ``telemetry`` is the store's telemetry
    channel after the campaign; ``workers`` is the number of processes
    that evaluated cells.
    """
    wall = spans[root][2] - spans[root][1]
    idxs = _descendants(spans, root)
    own = self_times(spans)
    total: dict[str, float] = {}
    selfs: dict[str, float] = {}
    for i in idxs:
        name = spans[i][0]
        total[name] = total.get(name, 0.0) + spans[i][2] - spans[i][1]
        selfs[name] = selfs.get(name, 0.0) + own[i]

    def share(seconds: float) -> float:
        return seconds / wall if wall > 0 else 0.0

    cells = [r for r in telemetry if r.get("kind") == "cell"]
    per_cell = [
        float(r.get("wall_time", r.get("dur", 0.0)))
        for r in cells
        if not (r.get("counters") or {}).get("grouped_cells")
    ]
    cell_wall = sum(float(r.get("wall_time", r.get("dur", 0.0))) for r in cells)
    phases: dict[str, float] = {}
    counters: dict[str, int] = {}
    for r in cells:
        for k, v in (r.get("phases") or {}).items():
            phases[k] = phases.get(k, 0.0) + float(v)
        for k, v in (r.get("counters") or {}).items():
            counters[k] = counters.get(k, 0) + int(v)

    summary: dict = {}
    pad = valid = 0
    for r in telemetry:
        if r.get("kind") == "grouping_summary":
            summary = r
        elif r.get("kind") == "grouping":
            pad += int(r.get("pad_elements", 0))
            valid += int(r.get("valid_elements", 0))
    reasons = summary.get("fallback_reasons") or {}
    hits = int(summary.get("source_cache_hits", 0))
    misses = int(summary.get("source_cache_misses", 0))

    # One queue latency per pool chunk, repeated on each of its cells.
    queue = {
        (r.get("worker"), r["extra"]["chunk_queue_s"])
        for r in cells
        if "chunk_queue_s" in (r.get("extra") or {})
    }
    map_s = total.get("executor.map_tasks", 0.0)

    leases = {}
    for r in telemetry:
        if r.get("kind") == "leases":
            leases = r
    # Worker start-up: from the spawn call to the worker's first cell.
    first_cell: dict[int, float] = {}
    last_cell: dict[int, float] = {}
    for r in cells:
        pid = int(r.get("worker", 0))
        t0 = float(r.get("t0", 0.0))
        first_cell[pid] = min(first_cell.get(pid, t0), t0)
        last_cell[pid] = max(
            last_cell.get(pid, t0), t0 + float(r.get("dur", 0.0))
        )
    spawns = [spans[i] for i in idxs if spans[i][0] == "coordinator.spawn_worker"]
    imports = [
        first_cell[s[5]] - s[1] for s in spawns if s[5] in first_cell
    ]

    persist = _outer_total(
        spans, idxs, root,
        ("store.", "campaign.outcome_record", "campaign.persist_telemetry"),
    )

    events = counters.get("events_processed", 0)
    simulate_s = phases.get("simulate", 0.0)
    return {
        "tracebatch.realise_batch_s": total.get("tracebatch.realise_batch", 0.0),
        "tracebatch.cells": int(summary.get("batch_realised_cells", 0)),
        "tracebatch.lanes_generated": int(summary.get("batch_lanes_generated", 0)),
        "tracebatch.sigma_lanes": int(summary.get("batch_sigma_lanes", 0)),
        "cellmatrix.self_s": selfs.get("cellmatrix.evaluate_grouped", 0.0),
        "cellmatrix.grouped_cells": int(summary.get("grouped_cells", 0)),
        "cellmatrix.fallback_cells": int(summary.get("fallback_cells", 0)),
        "cellmatrix.fallback.topology": _tally(reasons, "topology:"),
        "cellmatrix.fallback.discipline": _tally(reasons, "discipline:"),
        "cellmatrix.fallback.backend": _tally(reasons, "backend:"),
        "cellmatrix.fallback.mode": _tally(reasons, "mode:"),
        "cellmatrix.fallback.error": _tally(reasons, "realise-error")
        + _tally(reasons, "kernel-error"),
        "cellmatrix.pack_fill": valid / pad if pad else 0.0,
        "cellmatrix.source_cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "runner.evaluate_cell_s": sum(per_cell),
        "runner.evaluate_cell_calls": len(per_cell),
        "runner.evaluate_cell_p50_ms": 1e3 * percentile(per_cell, 50) if per_cell else 0.0,
        "runner.evaluate_cell_p90_ms": 1e3 * percentile(per_cell, 90) if per_cell else 0.0,
        "runner.finalise_batch_self_s": selfs.get("runner.finalise_batch", 0.0),
        "analytic.batch_bounds_s": phases.get("bounds", 0.0),
        "simulation.events": events,
        "simulation.busy_periods": counters.get("busy_periods", 0),
        "simulation.receive_batch_calls": counters.get("receive_batch_calls", 0),
        "simulation.primed_cells": counters.get("primed_cells", 0),
        "simulation.events_per_s": events / simulate_s if simulate_s > 0 else 0.0,
        "campaign.run_batch_s": total.get("campaign.run_batch", 0.0),
        "campaign.outcome_record_s": total.get("campaign.outcome_record", 0.0),
        "campaign.persist_share": share(persist),
        "store.append_many_s": total.get("store.append_many", 0.0),
        "store.append_telemetry_s": total.get("store.append_telemetry", 0.0),
        "store.write_summary_s": total.get("store.write_summary", 0.0),
        "store.load_s": total.get("store.load", 0.0),
        "store.bytes": int(store_bytes),
        "store.busy_retries": int(busy_retries),
        "store.quarantined": int(quarantined),
        "executor.map_tasks_s": map_s,
        "executor.chunk_queue_s": sum(q for _w, q in queue) / len(queue) if queue else 0.0,
        "executor.busy_frac": cell_wall / (workers * map_s) if map_s else 0.0,
        "coordinator.plan_leases_s": total.get("coordinator.plan_leases", 0.0),
        "coordinator.leases": int(leases.get("planned", 0)),
        "coordinator.leases_split": int(leases.get("split", 0)),
        "coordinator.stolen": int(leases.get("stolen", 0)),
        "coordinator.respawns": int(leases.get("respawns", 0)),
        "coordinator.recovery_rounds": int(leases.get("recovery_rounds", 0)),
        "coordinator.busy_frac": cell_wall / (workers * wall) if leases and wall > 0 else 0.0,
        "coordinator.worker_import_s": sum(imports) / len(imports) if imports else 0.0,
        "span_coverage": share(
            covered(
                [(spans[i][1], spans[i][2]) for i in idxs if spans[i][3] == root]
                + [
                    (s[1], last_cell[s[5]])
                    for s in spawns
                    if s[5] in last_cell
                ],
                spans[root][1],
                spans[root][2],
            )
        ),
    }


def _tally(reasons: Mapping[str, int], prefix: str) -> int:
    return sum(int(n) for r, n in reasons.items() if r.startswith(prefix))


def _outer_total(spans, idxs, root: int, prefixes: tuple) -> float:
    """Summed duration of the spans named by ``prefixes`` that do not sit
    inside another such span (below ``root``): nested calls of the same
    layer, e.g. ``load`` inside ``write_summary``, count once."""

    def nested(i: int) -> bool:
        p = spans[i][3]
        while p is not None and p != root:
            if spans[p][0].startswith(prefixes):
                return True
            p = spans[p][3]
        return False

    return sum(
        spans[i][2] - spans[i][1]
        for i in idxs
        if spans[i][0].startswith(prefixes) and not nested(i)
    )

"""Shared fixtures and artefact reporting for the benchmark harness.

Every benchmark regenerates one paper artefact (figure panel, table, or
theory result) at full paper scale, prints it in the paper's layout,
and asserts the qualitative *shape* criteria from DESIGN.md.  Absolute
delays differ from the paper's ns-2/SPARC numbers by construction; the
shapes (who wins, crossover position, growth trends) must hold.

Benchmarks run once per artefact (``benchmark.pedantic`` with a single
round) -- they are measurements of the reproduction pipeline, not
micro-benchmarks; kernel-level micro-benchmarks live in
``test_bench_kernels.py``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.runtime.executor import SerialExecutor
from repro.scenarios.runner import evaluate_cell, finalise_batch

#: Machine-readable benchmark trajectory files, written at the repo
#: root so successive PRs accumulate comparable first-class numbers
#: (one ``BENCH_prN.json`` per PR that shipped a perf surface).
_REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PR3_PATH = _REPO_ROOT / "BENCH_pr3.json"
BENCH_PR4_PATH = _REPO_ROOT / "BENCH_pr4.json"
BENCH_PR5_PATH = _REPO_ROOT / "BENCH_pr5.json"
BENCH_PR6_PATH = _REPO_ROOT / "BENCH_pr6.json"
BENCH_PR7_PATH = _REPO_ROOT / "BENCH_pr7.json"
BENCH_PR8_PATH = _REPO_ROOT / "BENCH_pr8.json"


@pytest.fixture(scope="session")
def artifact_report():
    """Collects rendered artefacts and prints them at session end."""
    chunks: list[str] = []
    yield chunks
    if chunks:
        print("\n" + "\n\n".join(chunks))


#: Worker count of the parallel-speedup benchmarks; floors are
#: asserted only on boxes with at least this many cores (mirrored by
#: the per-file PARALLEL_JOBS constants in the benchmark modules).
PARALLEL_JOBS = 4


def _merge_bench_file(path: Path, pr: int, data: dict) -> None:
    """Merge collected metrics into a trajectory file (sections merge,
    not replace, so opt-in ``-m scenario`` runs can add their numbers
    to a file produced by a default run).

    Every file carries a prominent top-level ``context`` block
    describing **the box that last wrote the file** (cross-machine
    merges keep each section's own ``cpu_count`` where recorded):
    parallel-speedup sections are meaningless without it -- a 4-job
    campaign on a 1-core container is *expected* to run below 1x, and
    the speedup floors are asserted only on >= ``PARALLEL_JOBS``
    cores.
    """
    if not data:
        return
    existing: dict = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except ValueError:
            existing = {}
    existing.update(data)
    existing["pr"] = pr
    cores = os.cpu_count() or 1
    existing["context"] = {
        "cpu_count": cores,
        "parallel_floors_asserted": cores >= PARALLEL_JOBS,
        "describes": "the machine that last regenerated this file",
    }
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    print(f"\n{path.name} updated: {sorted(data)}")


@pytest.fixture(scope="session")
def bench_pr3():
    """Collects PR-3 perf metrics; merged into ``BENCH_pr3.json``."""
    data: dict = {}
    yield data
    _merge_bench_file(BENCH_PR3_PATH, 3, data)


@pytest.fixture(scope="session")
def bench_pr4():
    """Collects PR-4 store metrics; merged into ``BENCH_pr4.json``."""
    data: dict = {}
    yield data
    _merge_bench_file(BENCH_PR4_PATH, 4, data)


@pytest.fixture(scope="session")
def bench_pr5():
    """Collects PR-5 fast-path metrics; merged into ``BENCH_pr5.json``."""
    data: dict = {}
    yield data
    _merge_bench_file(BENCH_PR5_PATH, 5, data)


@pytest.fixture(scope="session")
def bench_pr6():
    """Collects PR-6 cell-matrix metrics; merged into ``BENCH_pr6.json``."""
    data: dict = {}
    yield data
    _merge_bench_file(BENCH_PR6_PATH, 6, data)


@pytest.fixture(scope="session")
def bench_pr7():
    """Collects PR-7 telemetry-overhead metrics; merged into ``BENCH_pr7.json``."""
    data: dict = {}
    yield data
    _merge_bench_file(BENCH_PR7_PATH, 7, data)


@pytest.fixture(scope="session")
def bench_pr8():
    """Collects PR-8 fault-tolerance metrics; merged into ``BENCH_pr8.json``."""
    data: dict = {}
    yield data
    _merge_bench_file(BENCH_PR8_PATH, 8, data)


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def run_percell(cells, **map_kwargs):
    """The per-cell reference the grouped path is measured against:
    ``evaluate_cell`` on every cell in process (``map_kwargs`` go to
    ``SerialExecutor.map_tasks``), then the same vectorised bounds and
    verdicts as ``run_batch``."""
    t0 = time.perf_counter()
    tasks = SerialExecutor().map_tasks(evaluate_cell, cells, **map_kwargs)
    return finalise_batch(cells, tasks, time.perf_counter() - t0)

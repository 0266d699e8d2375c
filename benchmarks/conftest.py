"""Shared fixtures and artefact reporting for the benchmark harness.

Every benchmark regenerates one paper artefact (figure panel, table, or
theory result) at full paper scale, prints it in the paper's layout,
and asserts the qualitative *shape* criteria (the "Expected shape" of
each experiment module's docstring, after the paper's text).  Absolute
delays differ from the paper's ns-2/SPARC numbers by construction; the
shapes (who wins, crossover position, growth trends) must hold.

Benchmarks run once per artefact (``benchmark.pedantic`` with a single
round) -- they are measurements of the reproduction pipeline, not
micro-benchmarks; kernel-level micro-benchmarks live in
``test_bench_kernels.py``.

The ``bench_prN`` fixtures only collect a test's metrics for its own
floor assertions.  The ``BENCH_prN.json`` files at the repo root are
frozen history that no test rewrites; ``bench/run.py`` (see
``bench/README.md``) is the repeated, noise-banded yardstick.
"""

from __future__ import annotations

import time

import pytest

from repro.runtime.executor import run_each
from repro.scenarios.runner import evaluate_cell, finalise_batch


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


@pytest.fixture(scope="session")
def bench_pr3():
    """Collects PR-3 perf metrics (``BENCH_pr3.json`` is frozen)."""
    return {}


@pytest.fixture(scope="session")
def bench_pr4():
    """Collects PR-4 store metrics (``BENCH_pr4.json`` is frozen)."""
    return {}


@pytest.fixture(scope="session")
def bench_pr5():
    """Collects PR-5 fast-path metrics (``BENCH_pr5.json`` is frozen)."""
    return {}


@pytest.fixture(scope="session")
def bench_pr6():
    """Collects PR-6 cell-matrix metrics (``BENCH_pr6.json`` is frozen)."""
    return {}


@pytest.fixture(scope="session")
def bench_pr7():
    """Collects PR-7 telemetry metrics (``BENCH_pr7.json`` is frozen)."""
    return {}


@pytest.fixture(scope="session")
def bench_pr8():
    """Collects PR-8 fault metrics (``BENCH_pr8.json`` is frozen)."""
    return {}


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def run_percell(cells, worker=evaluate_cell, **map_kwargs):
    """Cells evaluated one at a time: ``worker`` (default
    ``evaluate_cell``) on every cell in process (``map_kwargs`` go to
    ``run_each``), then the same vectorised bounds and verdicts as
    ``run_batch``."""
    t0 = time.perf_counter()
    tasks = run_each(worker, cells, **map_kwargs)
    return finalise_batch(cells, tasks, time.perf_counter() - t0)

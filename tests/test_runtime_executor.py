"""The executor contract: ordered results, captured failures.

The in-process loop (``run_each``) and the process pool (a batch
function mapped over chunks) must each return one ``TaskResult`` per
payload in payload order, with worker exceptions converted into
per-cell error records rather than raised -- the property the campaign
runner's "one crashing cell fails its verdict, not the campaign"
guarantee stands on.
"""

import functools

import pytest

from repro.experiments.cli import executor_for_jobs
from repro.runtime.executor import ProcessExecutor, auto_chunksize, run_each

pytestmark = pytest.mark.runtime


def _square(x):
    """Module-level so the process backend can pickle it."""
    return x * x


def _explode_on_seven(x):
    if x == 7:
        raise RuntimeError("cell seven is cursed")
    return x + 1


def _contiguous(n, size):
    """The chunk plan of contiguous ``size``-payload chunks."""
    return [list(range(lo, min(lo + size, n))) for lo in range(0, n, size)]


class _Backend:
    """One way to evaluate ``fn`` over payloads: in process through
    ``run_each``, or through the pool as ``partial(run_each, fn)``,
    with automatic chunks or contiguous chunks of ``chunk``."""

    def __init__(self, kind, chunk=None):
        self.kind = kind
        self.chunk = chunk

    def map(self, fn, payloads, progress=None):
        if self.kind == "serial":
            return run_each(fn, payloads, tick=progress)
        plan = None if self.chunk is None else _contiguous(len(payloads), self.chunk)
        return ProcessExecutor(jobs=2).map_tasks(
            functools.partial(run_each, fn),
            payloads,
            progress=progress,
            chunk_plan=plan,
        )


ALL_BACKENDS = [_Backend("serial"), _Backend("process"), _Backend("process", 3)]


@pytest.mark.parametrize(
    "executor", ALL_BACKENDS, ids=lambda e: f"{e.kind}-c{e.chunk}"
)
class TestContract:
    def test_results_in_payload_order(self, executor):
        payloads = list(range(23))
        results = executor.map(_square, payloads)
        assert [r.index for r in results] == payloads
        assert [r.value for r in results] == [x * x for x in payloads]
        assert all(r.ok for r in results)
        assert all(r.wall_time >= 0.0 for r in results)

    def test_exception_captured_per_cell(self, executor):
        results = executor.map(_explode_on_seven, list(range(12)))
        bad = [r for r in results if not r.ok]
        assert [r.index for r in bad] == [7]
        assert "cell seven is cursed" in bad[0].error
        assert bad[0].value is None
        good = [r for r in results if r.ok]
        assert len(good) == 11
        assert all(r.value == r.index + 1 for r in good)

    def test_empty_payloads(self, executor):
        assert executor.map(_square, []) == []

    def test_progress_reaches_total(self, executor):
        seen = []
        executor.map(
            _square, list(range(10)), progress=lambda done, n: seen.append((done, n))
        )
        assert seen[-1] == (10, 10)
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)


class TestChunking:
    def test_auto_chunksize_bounds(self):
        assert auto_chunksize(0, 4) == 1
        assert auto_chunksize(1, 4) == 1
        assert auto_chunksize(1000, 1) == 16  # capped
        assert auto_chunksize(8, 4) == 1      # plenty of chunks per worker
        assert 1 <= auto_chunksize(100, 4) <= 16

    def test_bad_chunk_plan_rejected(self):
        pool = ProcessExecutor(jobs=2)
        batch = functools.partial(run_each, _square)
        for plan in ([[0, 1]], [[0, 1, 2], [2]], [[0, 1, 3]]):
            with pytest.raises(ValueError, match="chunk plan"):
                pool.map_tasks(batch, [1, 2, 3], chunk_plan=plan)

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            ProcessExecutor(jobs=0)


class TestFactory:
    """``scenarios run --jobs N`` picks its executor from the job count."""

    def test_default_serial_for_one_job(self):
        assert executor_for_jobs(1) is None

    def test_default_process_for_many_jobs(self):
        ex = executor_for_jobs(3)
        assert isinstance(ex, ProcessExecutor)
        assert ex.jobs == 3

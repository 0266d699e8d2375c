"""The executor contract: ordered results, captured failures.

Every backend must return one ``TaskResult`` per payload in payload
order, with worker exceptions converted into per-cell error records
rather than raised -- the property the campaign runner's "one crashing
cell fails its verdict, not the campaign" guarantee stands on.
"""

import pytest

from repro.experiments.cli import executor_for_jobs
from repro.runtime.executor import (
    ProcessExecutor,
    SerialExecutor,
    auto_chunksize,
)

pytestmark = pytest.mark.runtime

ALL_EXECUTORS = [
    SerialExecutor(),
    ProcessExecutor(jobs=2),
    ProcessExecutor(jobs=2, chunksize=3),
]


def _square(x):
    """Module-level so the process backend can pickle it."""
    return x * x


def _explode_on_seven(x):
    if x == 7:
        raise RuntimeError("cell seven is cursed")
    return x + 1


@pytest.mark.parametrize(
    "executor", ALL_EXECUTORS, ids=lambda e: f"{e.kind}-c{getattr(e, 'chunksize', None)}"
)
class TestContract:
    def test_results_in_payload_order(self, executor):
        payloads = list(range(23))
        results = executor.map_tasks(_square, payloads)
        assert [r.index for r in results] == payloads
        assert [r.value for r in results] == [x * x for x in payloads]
        assert all(r.ok for r in results)
        assert all(r.wall_time >= 0.0 for r in results)

    def test_exception_captured_per_cell(self, executor):
        results = executor.map_tasks(_explode_on_seven, list(range(12)))
        bad = [r for r in results if not r.ok]
        assert [r.index for r in bad] == [7]
        assert "cell seven is cursed" in bad[0].error
        assert bad[0].value is None
        good = [r for r in results if r.ok]
        assert len(good) == 11
        assert all(r.value == r.index + 1 for r in good)

    def test_empty_payloads(self, executor):
        assert executor.map_tasks(_square, []) == []

    def test_progress_reaches_total(self, executor):
        seen = []
        executor.map_tasks(
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

    def test_bad_chunksize_rejected(self):
        with pytest.raises(ValueError, match="chunksize"):
            ProcessExecutor(jobs=2, chunksize=0)

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            ProcessExecutor(jobs=0)


class TestFactory:
    """``scenarios run --jobs N`` picks its executor from the job count."""

    def test_default_serial_for_one_job(self):
        assert isinstance(executor_for_jobs(1), SerialExecutor)

    def test_default_process_for_many_jobs(self):
        ex = executor_for_jobs(3)
        assert isinstance(ex, ProcessExecutor)
        assert ex.jobs == 3

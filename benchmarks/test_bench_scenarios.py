"""Batched scenario-runner throughput (scenarios/sec).

The scenario matrix is only a usable regression net if sweeping
hundreds of cells stays cheap; these benchmarks time the three cost
centres -- generation, the vectorised analytic pass, and the full
realise+simulate+verdict pipeline -- and assert generous throughput
floors so CI noise does not flake.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import run_once
from repro.runtime import ProcessExecutor
from repro.scenarios import generate_scenarios, run_batch
from repro.scenarios.analytic import batch_bounds
from repro.scenarios.tracebatch import realise_batch

#: Worker count of the parallel throughput benchmark.
PARALLEL_JOBS = 4
#: Speedup floor asserted when the hardware can actually host the
#: workers; recorded (extra_info) but not asserted on smaller boxes,
#: where process parallelism cannot beat serial by construction.
SPEEDUP_FLOOR = 2.0


def test_generate_200_scenarios(benchmark):
    scenarios = benchmark(generate_scenarios, 200, 0)
    assert len(scenarios) == 200


def test_vectorised_analytic_pass(benchmark):
    """The batched bound evaluation over 200 realised envelope sets."""
    scenarios = generate_scenarios(200, seed=0)
    realised, _ = realise_batch(scenarios)
    envs = [r.envelopes for r in realised]
    modes = [sc.effective_mode(e) for sc, e in zip(scenarios, envs)]
    bounds, baselines = benchmark(batch_bounds, envs, modes)
    assert bounds.shape == (200,)
    assert baselines.shape == (200,)


def test_batched_runner_throughput(benchmark, artifact_report):
    """End-to-end matrix evaluation: realise, simulate, verdict."""
    scenarios = generate_scenarios(100, seed=0)
    report = run_once(benchmark, run_batch, scenarios)
    assert not report.violations
    # Floor: the 100-cell matrix must stream at >= 10 scenarios/s
    # (observed ~100/s; an order of magnitude of headroom for CI).
    assert report.scenarios_per_sec >= 10.0
    artifact_report.append(
        "== Scenario matrix throughput ==\n"
        + "\n".join(report.summary_lines())
    )


def test_parallel_vs_serial_throughput(benchmark, artifact_report):
    """Parallel campaign speedup over the serial runner (same matrix).

    The speedup lands in the benchmark JSON (``extra_info``) so runs on
    different hardware are comparable; the >= 2x floor at 4 workers is
    asserted only where >= 4 cores exist -- on smaller machines process
    parallelism cannot win and the number is recorded as-is.
    """
    scenarios = generate_scenarios(96, seed=0)
    t0 = time.perf_counter()
    serial = run_batch(scenarios)
    serial_elapsed = time.perf_counter() - t0
    parallel = run_once(
        benchmark, run_batch, scenarios,
        executor=ProcessExecutor(jobs=PARALLEL_JOBS),
    )
    assert not serial.violations and not parallel.violations
    # Identical verdicts either way (the determinism contract).
    assert [o.measured for o in parallel.outcomes] == [
        o.measured for o in serial.outcomes
    ]
    speedup = serial_elapsed / parallel.elapsed if parallel.elapsed else 0.0
    cores = os.cpu_count() or 1
    benchmark.extra_info["jobs"] = PARALLEL_JOBS
    benchmark.extra_info["cpu_count"] = cores
    benchmark.extra_info["serial_scenarios_per_sec"] = round(
        serial.scenarios_per_sec, 1
    )
    benchmark.extra_info["parallel_scenarios_per_sec"] = round(
        parallel.scenarios_per_sec, 1
    )
    benchmark.extra_info["speedup_x"] = round(speedup, 2)
    if cores >= PARALLEL_JOBS:
        assert speedup >= SPEEDUP_FLOOR, (
            f"{PARALLEL_JOBS}-worker campaign only {speedup:.2f}x over serial"
        )
    artifact_report.append(
        "== Parallel campaign speedup ==\n"
        f"cells: {len(scenarios)}, jobs: {PARALLEL_JOBS}, cores: {cores}\n"
        f"serial:   {serial.scenarios_per_sec:.1f} scenarios/s\n"
        f"parallel: {parallel.scenarios_per_sec:.1f} scenarios/s\n"
        f"speedup:  {speedup:.2f}x"
        + ("" if cores >= PARALLEL_JOBS else "  (floor not asserted: too few cores)")
    )

"""Fault-tolerance overhead benchmark (the PR-8 robustness numbers).

The retry/timeout machinery is opt-in, but campaigns that want it must
not pay for robustness they never use: with a :class:`RetryPolicy` and
a ``cell_timeout`` armed and **zero faults occurring**, the hardened
per-cell path (attempt scoping, SIGALRM arming, retry bookkeeping) must
stay within 5% of the plain path on the cheapest cells in the repo --
the workload where fixed per-cell overhead is the largest relative
fraction.  A second measurement records what recovery actually costs:
the wall clock of a chaos campaign (injected raises/delays, bounded
retries) next to its undisturbed twin, with verdicts asserted identical
first -- the determinism invariant is a precondition for trusting
either number.
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_once, run_percell
from repro.runtime import RetryPolicy
from repro.runtime.executor import SerialExecutor
from repro.runtime.faults import FaultPlan
from repro.scenarios import run_batch
from repro.scenarios.spec import Scenario

#: Hard acceptance bar: hardened-path wall clock vs plain path.
OVERHEAD_CEILING = 1.05
#: Absolute cushion (seconds) so sub-second timer noise cannot flake
#: a ratio assertion that the averages comfortably meet.
ABS_CUSHION_S = 0.05

#: Interleaved plain/hardened timing rounds; best-of each side.
ROUNDS = 4

N_CELLS = 192


def _closed_form_matrix(n: int = N_CELLS, k: int = 12):
    """Homogeneous shared-CBR adversarial hosts: the cheapest cells per
    unit, hence the worst case for fixed per-cell overhead."""
    return [
        Scenario(
            name=f"flt-{i}",
            kinds=("cbr",) * k,
            utilization=0.55 + 0.0005 * (i % 64),
            mode="sigma-rho",
            backend="fluid",
            horizon=0.5,
            seed=i,
        )
        for i in range(n)
    ]


def _timed(fn, cells, **kwargs):
    t0 = time.perf_counter()
    report = fn(cells, **kwargs)
    return time.perf_counter() - t0, report


def _plain_hardened_best(cells):
    """Best-of-N interleaved plain/hardened per-cell timings (noise
    lands on both sides of the ratio)."""
    hardened_kwargs = dict(
        retry=RetryPolicy(max_attempts=3),
        cell_timeout=300.0,
    )
    t_plain = t_hard = float("inf")
    plain = hard = None
    for _ in range(ROUNDS):
        t, plain = _timed(run_percell, cells)
        t_plain = min(t_plain, t)
        t, hard = _timed(run_percell, cells, **hardened_kwargs)
        t_hard = min(t_hard, t)
    return t_plain, t_hard, plain, hard


def test_fault_tolerance_overhead_under_five_percent(
    benchmark, bench_pr8, artifact_report
):
    cells = _closed_form_matrix()

    def measure():
        t_plain, t_hard, plain, hard = _plain_hardened_best(cells)
        # The recovery price: the same matrix under injected raises and
        # delays, retried to a clean finish, vs its undisturbed twin.
        t_chaos, chaos = _timed(
            run_batch,
            cells,
            executor=SerialExecutor(),
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0),
            fault_plan=FaultPlan(seed=7, rate=0.15, kinds=("raise", "delay")),
        )
        return t_plain, t_hard, plain, hard, t_chaos, chaos

    t_plain, t_hard, plain, hard, t_chaos, chaos = run_once(
        benchmark, measure
    )

    # Verdicts first: the hardened path and the recovered chaos run
    # must both be invisible in the results.
    for a, b, c in zip(plain.outcomes, hard.outcomes, chaos.outcomes):
        assert a.measured == b.measured == c.measured
        assert a.bound == b.bound == c.bound
        assert a.sound and b.sound and c.sound
        assert a.error is None and b.error is None and c.error is None
    retried = sum(1 for o in chaos.outcomes if o.attempts > 1)
    assert retried > 0  # the chaos side actually recovered something

    assert t_hard <= t_plain * OVERHEAD_CEILING + ABS_CUSHION_S, (
        f"hardened path overhead "
        f"{100.0 * (t_hard / t_plain - 1.0):.1f}% exceeds the 5% bar"
    )

    bench_pr8["fault_tolerance_overhead"] = {
        "cells": N_CELLS,
        "plain_s": t_plain,
        "hardened_s": t_hard,
        "hardened_overhead": t_hard / t_plain - 1.0,
        "chaos_recovered_s": t_chaos,
        "chaos_retried_cells": retried,
        "ceiling": OVERHEAD_CEILING - 1.0,
    }
    artifact_report.append(
        "== Fault-tolerance overhead (closed-form fluid campaign, "
        f"{N_CELLS} cells) ==\n"
        f"plain:            {1e3 * t_plain:7.1f} ms\n"
        f"hardened (no faults): {1e3 * t_hard:7.1f} ms   overhead "
        f"{100.0 * (t_hard / t_plain - 1.0):+5.1f}%\n"
        f"chaos, recovered: {1e3 * t_chaos:7.1f} ms   "
        f"({retried} cells retried, verdicts identical)"
    )

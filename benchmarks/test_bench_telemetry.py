"""Telemetry overhead benchmark (the PR-7 observability numbers).

Telemetry is on by default, so its cost rides every campaign ever run
from here on -- the acceptance bar is a hard <= 5% overhead on the
end-to-end throughput path.  Collection is designed to stay inside
that: plain attribute writes and dict bumps against a thread-local
active cell, no I/O, no locks, no string formatting on the hot path.

The measured workload is the grouped closed-form campaign from the
PR-6 benchmarks (homogeneous shared-CBR adversarial hosts): the
fastest per-cell path in the repo, i.e. the one where a fixed per-cell
collection cost is the *largest* relative fraction.  Per-cell and
grouped paths are both measured; verdicts are asserted identical with
collection on and off before any timing is trusted.

Floors are ratios of best-of-N wall clocks with a small absolute
cushion (container timer noise on sub-second runs easily exceeds 5%
of a single cell), mirroring the style of the other bench modules.
The off/on rounds are *interleaved* so a transient load spike on the
shared CI box lands on both sides of the ratio instead of flaking one.
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_once, run_percell
from repro.runtime import set_telemetry_enabled, telemetry_enabled
from repro.scenarios import run_batch
from repro.scenarios.spec import Scenario

#: Hard acceptance bar: telemetry-on wall clock vs telemetry-off.
OVERHEAD_CEILING = 1.05
#: Absolute cushion (seconds) so sub-second timer noise cannot flake
#: a ratio assertion that the averages comfortably meet.
ABS_CUSHION_S = 0.05

#: Interleaved off/on timing rounds per path; best-of each side.
ROUNDS = 4

N_CELLS = 192


def _closed_form_matrix(n: int = N_CELLS, k: int = 12):
    """Homogeneous shared-CBR adversarial hosts (one SoA group): the
    cheapest cells per unit, hence the worst case for fixed overhead."""
    return [
        Scenario(
            name=f"tel-{i}",
            kinds=("cbr",) * k,
            utilization=0.55 + 0.0005 * (i % 64),
            mode="sigma-rho",
            backend="fluid",
            horizon=0.5,
            seed=i,
        )
        for i in range(n)
    ]


def _timed_run(cells, *, telemetry: bool, grouped: bool):
    was = telemetry_enabled()
    set_telemetry_enabled(telemetry)
    try:
        t0 = time.perf_counter()
        report = (
            run_batch(cells)
            if grouped
            else run_percell(cells)
        )
        return time.perf_counter() - t0, report
    finally:
        set_telemetry_enabled(was)


def _off_on_best(cells, *, grouped: bool):
    """Best-of-N interleaved off/on timings (noise hits both sides)."""
    t_off = t_on = float("inf")
    off = on = None
    for _ in range(ROUNDS):
        t, off = _timed_run(cells, telemetry=False, grouped=grouped)
        t_off = min(t_off, t)
        t, on = _timed_run(cells, telemetry=True, grouped=grouped)
        t_on = min(t_on, t)
    return t_off, t_on, off, on


def test_telemetry_overhead_under_five_percent(
    benchmark, bench_pr7, artifact_report
):
    cells = _closed_form_matrix()

    def measure():
        return {
            "grouped": _off_on_best(cells, grouped=True),
            "percell": _off_on_best(cells, grouped=False),
        }

    runs = run_once(benchmark, measure)
    for path, (t_off, t_on, off, on) in runs.items():
        # Verdicts first: collection must be invisible to results.
        for a, b in zip(off.outcomes, on.outcomes):
            assert a.measured == b.measured and a.bound == b.bound
            assert a.sound == b.sound and a.error == b.error
        assert t_on <= t_off * OVERHEAD_CEILING + ABS_CUSHION_S, (
            f"{path}: telemetry overhead "
            f"{100.0 * (t_on / t_off - 1.0):.1f}% exceeds the 5% bar"
        )

    t_off_grp, t_on_grp, _, on_grp = runs["grouped"]
    t_off_per, t_on_per, _, _ = runs["percell"]
    n_tel = sum(1 for o in on_grp.outcomes if o.telemetry is not None)
    assert n_tel == N_CELLS  # collection actually ran
    bench_pr7["telemetry_overhead"] = {
        "cells": N_CELLS,
        "grouped_off_s": t_off_grp,
        "grouped_on_s": t_on_grp,
        "grouped_overhead": t_on_grp / t_off_grp - 1.0,
        "percell_off_s": t_off_per,
        "percell_on_s": t_on_per,
        "percell_overhead": t_on_per / t_off_per - 1.0,
        "ceiling": OVERHEAD_CEILING - 1.0,
    }
    artifact_report.append(
        "== Telemetry overhead (closed-form fluid campaign, "
        f"{N_CELLS} cells) ==\n"
        f"grouped:  off {1e3 * t_off_grp:7.1f} ms   on {1e3 * t_on_grp:7.1f} ms"
        f"   overhead {100.0 * (t_on_grp / t_off_grp - 1.0):+5.1f}%\n"
        f"per-cell: off {1e3 * t_off_per:7.1f} ms   on {1e3 * t_on_per:7.1f} ms"
        f"   overhead {100.0 * (t_on_per / t_off_per - 1.0):+5.1f}%"
    )

"""Structure-of-arrays cell-matrix benchmarks (the PR-6 tentpole numbers).

PR 5 made single cells cheap; PR 6 makes the *matrix* cheap: cells
sharing ``(backend, discipline, topology, mode)`` evaluate as one
grouped pass -- sources built once per parameter point, traces and
sigma measurements deduplicated within each cell, fluid lanes packed
into padded matrices for the ``batch_fluid_*`` kernels, DES cells run
through the primed host kernel with regulator passes shared across
flows on the same trace.  Results stay bit-identical to the per-cell
reference (``tests/reference.py``: per-cell realisation and the scalar
simulators; ``tests/test_scenarios_cellmatrix`` enforces it); these
benchmarks measure the throughput side against that reference, the
code the floors were set on (the frozen ``BENCH_pr6.json`` at the repo
root holds their history).  ``evaluate_cell`` itself is a batch of one
through the grouped kernels, so it is not the per-cell side here.

The homogeneous closed-form campaigns (k = 12 shared CBR flows per
cell: the per-cell path shapes and measures 12 lanes, the grouped path
one) are where grouping pays most; observed on the reference container
~8x fluid and ~7.5x DES end-to-end through ``run_batch``.  Floors keep
generous headroom so CI noise does not flake:

* fluid sigma-rho closed-form campaign >= 5x grouped over per-cell;
* DES sigma-rho closed-form campaign >= 4x grouped over per-cell;
* the mixed generated matrix (chains/trees/adaptive cells fall back
  per-cell) must never regress below 0.7x -- grouping is default-on
  for serial runs, so near-parity on unfavourable matrices is part of
  the contract.
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_once, run_percell
from repro.runtime.executor import SerialExecutor
from repro.scenarios import generate_scenarios, run_batch
from repro.scenarios.spec import Scenario
from tests.reference import reference_cell

#: Asserted floor: grouped vs per-cell on the fluid closed-form campaign.
FLUID_GROUPED_FLOOR = 5.0
#: Asserted floor: grouped vs per-cell on the DES closed-form campaign.
DES_GROUPED_FLOOR = 4.0
#: Asserted floor: grouped vs per-cell on the mixed generated matrix.
MIXED_PARITY_FLOOR = 0.7

N_CELLS = 256


def _closed_form_matrix(backend: str, n: int = N_CELLS, k: int = 12):
    """One SoA group: homogeneous shared-CBR adversarial hosts whose
    utilisation sweeps 64 parameter points."""
    return [
        Scenario(
            name=f"soa-{backend}-{i}",
            kinds=("cbr",) * k,
            utilization=0.55 + 0.0005 * (i % 64),
            mode="sigma-rho",
            backend=backend,
            horizon=0.5,
            seed=i,
        )
        for i in range(n)
    ]


def _best_of(n: int, fn, *args, **kwargs):
    best = float("inf")
    result = None
    for _ in range(n):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _grouped_vs_percell(cells):
    t_per, per = _best_of(2, run_percell, cells, worker=reference_cell)
    t_grp, grp = _best_of(2, run_batch, cells, executor=SerialExecutor())
    for p, g in zip(per.outcomes, grp.outcomes):
        assert g.measured == p.measured and g.bound == p.bound
        assert g.events == p.events and g.sound == p.sound
    return t_per, t_grp


def test_fluid_closed_form_campaign_grouped_speedup(
    benchmark, bench_pr6, artifact_report
):
    cells = _closed_form_matrix("fluid")
    run_once(benchmark, run_batch, cells, executor=SerialExecutor())
    t_per, t_grp = _grouped_vs_percell(cells)
    speedup = t_per / t_grp
    bench_pr6["fluid_closed_form"] = {
        "cells": len(cells),
        "flows_per_cell": 12,
        "percell_seconds": round(t_per, 3),
        "percell_cells_per_sec": round(len(cells) / t_per, 1),
        "grouped_seconds": round(t_grp, 3),
        "grouped_cells_per_sec": round(len(cells) / t_grp, 1),
        "speedup_x": round(speedup, 2),
    }
    benchmark.extra_info.update(bench_pr6["fluid_closed_form"])
    artifact_report.append(
        "== SoA cell matrix: fluid sigma-rho closed form ==\n"
        f"cells:    {len(cells)} (12 shared CBR flows each)\n"
        f"per-cell: {len(cells) / t_per:.0f} cells/s ({t_per:.2f}s)\n"
        f"grouped:  {len(cells) / t_grp:.0f} cells/s ({t_grp:.2f}s)\n"
        f"speedup:  {speedup:.1f}x"
    )
    assert speedup >= FLUID_GROUPED_FLOOR, (
        f"grouped fluid campaign only {speedup:.2f}x over per-cell"
    )


def test_des_closed_form_campaign_grouped_speedup(bench_pr6, artifact_report):
    cells = _closed_form_matrix("des")
    t_per, t_grp = _grouped_vs_percell(cells)
    speedup = t_per / t_grp
    bench_pr6["des_closed_form"] = {
        "cells": len(cells),
        "flows_per_cell": 12,
        "percell_seconds": round(t_per, 3),
        "percell_cells_per_sec": round(len(cells) / t_per, 1),
        "grouped_seconds": round(t_grp, 3),
        "grouped_cells_per_sec": round(len(cells) / t_grp, 1),
        "speedup_x": round(speedup, 2),
    }
    artifact_report.append(
        "== SoA cell matrix: DES sigma-rho closed form ==\n"
        f"cells:    {len(cells)} (12 shared CBR flows each)\n"
        f"per-cell: {len(cells) / t_per:.0f} cells/s ({t_per:.2f}s)\n"
        f"grouped:  {len(cells) / t_grp:.0f} cells/s ({t_grp:.2f}s)\n"
        f"speedup:  {speedup:.1f}x"
    )
    assert speedup >= DES_GROUPED_FLOOR, (
        f"grouped DES campaign only {speedup:.2f}x over per-cell"
    )


def test_mixed_matrix_grouped_never_regresses(bench_pr6, artifact_report):
    """Grouping is default-on for serial runs, so the unfavourable
    case -- a generated matrix full of fallback cells -- must stay at
    near-parity."""
    cells = generate_scenarios(192, seed=23)
    t_per, t_grp = _grouped_vs_percell(cells)
    ratio = t_per / t_grp
    bench_pr6["mixed_generated"] = {
        "cells": len(cells),
        "percell_cells_per_sec": round(len(cells) / t_per, 1),
        "grouped_cells_per_sec": round(len(cells) / t_grp, 1),
        "grouped_over_percell_x": round(ratio, 2),
    }
    artifact_report.append(
        "== SoA cell matrix: mixed generated matrix ==\n"
        f"cells:    {len(cells)} (hosts + chain/tree/adaptive fallback)\n"
        f"per-cell: {len(cells) / t_per:.0f} cells/s\n"
        f"grouped:  {len(cells) / t_grp:.0f} cells/s "
        f"({ratio:.2f}x)"
    )
    assert ratio >= MIXED_PARITY_FLOOR, (
        f"grouped evaluation regressed the mixed matrix to {ratio:.2f}x"
    )

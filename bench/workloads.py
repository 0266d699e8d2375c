"""The five canonical campaign workloads and their correctness checks.

Every workload is a batch campaign in a closed loop: the whole matrix
is offered at t=0 and the benchmark reports cells per second at the
stated matrix size.  No workload starts more than two worker
processes, so the load fits a 2-core box.

The seed a run is given drives the traffic realisation of every cell
(each cell's ``Scenario.seed``).  The *shape* of each matrix -- which
cells exist, their topology, backend, mode and population -- is drawn
once from the workload's own structure seed and never changes.  A
different ``--seed`` therefore gives different inputs of the same
composition, so throughput differences between seeds measure the code
and the traffic, not a reshuffled mix of cheap and dear cells.  At a
workload's default seed the matrix is exactly the one named in
``README.md`` (for ``thousand``: ``examples/campaign_thousand.json``).

This module imports nothing from ``repro`` at import time, so the
harness can list workloads in a process that never loads the library.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Mapping, Optional

__all__ = [
    "WORKLOADS",
    "Workload",
    "build_matrix",
    "check_records",
    "outcomes_digest",
    "results_digest",
    "run_workload",
]


@dataclass(frozen=True)
class Workload:
    """One canonical campaign: its matrix, executor and default seed."""

    name: str
    #: Seed used when none is given (and the one the digests pin).
    default_seed: int
    #: How the matrix is evaluated: ``serial``, ``jobs2`` or ``coord2``.
    executor: str
    #: Which matrix: ``thousand``, ``realise_bound`` or ``des``.
    matrix: str
    #: Store URL scheme (``""`` is a bare path, the JSONL default).
    store_scheme: str


#: Why each workload was chosen: ``BENCHMARK.json`` and ``README.md``.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("thousand", 2006, "serial", "thousand", ""),
        Workload("realise_bound", 0, "serial", "realise_bound", ""),
        Workload("des", 11, "serial", "des", ""),
        Workload("jobs2", 2006, "jobs2", "thousand", ""),
        Workload("coord2", 2006, "coord2", "thousand", "sqlite:"),
    )
}

#: ``examples/campaign_thousand.json``, inlined so that editing the
#: example never silently changes the benchmark (the pinned digests
#: would catch it, but only at the default seed).
THOUSAND_CONFIG = {
    "name": "thousand-cell-k9",
    "count": 1024,
    "seed": 2006,
    "max_k": 9,
    "max_hops": 6,
    "horizon": 1.5,
    "dt": 0.002,
    "perf_budget": 60.0,
}

#: The realisation-bound matrix: cells and flows per cell.
REALISE_BOUND_CELLS = 16384
REALISE_BOUND_FLOWS = 12
#: The DES matrix: cells, structure seed and horizon; every
#: ``DES_FIFO_EVERY``-th cell runs the FIFO discipline.
DES_CELLS = 1024
DES_STRUCTURE_SEED = 11
DES_HORIZON = 0.8
DES_FIFO_EVERY = 4


def _reseed(cells, seed: int):
    """Give every cell the realisation seed the generator would derive
    for campaign seed ``seed`` (identity at the structure seed)."""
    from dataclasses import replace

    from repro.runtime import spec_fingerprint
    from repro.utils.rng import derive_seed

    return [
        replace(sc, seed=derive_seed(seed, "cell", spec_fingerprint(sc)))
        for sc in cells
    ]


def build_matrix(matrix: str, seed: int, size: Optional[int] = None):
    """The scenario matrix ``matrix`` realised under ``seed``.

    ``size`` truncates the matrix (the harness tests use 16 cells); the
    benchmark always runs the full size.
    """
    from repro.runtime import CampaignConfig, build_campaign
    from repro.scenarios import Scenario, generate_scenarios

    if matrix == "thousand":
        cfg = CampaignConfig(**THOUSAND_CONFIG)
        if size is not None:
            cfg = CampaignConfig(**{**THOUSAND_CONFIG, "count": size})
        return _reseed(build_campaign(cfg), seed)
    if matrix == "realise_bound":
        n = size or REALISE_BOUND_CELLS
        return [
            Scenario(
                name=f"tb-{i}",
                kinds=("cbr",) * REALISE_BOUND_FLOWS,
                utilization=0.55 + 0.005 * (i % 8),
                mode="sigma-rho",
                backend="fluid",
                horizon=0.5,
                dt=4e-3,
                seed=seed * n + i,
                shared=False,
            )
            for i in range(n)
        ]
    if matrix == "des":
        from dataclasses import replace

        n = size or DES_CELLS
        # About 10% of generated cells are trees; 25% headroom covers it.
        drawn = generate_scenarios(
            n + n // 4 + 8, seed=DES_STRUCTURE_SEED, horizon=DES_HORIZON
        )
        hosts = [sc for sc in drawn if sc.topology != "tree"][:n]
        if len(hosts) < n:
            raise RuntimeError(f"des matrix drew only {len(hosts)} cells")
        return _reseed(
            [
                replace(
                    sc,
                    backend="des",
                    discipline=(
                        "fifo" if j % DES_FIFO_EVERY == DES_FIFO_EVERY - 1
                        else sc.discipline
                    ),
                )
                for j, sc in enumerate(hosts)
            ],
            seed,
        )
    raise ValueError(f"unknown matrix {matrix!r}")


def run_workload(executor: str, cells, store: str):
    """Evaluate ``cells`` into ``store`` the way ``executor`` names; returns
    the campaign's (or coordinator's) report."""
    from repro.runtime import ProcessExecutor, run_campaign, run_coordinator

    if executor == "serial":
        return run_campaign(cells, store=store)
    if executor == "jobs2":
        return run_campaign(cells, store=store, executor=ProcessExecutor(jobs=2))
    if executor == "coord2":
        return run_coordinator(cells, store=store, workers=2)
    raise ValueError(f"unknown executor {executor!r}")


def results_digest(records: Mapping[str, Mapping]) -> str:
    """sha256 over the key-sorted verdict fields of a loaded store.

    Covers ``(key, measured, bound, baseline_bound, eps, sound)``: the
    numbers a verdict rests on, none of the wall clocks.  Floats go
    through ``json`` (shortest round-trip repr, NaN allowed), so equal
    results hash equal on every backend.
    """
    rows = [
        [
            key,
            records[key].get("measured"),
            records[key].get("bound"),
            records[key].get("baseline_bound"),
            records[key].get("eps"),
            bool(records[key].get("sound")),
        ]
        for key in sorted(records)
    ]
    blob = json.dumps(rows, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def outcomes_digest(outcomes) -> str:
    """:func:`results_digest` of in-memory campaign outcomes, before any
    store round trip (the verdict fields only, not a whole record)."""
    from repro.runtime import cell_key

    return results_digest(
        {
            cell_key(o.scenario): {
                "measured": float(o.measured),
                "bound": float(o.bound),
                "baseline_bound": float(o.baseline_bound),
                "eps": float(o.eps),
                "sound": bool(o.sound),
            }
            for o in outcomes
        }
    )


def check_records(cells, records: Mapping[str, Mapping]) -> dict:
    """Verdict accounting of one finished campaign against its matrix.

    Returns ``unsound``, ``errors`` and ``missing`` (cells requested
    less records found for them, so 0 exactly when every cell has its
    own record) counts plus the store's ``results_digest``.
    """
    from repro.runtime import cell_key

    mine = [records[k] for k in {cell_key(sc) for sc in cells} if k in records]
    return {
        "requested": len(cells),
        "records": len(mine),
        "missing": len(cells) - len(mine),
        "unsound": sum(
            1 for r in mine if not r.get("sound") and not r.get("error")
        ),
        "errors": sum(1 for r in mine if r.get("error")),
        "digest": results_digest(records),
    }

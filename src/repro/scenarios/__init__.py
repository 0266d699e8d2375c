"""Scenario-matrix cross-validation at scale.

The paper's central claim is that the (sigma, rho, lambda) regulator's
analytic worst-case delay bounds (Theorems 1/2, Remark 1, and their
multicast forms in Theorems 7/8) hold under *any* admissible arrival
pattern and overlay configuration.  This package turns that claim into
a permanently enforced, large-surface invariant: hundreds of declarative
scenarios, each cross-validated analytic-vs-simulated with a per-cell
soundness verdict ``sim_delay <= analytic_bound + eps``.

Quick tour
----------
``Scenario`` (:mod:`repro.scenarios.spec`)
    One frozen record composing topology (single host / Theorem-7
    critical-path chain / DSCT tree over a transit-stub underlay),
    workload (homogeneous, heterogeneous, bursty, adversarial
    staggered-start), regulator configuration (mode, vacation stagger
    phase) and execution knobs (backend, horizon, dt, seed).  A
    process-wide registry makes curated scenarios addressable by name.

``analytic`` (:mod:`repro.scenarios.analytic`)
    Theorem 1/2 and Remark 1 restated as vectorised NumPy kernels over
    a NaN-padded ``(n_scenarios, K_max)`` parameter matrix, so the
    analytic side of a whole batch is one pass; pinned element-wise to
    the scalar reference implementations by the test suite.

``generator`` (:mod:`repro.scenarios.generator`)
    Seeded random scenario matrices -- every scenario a stable function
    of ``(seed, index)`` -- including a slice inside the Theorem 5
    heavy-load band ``rho_bar in [1/K - 1/K^(n+1), 1/K)``.

``corpus`` (:mod:`repro.scenarios.corpus`)
    The curated adversarial corpus: synchronised bursts, worst-phase
    vacation staggering, heavy-load band cells, staggered starts,
    multi-hop chains/trees, a DES slice, and one unstable (vacuously
    sound) cell.  Registered on package import.

``runner`` (:mod:`repro.scenarios.runner`)
    The batched driver, split into picklable stages: a worker stage
    (``evaluate_cell``: realise + simulate one cell) that any
    :mod:`repro.runtime` executor parallelises, then the vectorised
    analytic pass and per-cell verdicts on the parent; reported with
    throughput (scenarios/sec) and the closed-form DES passes run.
    Campaign-scale runs -- persistent stores, resume, diffing, perf
    budgets -- layer on top in :mod:`repro.runtime.campaign`.

Usage::

    from repro.scenarios import generate_scenarios, run_batch

    report = run_batch(generate_scenarios(200, seed=0))
    assert not report.violations

or from the shell::

    python -m repro.experiments.cli scenarios run --count 200 --seed 0
    python -m repro.experiments.cli scenarios list

The parametrized ``tests/test_scenarios_*`` family keeps a smoke slice
of the matrix in tier-1; the full matrix runs opt-in via
``pytest -m scenario``.
"""

from repro.scenarios.corpus import (
    adversarial_corpus,
    curate_records,
    load_curated,
    save_curated,
)
from repro.scenarios.generator import generate_scenarios
from repro.scenarios.runner import (
    BatchReport,
    ScenarioOutcome,
    run_batch,
    run_scenario,
)
from repro.scenarios.spec import (
    Scenario,
    get_scenario,
    register_scenario,
    registered_scenarios,
    scenario_from_dict,
    scenario_names,
)

__all__ = [
    "Scenario",
    "ScenarioOutcome",
    "BatchReport",
    "adversarial_corpus",
    "curate_records",
    "generate_scenarios",
    "load_curated",
    "run_batch",
    "run_scenario",
    "register_scenario",
    "get_scenario",
    "registered_scenarios",
    "save_curated",
    "scenario_from_dict",
    "scenario_names",
]

# Importing the package makes the curated corpus addressable by name
# (idempotent: re-imports leave the registry unchanged).
for _sc in adversarial_corpus():
    register_scenario(_sc, replace=True)
del _sc

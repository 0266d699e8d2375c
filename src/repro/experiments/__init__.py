"""Experiment harness: every figure and table of the paper.

One module per experiment family:

* :mod:`repro.experiments.single_host` -- Figures 4(a)-(c): WDB of one
  regulated end host vs the average input rate, (sigma, rho) against
  (sigma, rho, lambda).
* :mod:`repro.experiments.multigroup` -- Figures 6(a)-(c): worst-case
  multicast delay of six scheme combinations over the 665-host,
  3-group network.
* :mod:`repro.experiments.trees` -- Tables I-III: tree layer numbers of
  capacity-aware DSCT vs DSCT with the (sigma, rho, lambda) regulator.
* :mod:`repro.experiments.theory` -- the rate-threshold and
  improvement-ratio results (Theorems 3-6), numeric vs closed-form.
* :mod:`repro.experiments.report` -- ASCII rendering, crossover and
  improvement extraction.
* :mod:`repro.experiments.cli` -- ``repro-experiments`` entry point.
"""

from repro.experiments.config import (
    PAPER_UTILIZATIONS,
    Fig4Config,
    Fig6Config,
    TableConfig,
)
from repro.experiments.multigroup import Fig6Result, run_fig6
from repro.experiments.report import (
    find_crossover,
    max_improvement,
    render_table,
)
from repro.experiments.single_host import Fig4Result, run_fig4
from repro.experiments.theory import (
    improvement_ratio_table,
    threshold_table,
)
from repro.experiments.trees import TableResult, run_tree_table
from repro.experiments.validation import ValidationCell, validate_bounds

__all__ = [
    "PAPER_UTILIZATIONS",
    "Fig4Config",
    "Fig6Config",
    "TableConfig",
    "Fig4Result",
    "run_fig4",
    "Fig6Result",
    "run_fig6",
    "TableResult",
    "run_tree_table",
    "ValidationCell",
    "validate_bounds",
    "threshold_table",
    "improvement_ratio_table",
    "find_crossover",
    "max_improvement",
    "render_table",
]

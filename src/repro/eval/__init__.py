"""Evaluation harness: regenerates every table and figure of the paper.

* :mod:`repro.eval.harness` — run specs for benchmarks × configurations,
  swept (and memoised) through the :mod:`repro.sweep` engine,
* :mod:`repro.eval.figures` — one entry point per paper figure
  (Figure 8 threshold sweep, Figure 9 optimisation ladder, Figures 10/11
  region statistics, the headline overhead table),
* :mod:`repro.eval.report` — text rendering in the paper's row/series
  layout.

Command line::

    python -m repro figures fig8 [--scale S] [--suite NAME]
    python -m repro figures fig9|fig10|fig11|headline|naive|all
"""

from repro.eval.harness import EvalHarness
from repro.eval.report import format_table, geomean

__all__ = ["EvalHarness", "format_table", "geomean"]

"""Evaluation: regenerates every table and figure of the paper.

* :mod:`repro.eval.figures` — one entry point per paper figure
  (Figure 8 threshold sweep, Figure 9 optimisation ladder, Figures 10/11
  region statistics, the headline and naive tables); each builds a
  labelled :class:`~repro.api.RunSpec` grid and sweeps it through
  :func:`repro.sweep.engine.run_specs`,
* :mod:`repro.eval.ablations` — the hardware-parameter ablation tables,
* :mod:`repro.eval.report` — text rendering in the paper's row/series
  layout.

Command line::

    python -m repro figures fig8 [--scale S] [--suite NAME]
    python -m repro figures fig9|fig10|fig11|headline|naive|all
"""

"""Parallel sweep engine with a persistent, content-addressed result cache.

The evaluation is a large cross-product — benchmarks × the Figure 9
optimisation ladder × the Figure 8 threshold sweep × ablations — and every
cell is a deterministic simulation of a frozen :class:`~repro.api.RunSpec`.
This package exploits both facts:

* :func:`repro.sweep.engine.run_specs` — topologically schedules specs
  (volatile baselines first), fans them out across a ``multiprocessing``
  pool, and reports structured per-spec progress;
  :meth:`~repro.sweep.engine.SweepReport.table` gives every grid its
  ``{workload: {label: RunResult}}`` cells,
* :mod:`repro.sweep.cache` — an on-disk cache keyed by spec fingerprint
  (workload, scale, config, threshold, params, quantum), validated per
  entry against the recorded subsystem dependencies (:mod:`repro.deps`),
  so warm re-runs of the figures and ablations are near-instant and
  survive unrelated source edits,
* ``python -m repro sweep`` — the command-line front end; every sweep
  names, for each spec it re-ran, the subsystems that invalidated its
  cache entry and whether its cycles moved.
"""

from repro.sweep.cache import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    ResultCache,
    default_cache_dir,
    resolve_cache,
)
from repro.sweep.engine import (
    SpecStatus,
    SweepError,
    SweepReport,
    run_specs,
)

__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "default_cache_dir",
    "resolve_cache",
    "SpecStatus",
    "SweepError",
    "SweepReport",
    "run_specs",
]

"""The Capri compiler: region formation and checkpoint optimisation passes.

This package implements Section 4 of the paper on our IR substrate:

* :mod:`repro.compiler.clone` — module/function deep-cloning (passes never
  mutate the caller's module),
* :mod:`repro.compiler.regions` — region formation under a store-count
  threshold (Section 4.1),
* :mod:`repro.compiler.checkpoints` — register-checkpointing store
  insertion from live-in/reaching-def analysis (Sections 3.2 & 4.2),
* :mod:`repro.compiler.unrolling` — speculative loop unrolling
  (Section 4.3),
* :mod:`repro.compiler.pruning` — optimal checkpoint pruning with
  recovery-block generation (Section 4.4.1),
* :mod:`repro.compiler.licm` — moving checkpoints out of loops
  (Section 4.4.2),
* :mod:`repro.compiler.pipeline` — the :class:`CapriCompiler` facade and
  the :class:`OptConfig` ladder used by Figure 9,
* :mod:`repro.compiler.stats` — dynamic region statistics for
  Figures 10 and 11.
"""

from repro.compiler.clone import clone_function, clone_instr, clone_module
from repro.compiler.pipeline import CapriCompiler, OptConfig, CompileResult
from repro.compiler.regions import RegionFormationError, form_regions
from repro.compiler.checkpoints import insert_checkpoints
from repro.compiler.unrolling import speculative_unroll
from repro.compiler.pruning import prune_checkpoints
from repro.compiler.licm import move_checkpoints_out_of_loops
from repro.compiler.verify_capri import (
    CapriInvariantError,
    verify_capri_function,
    verify_capri_module,
)
from repro.compiler.stats import RegionStatsObserver, region_means

__all__ = [
    "CapriCompiler",
    "OptConfig",
    "CompileResult",
    "RegionFormationError",
    "form_regions",
    "insert_checkpoints",
    "speculative_unroll",
    "prune_checkpoints",
    "move_checkpoints_out_of_loops",
    "clone_function",
    "clone_instr",
    "clone_module",
    "CapriInvariantError",
    "verify_capri_function",
    "verify_capri_module",
    "RegionStatsObserver",
    "region_means",
]

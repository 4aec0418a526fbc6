"""The Capri architecture: trace-driven timing and persistence simulation.

This package implements Section 5 of the paper on top of the functional
machine's event stream:

* :mod:`repro.arch.params` — the Table 1 simulator configuration,
* :mod:`repro.arch.cache` — value-carrying set-associative caches with a
  lightweight MESI-style coherence shim,
* :mod:`repro.arch.nvm` — the NVM main-memory image with a bandwidth-
  limited, WPQ-fronted write port,
* :mod:`repro.arch.memctrl` — integrated memory controller with the
  direct-mapped off-chip DRAM cache,
* :mod:`repro.arch.proxy` — front-/back-end proxy buffers and entries
  (Figure 5),
* :mod:`repro.arch.persistence` — the two-phase atomic store engine with
  undo+redo logging and stale-read prevention (Sections 5.1–5.3),
* :mod:`repro.arch.core` — per-core cost-based timing,
* :mod:`repro.arch.system` — full-system wiring (Capri and the volatile
  baseline) as machine observers,
* :mod:`repro.arch.crash` — power-failure injection and non-volatile
  state capture,
* :mod:`repro.arch.recovery` — the Section 5.4 recovery protocol, with
  integrity verification and strict/lenient fault handling
  (docs/INTERNALS.md §5).
"""

from repro.arch.params import SimParams, PersistMode
from repro.arch.system import CapriSystem, SystemMetrics, build_system, run_workload
from repro.arch.crash import (
    CrashPlan,
    CrashState,
    CrashInjector,
    PowerFailure,
    run_until_crash,
)
from repro.arch.recovery import (
    CheckpointMismatchError,
    OrphanedBoundaryError,
    RecoveredState,
    RecoveryError,
    RecoveryReport,
    TornEntryError,
    WpqCorruptionError,
    recover,
    resume_and_finish,
)

__all__ = [
    "SimParams",
    "PersistMode",
    "CapriSystem",
    "SystemMetrics",
    "build_system",
    "run_workload",
    "CrashPlan",
    "CrashState",
    "CrashInjector",
    "PowerFailure",
    "run_until_crash",
    "RecoveryError",
    "TornEntryError",
    "CheckpointMismatchError",
    "OrphanedBoundaryError",
    "WpqCorruptionError",
    "RecoveryReport",
    "RecoveredState",
    "recover",
    "resume_and_finish",
]

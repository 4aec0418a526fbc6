"""Crash-consistency fault-injection campaigns.

Turns crash testing from anecdote into campaign:

* :mod:`repro.fault.models` — composable adversarial transformers over a
  captured :class:`~repro.arch.crash.CrashState`: torn proxy-entry
  writes, dropped redo valid-bits, a partially drained write-pending
  queue, corrupted register-checkpoint slots,
* :mod:`repro.fault.oracle` — the differential oracle: a crash-free
  golden run, observational-equivalence checks (NVM image modulo the log
  area, per-core at-least-once I/O), failure minimization, and the
  interpreted reference crash capture replay is pinned against,
* :mod:`repro.fault.campaign` — the runner: capture the workload's event
  stream once, then crash at every observer event (or a seeded sample)
  by replay, inject faults, recover, resume, and judge the outcome,
* :mod:`repro.fault.multicrash` — the nested-failure mode: crash chains
  injected into recovery itself (``CampaignConfig.depth`` > 1), judged
  against the recovery-idempotence oracle on top of the usual two.

Command line::

    python -m repro fault --workload genome --scale 0.1 --sample 50
    python -m repro fault --workload deep-call --multi-crash --depth 2
"""

from repro.fault.campaign import (
    CampaignConfig,
    CampaignResult,
    CrashOutcome,
    run_campaign,
    run_workload_campaign,
)
from repro.fault.multicrash import diff_recoveries, run_multi_crash_point
from repro.fault.models import (
    FaultModel,
    FaultNote,
    available_models,
    get_models,
)
from repro.fault.oracle import (
    GoldenResult,
    InterpretedSource,
    OracleVerdict,
    differential_check,
    golden_run,
    minimize_failure,
)

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "CrashOutcome",
    "run_campaign",
    "run_workload_campaign",
    "diff_recoveries",
    "run_multi_crash_point",
    "FaultModel",
    "FaultNote",
    "available_models",
    "get_models",
    "GoldenResult",
    "InterpretedSource",
    "OracleVerdict",
    "differential_check",
    "golden_run",
    "minimize_failure",
]

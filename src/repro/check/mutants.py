"""Planted-mutant validation: prove the checker catches protocol bugs.

A sanitizer that never fires is indistinguishable from one that cannot
fire.  Each mutant here plants exactly one protocol bug behind a
:class:`~repro.arch.persistence.ProtocolMutations` debug knob — in the
proxy pipelines, the writeback invalidation path, or the recovery
protocol — and :func:`run_mutant_matrix` demands that:

* the **unmutated** run of every matrix workload is violation-free
  (both online and across crash/recover probes), and
* **every** mutant is detected on at least one matrix workload, *with
  the taxonomy class the planted bug warrants* (a mutant "detected" as
  the wrong class is a mis-diagnosis, not a detection).

Persistence-path mutants are detected by the online checker riding an
interpreted run (:func:`checked_run`; a badly broken pipeline may
deadlock its proxy buffers — ``drop_boundary_entry`` fills both buffers
with nothing ever draining — so
:class:`~repro.arch.proxy.ProxyOverflowError` is tolerated and the
end-of-run :meth:`~repro.check.checker.PersistencyChecker.finalize`
still runs).  Recovery-path mutants cannot fire during forward
execution; they are detected by crashing at several points through a
faithful campaign source (:class:`repro.trace.replay.TraceCampaignSource`,
built once per workload, which captures its event stream once),
recovering with the mutation planted, and checking the recovered state
against the model's committed prefix.  Mutations live in the simulated
pipelines and in recovery, never in the event stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.params import SimParams
from repro.arch.persistence import ProtocolMutations
from repro.arch.proxy import ProxyOverflowError
from repro.arch.recovery import RecoveryError, recover
from repro.arch.system import build_system
from repro.check.checker import PersistencyChecker
from repro.check.violations import (
    CORRUPT_UNDO,
    CheckReport,
    LOST_REDO,
    OUT_OF_ORDER_DRAIN,
    PREMATURE_PERSIST,
    STALE_BOUNDARY_PC,
    STALE_REDO_OVERWRITE,
    UNCOVERED_CKPT_SLOT,
    Violation,
)
from repro.isa.machine import MachineError
from repro.isa.trace import TeeObserver

#: mutant name -> taxonomy classes that count as *correct* detection.
#: Most bugs have exactly one honest diagnosis; the entries with two list
#: classes that are both faithful descriptions of the same planted bug
#: (e.g. a skipped recovery redo leaves either the stale pre-region value
#: — lost redo — or, if a dirty writeback already leaked the speculative
#: value, a premature persist).
MUTANT_EXPECTATIONS: Dict[str, Tuple[str, ...]] = {
    "skip_undo_log": (CORRUPT_UNDO,),
    "merge_across_regions": (PREMATURE_PERSIST,),
    "drop_boundary_entry": (LOST_REDO,),
    "reorder_phase2": (OUT_OF_ORDER_DRAIN,),
    "drain_past_boundary": (PREMATURE_PERSIST, OUT_OF_ORDER_DRAIN),
    "skip_pc_checkpoint": (STALE_BOUNDARY_PC,),
    "skip_ckpt_flush": (UNCOVERED_CKPT_SLOT,),
    "redo_writes_undo": (LOST_REDO,),
    "drop_invalidation": (STALE_REDO_OVERWRITE,),
    "invalidate_everything": (LOST_REDO,),
    "recovery_skip_redo": (LOST_REDO, PREMATURE_PERSIST),
    "recovery_stale_pc": (STALE_BOUNDARY_PC,),
}

#: Mutants that only act during recovery (need crash/recover probes).
RECOVERY_MUTANTS = ("recovery_skip_redo", "recovery_stale_pc")

#: Crash points for recovery probes, as fractions of the golden run's
#: observer-event count — spread so at least one lands with undrained
#: boundary entries in the buffers.
CRASH_FRACTIONS = (0.35, 0.55, 0.75, 0.9)

_MAX_STEPS = 50_000_000


@dataclass
class MutantOutcome:
    """One mutant's detection result across the matrix workloads."""

    mutant: str
    expected: Tuple[str, ...]
    detected: bool = False
    #: workload the mutant was (first) detected on.
    workload: Optional[str] = None
    #: taxonomy classes observed across all attempted workloads.
    kinds: List[str] = field(default_factory=list)
    #: first violation matching the expectation (carries the witness).
    first: Optional[Violation] = None
    #: run error tolerated during the mutated run, if any.
    error: Optional[str] = None

    def format(self) -> str:
        mark = "DETECTED" if self.detected else "MISSED"
        got = ",".join(self.kinds) or "-"
        where = f" on {self.workload}" if self.workload else ""
        note = f" [{self.error}]" if self.error else ""
        return (
            f"{self.mutant:24s} {mark:8s}{where}  "
            f"expected {'|'.join(self.expected)}  got {got}{note}"
        )


@dataclass
class MutantMatrixResult:
    """Outcome of the full matrix."""

    workloads: Tuple[str, ...]
    outcomes: List[MutantOutcome]
    #: unmutated runs (online + crash/recover probes) per workload.
    baseline_reports: Dict[str, CheckReport] = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def baseline_ok(self) -> bool:
        return all(r.ok for r in self.baseline_reports.values())

    @property
    def all_detected(self) -> bool:
        return all(o.detected for o in self.outcomes)

    @property
    def ok(self) -> bool:
        return self.baseline_ok and self.all_detected

    def format(self) -> str:
        lines = []
        for name, report in sorted(self.baseline_reports.items()):
            lines.append(f"baseline {name:16s} {report.summary()}")
        for o in self.outcomes:
            lines.append(o.format())
        n = sum(o.detected for o in self.outcomes)
        lines.append(
            f"mutants detected: {n}/{len(self.outcomes)}; baseline "
            + ("clean" if self.baseline_ok else "VIOLATED")
            + f"; {self.wall_s:.1f}s"
        )
        return "\n".join(lines)


def checked_run(
    module,
    spawns,
    params: SimParams,
    threshold: int,
    mutations: Optional[ProtocolMutations] = None,
    max_steps: int = _MAX_STEPS,
) -> Tuple[PersistencyChecker, Optional[str]]:
    """One full interpreted, checked run; returns (checker, tolerated-error).

    Never raises on a model violation — callers inspect the report.
    Pipeline deadlock (possible under mutation) and machine errors are
    tolerated and reported so :meth:`finalize` can still flag what the
    committed prefix lost.
    """
    error: Optional[str] = None
    machine, system = build_system(
        module, spawns, params=params, threshold=threshold, mutations=mutations
    )
    checker = PersistencyChecker.attach(system)
    try:
        machine.run(TeeObserver(checker, system), max_steps=max_steps)
        system.finish()
    except (ProxyOverflowError, MachineError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    checker.finalize(system)
    return checker, error


def _recovery_probe(
    source,
    module,
    at_event: int,
    mutations: Optional[ProtocolMutations],
) -> Optional[CheckReport]:
    """Crash at ``at_event``, recover (optionally mutated), check.

    ``source`` is a checking campaign source (``capture_at`` contract,
    see :func:`repro.fault.campaign.run_crash_point`); its forward
    protocol is always faithful — recovery mutants act only in
    :func:`recover`.  Returns the point's report (the online run up to
    the crash, the crash-state sweep, and the recovered-state check), or
    ``None`` if the program finished before the crash point or recovery
    itself refused the state.
    """
    state, _io, checker = source.capture_at(at_event)
    if state is None:
        return None
    try:
        recovered = recover(state, module, strict=True, mutations=mutations)
    except RecoveryError:
        return None
    checker.check_recovered(recovered)
    return checker.report


def run_mutant_matrix(
    workloads: Sequence[str] = ("genome", "hot-writeback"),
    scale: float = 1.0,
    threshold: int = 32,
    params: Optional[SimParams] = None,
    mutants: Optional[Sequence[str]] = None,
) -> MutantMatrixResult:
    """Run every mutant against the matrix workloads.

    The default threshold (32) is deliberately small: frequent region
    boundaries put boundary entries *behind* data in the back-end buffer
    often, which is the window ``reorder_phase2`` and
    ``merge_across_regions`` need to act.

    ``params`` defaults to :meth:`SimParams.tight`, whose shrunken caches
    and throttled write port open the windows the mutants need.

    The baseline and every persistence-path mutant are interpreted
    (:func:`checked_run`); each workload gets one probe source, shared by
    the baseline and recovery-mutant probes.
    Raises :class:`ValueError`, before any run, if ``mutants`` is empty
    (a matrix of no mutants detects nothing) or names an unknown one.
    """
    from repro.api import RunSpec, build_spec
    from repro.compiler import OptConfig
    from repro.fault.campaign import CampaignConfig
    from repro.trace.replay import TraceCampaignSource

    start = time.perf_counter()
    params = params if params is not None else SimParams.tight()
    names = tuple(mutants) if mutants is not None else tuple(MUTANT_EXPECTATIONS)
    if not names:
        raise ValueError("no mutants to check: the mutant list is empty")
    for name in names:
        if name not in MUTANT_EXPECTATIONS:
            raise ValueError(f"unknown mutant {name!r}")

    built: Dict[str, tuple] = {}
    probe_points: Dict[str, List[int]] = {}
    baseline_reports: Dict[str, CheckReport] = {}
    for wl in workloads:
        module, spawns = build_spec(
            RunSpec(workload=wl, scale=scale, config=OptConfig.licm(threshold))
        )
        source = TraceCampaignSource(
            module,
            spawns,
            CampaignConfig(
                params=params, threshold=threshold, check=True,
                max_steps=_MAX_STEPS,
            ),
        )
        built[wl] = (module, spawns, source)
        checker, error = checked_run(module, spawns, params, threshold)
        if error is not None:
            raise RuntimeError(f"unmutated run of {wl!r} failed: {error}")
        report = checker.report
        probe_points[wl] = [int(report.events * frac) for frac in CRASH_FRACTIONS]
        # Fold the faithful crash/recover probes into the baseline report:
        # the unmutated protocol must survive every probe violation-free.
        for at in probe_points[wl]:
            probe = _recovery_probe(source, module, at, mutations=None)
            if probe is not None:
                report.merge(probe.violations, probe.suppressed)
        baseline_reports[wl] = report

    outcomes: List[MutantOutcome] = []
    for name in names:
        outcome = MutantOutcome(mutant=name, expected=MUTANT_EXPECTATIONS[name])
        mutation = ProtocolMutations.single(name)
        for wl in workloads:
            module, spawns, source = built[wl]
            if name in RECOVERY_MUTANTS:
                reports = [
                    probe
                    for probe in (
                        _recovery_probe(source, module, at, mutations=mutation)
                        for at in probe_points[wl]
                    )
                    if probe is not None
                ]
            else:
                checker, error = checked_run(
                    module, spawns, params, threshold, mutations=mutation
                )
                if error is not None:
                    outcome.error = error
                reports = [checker.report]
            for report in reports:
                for kind in report.kinds():
                    if kind not in outcome.kinds:
                        outcome.kinds.append(kind)
                if outcome.first is None:
                    for v in report.violations:
                        if v.kind in outcome.expected:
                            outcome.first = v
                            break
            if any(k in outcome.expected for k in outcome.kinds):
                outcome.detected = True
                outcome.workload = wl
                break
        outcomes.append(outcome)

    return MutantMatrixResult(
        workloads=tuple(workloads),
        outcomes=outcomes,
        baseline_reports=baseline_reports,
        wall_s=time.perf_counter() - start,
    )

"""Batched trace replay: the arch/check layers without the interpreter.

A captured :class:`~repro.trace.record.ExecTrace` fixes the entire
observer event stream, so the timing/persistence simulation
(:class:`~repro.arch.system.CapriSystem`), the online persistency checker,
and the crash injector can all be driven straight from the columns —
no IR re-interpretation, no functional machine.  The one consumer is the
crash source, :class:`TraceCampaignSource`, behind fault campaigns, the
litmus and mutant matrices and the recovery-cost sweep (crash-free runs
are interpreted).  Like the interpreted reference it is built from the
program, ``(module, spawns, config)``: it captures its own trace and
owns the golden result derived from it, so no caller handles a trace
to crash a program.  Campaign crash points ascend
(:func:`~repro.fault.campaign.select_crash_points` sorts), so *one*
replay system advanced monotonically serves every point: total arch
work across an exhaustive sweep is O(events) instead of O(events²/2) —
this, not per-event dispatch, is where the ≥5× campaign speedup lives
(docs/PERFORMANCE.md).  Rewinds (the failure minimizer bisects
downward) rebuild from event 0.

Verdict identity with the interpreted path rests on three facts (argued
in docs/INTERNALS.md): the functional machine is observer-independent,
so the recorded stream *is* the stream any interpreted crash run would
deliver; :func:`~repro.arch.crash.capture_crash_state` copies the
containers and shares only sealed proxy entries, which the live pipeline
replaces rather than edits, and the checker's whole-state checks are
read-only, so capturing at point k does not perturb the cursor's march
to k+1, nor that march the snapshot; and the checker's streaming
violations are monotone in the prefix, so the per-point report is the
stream-prefix violations plus this point's own whole-state findings,
capped per point — exactly what a fresh checker at that point would
hold.

Most crash points leave the persistent domain as the point before left
it (85% of the litmus corpus's), so a point whose domain did not change
gets the previous point's snapshot object back, and skips the
crash-state comparison when the checker's model did not change either
(:attr:`~repro.check.model.PersistencyModel.version`) and the previous
comparison found nothing: the same read-only check of the same inputs
would find nothing again.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Tuple

from repro.arch.crash import capture_crash_state
from repro.arch.params import SimParams
from repro.arch.system import CapriSystem
from repro.check.violations import CheckReport, Violation
from repro.fault.oracle import GoldenResult
from repro.ir.module import Module
from repro.isa.trace import Observer, TeeObserver
from repro.trace.record import ExecTrace


def build_replay_system(
    trace: ExecTrace,
    params: Optional[SimParams] = None,
    threshold: int = 256,
    mutations=None,
) -> CapriSystem:
    """A :class:`CapriSystem` ready to consume ``trace``.

    Mirrors :func:`repro.arch.system.build_system` minus the machine:
    same core count, same durable-image seeding (the trace carries the
    module's initial data).
    """
    params = params or SimParams.scaled()
    system = CapriSystem(
        params,
        num_cores=trace.num_cores,
        threshold=threshold,
        mutations=mutations,
    )
    system.nvm.image.update(trace.initial_data)
    return system


class _PointChecker:
    """Per-crash-point view of a source's long-lived checker.

    Presents the interpreted ``capture_at`` contract — a ``.report``
    (real :class:`CheckReport`: ``ok``/``summary()``/sliceable
    ``violations``) and a ``check_recovered`` hook — while the checking
    itself runs on the source's single checker.  The report holds the
    stream-prefix violations (what a fresh checker would have flagged
    on the way to this point) plus this point's own whole-state findings,
    under the same violation cap a fresh checker applies; later
    whole-state checks route their *deltas* here.
    """

    def __init__(
        self,
        source: "TraceCampaignSource",
        point_violations: List[Violation],
        point_suppressed: int,
    ) -> None:
        self._source = source
        stream = source._stream
        self.report = CheckReport(
            list(stream.violations),
            events=source.pos,
            checks=source.checker.model.checks,
            suppressed=stream.suppressed,
        )
        self.report.merge(point_violations, point_suppressed)

    def check_recovered(self, recovered) -> None:
        self._source.checker.check_recovered(recovered)
        self.report.merge(*self._source._drain_new())
        self.report.checks = self._source.checker.model.checks


class TraceCampaignSource:
    """The crash source behind every sweep: single-pass replay of the
    program's captured trace over ascending crash points.

    Built like :class:`~repro.fault.oracle.InterpretedSource`, from the
    program and the sweep's :class:`~repro.fault.campaign.CampaignConfig`:
    the constructor captures :attr:`trace` at ``config.quantum`` within
    ``config.max_steps``, and :attr:`golden` (the differential oracle's
    golden result) comes straight off it — the trace records the final
    memory, the full I/O log and one event per observer callback, and
    its columns name each address's writers: exactly what
    :func:`~repro.fault.oracle.golden_run` would recompute.
    ``params``, ``threshold``, ``check`` and ``mutations`` (whose
    pipeline flags plant protocol bugs in the replayed system; recovery
    flags act only in recovery) configure the replay.

    ``capture_at(k)`` advances the live system from its current position
    to event ``k`` and snapshots the persistent domain — so an exhaustive
    sweep costs one system-lifetime of arch events total, not one per
    point.  Requests behind the cursor (or after a terminal
    :meth:`CapriSystem.finish`, which drains destructively) rebuild from
    event 0; :attr:`rebuilds` counts them.

    Consecutive points may return the same snapshot object: capture is
    still called once per point, and hands back the previous point's
    snapshot when the live domain equals it (see the module docstring).
    """

    def __init__(self, module: Module, spawns, config) -> None:
        # Looked up per call, so a patched ``capture_trace`` is the one run.
        from repro.trace.record import capture_trace

        self.config = config
        self.trace = trace = capture_trace(
            module, spawns, quantum=config.quantum, max_steps=config.max_steps
        )
        self.golden = GoldenResult(
            image=dict(trace.final_memory),
            io_log=list(trace.io_log),
            total_events=len(trace),
            writers=trace.writers(),
        )
        self.rebuilds = -1  # the constructor's own _reset is not a rebuild
        self._io_positions = trace.io_positions()
        self._reset()

    # -- internals -----------------------------------------------------------

    def _reset(self) -> None:
        config = self.config
        self.system = build_replay_system(
            self.trace,
            params=config.params,
            threshold=config.threshold,
            mutations=config.mutations,
        )
        self.checker = None
        self.target: Observer = self.system
        if config.check:
            from repro.check.checker import PersistencyChecker

            self.checker = PersistencyChecker.attach(self.system)
            self.target = TeeObserver(self.checker, self.system)
        self.pos = 0
        self.rebuilds += 1
        self._finished = False
        #: violations flagged while *streaming* events — monotone in the
        #: prefix, hence shared by every later point's report.
        self._stream = CheckReport()
        #: the last point's snapshot, and the model version its crash-state
        #: comparison ran at when that comparison found nothing (else
        #: ``None``): see :meth:`capture_at`.
        self._last_state = None
        self._clean_version: Optional[int] = None

    def _drain_new(self) -> Tuple[List[Violation], int]:
        """Take the violations (and suppressed count) the checker flagged
        since the last drain out of its report, so that its cap fills per
        drain, never across the points of a campaign."""
        if self.checker is None:
            return [], 0
        report = self.checker.report
        fresh, suppressed = report.violations, report.suppressed
        report.violations, report.suppressed = [], 0
        return fresh, suppressed

    def _advance_to(self, k: int) -> None:
        if k < self.pos or self._finished:
            self._reset()
        if k > self.pos:
            self.trace.deliver(self.target, start=self.pos, stop=k)
            self.pos = k
            self._stream.merge(*self._drain_new())

    def _pre_crash_io(self, k: int) -> List[tuple]:
        """I/O events issued at indices ≤ k — the machine appends to its
        I/O log *before* delivering ``on_io``, so an I/O event at the
        crash index itself has already escaped the persistence domain."""
        count = bisect_right(self._io_positions, k)
        return [tuple(ev) for ev in self.trace.io_log[:count]]

    # -- the campaign-facing contract ----------------------------------------

    def capture_at(self, event_index: int):
        """Replay twin of :meth:`repro.fault.oracle.InterpretedSource.capture_at`.

        Returns ``(state, pre_crash_io, checker)`` with the same meaning:
        the captured persistent domain (``None`` if the trace ends
        first), the I/O events issued up to the crash point, and — when
        checking — a per-point checker façade already fed the crash-state
        comparison.
        """
        total = len(self.trace)
        point_violations: List[Violation] = []
        point_suppressed = 0
        if event_index >= total:
            # The program finishes before the crash point: run out the
            # trace and finalise, exactly like the interpreted path.
            self._advance_to(total)
            if not self._finished:
                self.system.finish()
                self._finished = True
                if self.checker is not None:
                    self.checker.finalize(self.system)
                    self._stream.merge(*self._drain_new())
            state = None
        else:
            self._advance_to(event_index)
            previous = self._last_state
            state = self._last_state = capture_crash_state(
                self.system, previous
            )
            if self.checker is not None:
                model = self.checker.model
                if state is previous and model.version == self._clean_version:
                    # Same snapshot, same model: the comparison would
                    # find nothing again.  It still counts as a check.
                    model.checks += 1
                else:
                    # Own containers, sealed shared entries and a read-only
                    # whole-state check: the live cursor is unperturbed and
                    # keeps marching.
                    self.checker.check_crash_state(state)
                    point_violations, point_suppressed = self._drain_new()
                    clean = not point_violations and not point_suppressed
                    self._clean_version = model.version if clean else None
        facade = (
            _PointChecker(self, point_violations, point_suppressed)
            if self.checker is not None
            else None
        )
        return state, self._pre_crash_io(event_index), facade

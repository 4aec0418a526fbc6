"""The differential recovery oracle.

A crash-free *golden run* fixes the workload's observable behaviour: the
final data-segment memory image and the per-core I/O trace.  A
crashed-recovered-resumed execution is **observationally equivalent**
when

* its final memory image matches the golden image *modulo the log area*
  (the register-checkpoint storage — recovery bookkeeping, not program
  state), and
* per core, the golden I/O sequence is a subsequence of the observed
  pre-crash + post-resume sequence, and every observed ``(port, value)``
  is one of that core's golden events: the Section 3.3 persist barrier
  guarantees at-least-once delivery, so replayed duplicates are legal
  but lost, reordered or fabricated effects are not.  A core the
  recovery report fenced off is exempt.

:func:`minimize_failure` shrinks a failing (crash index, fault set) to a
smaller reproducer by greedily dropping fault models and bisecting the
event index downward.

:class:`InterpretedSource` is the reference crash-capture engine: it
re-interprets the IR from event 0 to every crash point.  Campaigns run on
captured-trace replay (:class:`repro.trace.replay.TraceCampaignSource`);
this source is what that engine is pinned against.  Both crash sources
are built the same way, ``Source(module, spawns, config)`` from the
program and one :class:`~repro.fault.campaign.CampaignConfig`, and both
own the program's :class:`GoldenResult` as ``source.golden``: the replay
source reads it off its captured trace, this one runs
:func:`golden_run` independently.  The comparison lives in the tests
(``tests/trace/test_campaign_replay.py``,
``tests/trace/test_source_parity.py``) and in the exhaustive-campaign
benchmark
(``benchmarks/test_trace_replay.py::test_exhaustive_campaign_speedup``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.arch.crash import CrashPlan, run_built_until_crash
from repro.arch.recovery import RecoveryReport
from repro.arch.system import build_system
from repro.ir.module import CKPT_BASE, CKPT_END, Module
from repro.isa.machine import Machine
from repro.isa.trace import TickCountingObserver

IoEvent = Tuple[int, int, int]  # (core, port, value)


def data_image(machine: Machine) -> Dict[int, int]:
    """Final data-segment memory, log area (checkpoint storage) masked."""
    return {
        addr: value
        for addr, value in machine.memory.items()
        if not CKPT_BASE <= addr < CKPT_END
    }


@dataclass
class GoldenResult:
    """What a crash-free execution observably produced."""

    data: Dict[int, int]
    io_log: List[IoEvent]
    total_events: int


def golden_run(
    module: Module,
    spawns: Sequence[Tuple[str, Sequence[int]]],
    quantum: int = 32,
    max_steps: int = 50_000_000,
) -> GoldenResult:
    """Run the workload crash-free on the functional machine.

    The machine is architecturally exact — the Capri system never changes
    what programs compute — so the functional run is the reference, and
    its event count (the observer callbacks the crash injector would have
    delegated) is the sweep's crash-point universe.
    """
    machine = Machine(module, quantum=quantum)
    for func_name, args in spawns:
        machine.spawn(func_name, args)
    counter = TickCountingObserver()
    machine.run(counter, max_steps=max_steps)
    return GoldenResult(
        data=data_image(machine),
        io_log=list(machine.io_log),
        total_events=counter.events,
    )


class InterpretedSource:
    """Reference crash capture: interpret the IR to each crash point.

    Honours the campaign source contract of
    :class:`repro.trace.replay.TraceCampaignSource`, and takes every
    setting from the same :class:`~repro.fault.campaign.CampaignConfig`
    (``config.mutations`` plants its pipeline flags in the simulated
    system exactly as the replay source does): ``capture_at(k)``
    returns ``(state, pre_crash_io, checker)`` — the captured persistent
    domain (``None`` when the program finishes first), the I/O events the
    interrupted machine issued, and, with ``config.check``, the
    attached :class:`~repro.check.checker.PersistencyChecker` already fed
    the crash-state comparison (or finalised when the program finished).

    Every capture runs a fresh system from event 0, so a sweep costs
    O(events²/2); :attr:`rebuilds` counts the captures after the first
    (each one re-runs from event 0).  :attr:`golden` is an independent
    crash-free :func:`golden_run` at the same quantum and step budget,
    run on first use.
    """

    def __init__(self, module: Module, spawns, config) -> None:
        self.module = module
        self.spawns = spawns
        self.config = config
        self._captures = 0

    @cached_property
    def golden(self) -> GoldenResult:
        return golden_run(
            self.module,
            self.spawns,
            quantum=self.config.quantum,
            max_steps=self.config.max_steps,
        )

    @property
    def rebuilds(self) -> int:
        return max(0, self._captures - 1)

    def capture_at(self, event_index: int):
        config = self.config
        machine, system = build_system(
            self.module,
            self.spawns,
            params=config.params,
            threshold=config.threshold,
            quantum=config.quantum,
            mutations=config.mutations,
        )
        self._captures += 1
        checker = None
        if config.check:
            from repro.check.checker import PersistencyChecker

            checker = PersistencyChecker.attach(system)
        state = run_built_until_crash(
            machine,
            system,
            CrashPlan(event_index),
            max_steps=config.max_steps,
            extra_observer=checker,
        )
        if checker is not None:
            if state is None:
                system.finish()
                checker.finalize(system)
            else:
                # The capture precedes fault injection, so the crash-state
                # check is valid for every model combination.
                checker.check_crash_state(state)
        return state, list(machine.io_log), checker


def _is_subsequence(needle: Sequence, haystack: Sequence) -> bool:
    it = iter(haystack)
    return all(any(x == y for y in it) for x in needle)


@dataclass
class OracleVerdict:
    """Outcome of one differential comparison."""

    equivalent: bool
    mismatched_addrs: List[int] = field(default_factory=list)
    io_ok: bool = True

    def contained_by(self, report: Optional[RecoveryReport]) -> bool:
        """Is every divergence accounted for by the recovery report?

        A quarantined core makes full-run equivalence unattainable by
        design (the core was fenced off rather than allowed to compute
        garbage) — that counts as contained as long as the report says
        so.  Otherwise every mismatching address must be tainted.
        """
        if self.equivalent:
            return True
        if report is None or report.clean:
            return False
        if report.quarantined_cores:
            return True
        return bool(self.mismatched_addrs) and all(
            addr in report.tainted_addrs for addr in self.mismatched_addrs
        ) and self.io_ok


def differential_check(
    golden: GoldenResult,
    finished: Machine,
    pre_crash_io: Sequence[IoEvent] = (),
    report: Optional[RecoveryReport] = None,
) -> OracleVerdict:
    """Compare a recovered-and-resumed execution against the golden run."""
    final = data_image(finished)
    mismatched: List[int] = []
    if final != golden.data:
        addrs = set(golden.data) | set(final)
        mismatched = sorted(
            addr
            for addr in addrs
            if golden.data.get(addr, 0) != final.get(addr, 0)
        )

    observed = list(pre_crash_io) + list(finished.io_log)
    fenced = set(report.quarantined_cores) if report is not None else set()
    io_ok = True
    cores = {c for (c, _, _) in golden.io_log} | {c for (c, _, _) in observed}
    for core in cores - fenced:
        want = [(p, v) for (c, p, v) in golden.io_log if c == core]
        got = [(p, v) for (c, p, v) in observed if c == core]
        # Replay may duplicate a golden event, never invent one.
        if not _is_subsequence(want, got) or not set(got) <= set(want):
            io_ok = False
            break

    return OracleVerdict(
        equivalent=not mismatched and io_ok,
        mismatched_addrs=mismatched,
        io_ok=io_ok,
    )


@dataclass
class MinimizedFailure:
    """Smallest reproducer found for a failing sweep point."""

    event_index: int
    models: Tuple[str, ...]
    attempts: int


def minimize_failure(
    still_fails: Callable[[int, Tuple[str, ...]], bool],
    event_index: int,
    models: Tuple[str, ...],
    max_attempts: int = 24,
) -> MinimizedFailure:
    """Greedy shrink of a failing (crash index, fault combination).

    ``still_fails(index, models)`` re-runs one sweep point and reports
    whether the failure persists.  First drop fault models one at a time
    (to a fixpoint), then bisect the event index downward.  Best-effort:
    failures need not be monotone in the index, so the result is a local
    minimum, bounded by ``max_attempts`` re-runs.
    """
    attempts = 0

    # 1. Shrink the fault combination.
    changed = True
    while changed and len(models) > 1 and attempts < max_attempts:
        changed = False
        for i in range(len(models)):
            candidate = models[:i] + models[i + 1 :]
            attempts += 1
            if still_fails(event_index, candidate):
                models = candidate
                changed = True
                break
            if attempts >= max_attempts:
                break

    # 2. Bisect the event index downward (assumes rough monotonicity).
    lo, hi = 0, event_index
    while lo < hi and attempts < max_attempts:
        mid = (lo + hi) // 2
        attempts += 1
        if still_fails(mid, models):
            hi = mid
        else:
            lo = mid + 1
    if hi < event_index:
        attempts += 1
        if not still_fails(hi, models):
            hi = event_index  # non-monotone neighbourhood: keep original
    return MinimizedFailure(event_index=hi, models=models, attempts=attempts)

"""The litmus execution matrix: crash everywhere, judge every outcome.

For one program the matrix (1) builds its crash source,
:class:`repro.trace.replay.TraceCampaignSource`, which captures the
golden event stream once, (2) derives one
:class:`~repro.litmus.oracle.OutcomeSnapshot` per crash index from the
source's trace, then (3) sweeps a crash at **every** observer event
through that replay-accelerated source and judges each
recovered state on three components:

* **nvm** — every data word of the recovered NVM image is in the
  oracle's per-address allowed set for that crash index,
* **resume** — every core resumes at its last architecturally-committed
  region (cold restart only when nothing committed yet),
* **final** — after :func:`~repro.arch.recovery.resume_and_finish`,
  single-writer words equal the golden final image exactly and
  multi-writer words hold some hart's final store value (resumed
  interleavings may legitimately re-race; exact golden equality would
  false-positive) or, when no post-resume store hits the word, a
  crash-allowed value.

Recovery runs **lenient** (``strict=False``) so planted protocol bugs
produce judgeable forbidden outcomes instead of typed errors — and the
judge grants *no* quarantine exemption: litmus runs are fault-free, so
any corruption recovery quarantines is itself a protocol bug.

The sweep ascends, so the first forbidden crash index is event-minimal;
the emitted :class:`LitmusWitness` is re-confirmed by the interpreted
reference source (:class:`repro.fault.oracle.InterpretedSource`) at the
same crash point.  Verdicts are recomputed on every call: the result
cache holds simulations only.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.litmus.generate import LitmusProgram
from repro.litmus.oracle import (
    OutcomeSnapshot,
    multi_writer_addrs,
    oracle_snapshots,
    per_core_last_writes,
)

if TYPE_CHECKING:
    from repro.arch.recovery import RecoveredState

#: Mutants the litmus matrix is *expected to miss*: both corrupt the
#: cache-invalidation path, which only acts on regular-path writebacks —
#: litmus programs run with full-size caches precisely so no writeback
#: ever occurs (tiny caches would evict mid-region and make the
#: architectural-commit oracle unsound).  The macro-workload matrix
#: (`repro check mutants`) owns these two.
EXPECTED_MISSES = ("drop_invalidation", "invalidate_everything")


def litmus_params(throttled: bool = True):
    """Simulator parameters for litmus runs.

    Full-size (default ``scaled``) caches: a handful of words never
    evicts, so NVM changes only through the persistence protocol and
    the oracle's architectural-commit semantics are exact.  With
    ``throttled`` (the default) write parallelism is cut to deepen
    drain FIFOs — the merge/reorder/drain-past-boundary windows; the
    un-throttled point lets drains *complete and free their entries*
    before late crash points, which is where drain-corruption bugs
    (``redo_writes_undo``, ``skip_ckpt_flush``) become recoverable
    state instead of being masked by the buffer replay.
    """
    from repro.arch.params import SimParams

    params = SimParams.scaled()
    return params.with_(nvm_write_parallelism=2) if throttled else params


def param_points():
    """The two drain regimes every mutant sweep visits (see
    :func:`litmus_params`)."""
    return (litmus_params(throttled=True), litmus_params(throttled=False))


@dataclass
class LitmusWitness:
    """A minimized forbidden-outcome witness: one crash index, the
    failing judgment components, and the event the crash preceded."""

    name: str
    seed: int
    event_index: int
    event: str
    failures: List[Dict[str, object]]
    mutations: Tuple[str, ...] = ()
    #: the interpreted reference re-run reproduced the forbidden outcome.
    confirmed: bool = False

    def to_payload(self) -> Dict[str, object]:
        d = asdict(self)
        d["mutations"] = list(self.mutations)
        return d


@dataclass
class LitmusVerdict:
    """Outcome of one program through the full crash matrix."""

    name: str
    seed: int
    content_hash: str
    mutations: Tuple[str, ...]
    crash_points: int
    forbidden: int
    checks: int
    elapsed: float
    witness: Optional[LitmusWitness] = None
    replay_rebuilds: int = 0

    @property
    def ok(self) -> bool:
        return self.forbidden == 0

    def to_payload(self) -> Dict[str, object]:
        return {
            "schema": 1,
            "name": self.name,
            "seed": self.seed,
            "content_hash": self.content_hash,
            "mutations": list(self.mutations),
            "crash_points": self.crash_points,
            "forbidden": self.forbidden,
            "checks": self.checks,
            "elapsed": self.elapsed,
            "witness": self.witness.to_payload() if self.witness else None,
            "replay_rebuilds": self.replay_rebuilds,
        }


# --------------------------------------------------------------------- judge


def _judge_crash_state(
    program: LitmusProgram,
    snap: OutcomeSnapshot,
    recovered,
) -> Tuple[List[Dict[str, object]], int]:
    """Components (nvm, resume) against one crash-index snapshot."""
    failures: List[Dict[str, object]] = []
    checks = 0
    for addr in program.addrs:
        got = recovered.nvm_image.get(addr, 0)
        allowed = snap.allowed.get(addr, frozenset((0,)))
        checks += 1
        if got not in allowed:
            failures.append(
                {
                    "component": "nvm",
                    "addr": addr,
                    "got": got,
                    "allowed": sorted(allowed),
                }
            )
    for core in range(program.harts):
        expected = snap.committed_region.get(core)
        resume = (
            recovered.resumes[core] if core < len(recovered.resumes) else None
        )
        got_region = resume.region_id if resume is not None else None
        checks += 1
        if expected is None:
            if resume is not None:
                failures.append(
                    {
                        "component": "resume",
                        "core": core,
                        "got": got_region,
                        "allowed": ["cold"],
                    }
                )
        elif got_region != expected:
            failures.append(
                {
                    "component": "resume",
                    "core": core,
                    "got": got_region,
                    "allowed": [expected],
                }
            )
    return failures, checks


def _judge_final_state(
    program: LitmusProgram,
    snap: OutcomeSnapshot,
    mw_addrs,
    finals,
    golden_data,
    final_image,
) -> Tuple[List[Dict[str, object]], int]:
    """Component (final) after resume-and-finish."""
    failures: List[Dict[str, object]] = []
    checks = 0
    for addr in program.addrs:
        got = final_image.get(addr, 0)
        checks += 1
        if addr in mw_addrs:
            # Any hart's final store may win the re-raced word; if no
            # post-resume store hits it, the recovered value stands.
            allowed = set(finals.get(addr, {}).values())
            allowed |= snap.allowed.get(addr, frozenset((0,)))
            if got not in allowed:
                failures.append(
                    {
                        "component": "final",
                        "addr": addr,
                        "got": got,
                        "allowed": sorted(allowed),
                    }
                )
        else:
            expected = golden_data.get(addr, 0)
            if got != expected:
                failures.append(
                    {
                        "component": "final",
                        "addr": addr,
                        "got": got,
                        "allowed": [expected],
                    }
                )
    return failures, checks


def _judge_point(
    program: LitmusProgram,
    k: int,
    snap: OutcomeSnapshot,
    state,
    mw_addrs,
    finals,
    golden_data,
    mutations,
    max_steps: int,
    previous: Optional[RecoveredState] = None,
) -> Tuple[List[Dict[str, object]], int, Optional[RecoveredState]]:
    """Recover + judge one captured crash state end to end.

    Returns ``(failures, checks, recovered)``: ``recovered`` is the
    point's :class:`~repro.arch.recovery.RecoveredState` (``None`` when
    recovery raised), for the next point's ``previous`` —
    :func:`~repro.arch.recovery.recover` hands it back when that point's
    snapshot is the same object.  The judges and the resume run per
    point either way.
    """
    from repro.arch.recovery import RecoveryError, recover, resume_and_finish
    from repro.isa.machine import MachineError

    try:
        recovered = recover(
            state,
            program.module,
            strict=False,
            mutations=mutations,
            previous=previous,
        )
    except RecoveryError as exc:
        return (
            [{"component": "recovery", "error": type(exc).__name__, "detail": str(exc)}],
            1,
            None,
        )
    failures, checks = _judge_crash_state(program, snap, recovered)
    try:
        machine = resume_and_finish(
            recovered,
            program.module,
            program.spawns,
            quantum=program.quantum,
            max_steps=max_steps,
        )
    except (RecoveryError, MachineError) as exc:
        failures.append(
            {"component": "resume-run", "error": type(exc).__name__, "detail": str(exc)}
        )
        return failures, checks + 1, recovered
    # The judge reads only ``program.addrs``, none of them checkpoint
    # storage (run_litmus_program refuses such a program), so the live
    # memory needs no masked copy.
    final_failures, final_checks = _judge_final_state(
        program, snap, mw_addrs, finals, golden_data, machine.memory
    )
    return failures + final_failures, checks + final_checks, recovered


# --------------------------------------------------------------------- matrix


def run_litmus_program(
    program: LitmusProgram,
    mutations=None,
    threshold: int = 32,
    params=None,
    cache=None,
    stop_on_forbidden: bool = False,
    max_steps: int = 2_000_000,
) -> LitmusVerdict:
    """Crash ``program`` at every observer event and judge every outcome.

    The reference automaton rides along the replay and its violations
    judge a fourth, *order* component — drain reorderings of committed
    values are value-invisible to single-crash recovery (every
    permutation of committed redo lands on the same word), so only the
    automaton can flag them (``reorder_phase2``).  ``cache`` is read by
    no code: verdicts are never stored.  It stays only because the
    benchmark harness (perfbench/workloads.py) passes ``cache=None``;
    drop it with the next change to the benchmark.

    Raises :class:`ValueError`, before any capture, if ``threshold`` is
    below :data:`~repro.compiler.regions.MIN_THRESHOLD`.
    """
    from repro.compiler.regions import MIN_THRESHOLD
    from repro.ir.module import is_ckpt_addr

    if threshold < MIN_THRESHOLD:
        raise ValueError(f"threshold {threshold} below minimum {MIN_THRESHOLD}")
    in_ckpt = [addr for addr in program.addrs if is_ckpt_addr(addr)]
    if in_ckpt:
        raise ValueError(
            f"litmus program {program.name!r} observes checkpoint storage "
            f"at {in_ckpt[0]:#x}; its final words are judged on the "
            "resumed machine's unmasked memory"
        )
    if params is None:
        params = litmus_params()
    started = time.perf_counter()
    from repro.fault.campaign import CampaignConfig
    from repro.fault.oracle import InterpretedSource
    from repro.trace.replay import TraceCampaignSource

    config = CampaignConfig(
        threshold=threshold,
        quantum=program.quantum,
        params=params,
        check=True,
        max_steps=max_steps,
        mutations=mutations,
    )
    # Mutations plant in the replayed *system* (pipeline bugs) and in
    # recovery below (recovery bugs) — each layer reads its own flags.
    source = TraceCampaignSource(program.module, program.spawns, config)
    trace = source.trace
    snapshots = oracle_snapshots(trace)
    finals = per_core_last_writes(trace)
    mw_addrs = frozenset(multi_writer_addrs(trace))
    golden_data = source.golden.data

    forbidden = 0
    checks = 0
    witness: Optional[LitmusWitness] = None
    recovered = None
    for k in range(len(trace)):
        state, _io, facade = source.capture_at(k)
        if state is None:
            break
        failures, point_checks, recovered = _judge_point(
            program, k, snapshots[k], state, mw_addrs, finals,
            golden_data, mutations, max_steps, recovered,
        )
        checks += point_checks
        if facade.report.violations:
            failures.append(
                {
                    "component": "order",
                    "kinds": sorted(
                        {v.kind for v in facade.report.violations}
                    ),
                }
            )
        if failures:
            forbidden += 1
            if witness is None:
                witness = LitmusWitness(
                    name=program.name,
                    seed=program.seed,
                    event_index=k,
                    event=repr(trace.event(k)),
                    failures=failures,
                    mutations=tuple(sorted(mutations.active))
                    if mutations
                    else (),
                )
                # Confirm the minimized witness off the replay path:
                # the interpreted reference (same mutations) at the
                # same crash point must agree.
                direct_state, _, direct_checker = InterpretedSource(
                    program.module, program.spawns, config
                ).capture_at(k)
                if direct_state is not None:
                    direct_failures, _, _ = _judge_point(
                        program, k, snapshots[k], direct_state, mw_addrs,
                        finals, golden_data, mutations, max_steps,
                    )
                    witness.confirmed = bool(
                        direct_failures or direct_checker.report.violations
                    )
            if stop_on_forbidden:
                break

    return LitmusVerdict(
        name=program.name,
        seed=program.seed,
        content_hash=program.content_hash(),
        mutations=tuple(sorted(mutations.active)) if mutations else (),
        crash_points=len(trace),
        forbidden=forbidden,
        checks=checks,
        elapsed=time.perf_counter() - started,
        witness=witness,
        replay_rebuilds=source.rebuilds,
    )


@dataclass
class LitmusMutantsResult:
    """Teeth report: the matrix against every planted protocol bug."""

    programs: int
    #: unmutated control: every program must show zero forbidden outcomes.
    control_forbidden: int
    #: mutant name -> caught by at least one program's matrix.
    detected: Dict[str, bool]
    witnesses: Dict[str, Dict[str, object]] = field(default_factory=dict)
    expected_misses: Tuple[str, ...] = EXPECTED_MISSES

    @property
    def detection_rate(self) -> Tuple[int, int]:
        return sum(self.detected.values()), len(self.detected)

    @property
    def ok(self) -> bool:
        caught, total = self.detection_rate
        missed = {m for m, hit in self.detected.items() if not hit}
        return (
            self.control_forbidden == 0
            and missed <= set(self.expected_misses)
            and caught >= total - len(self.expected_misses)
        )

    def to_payload(self) -> Dict[str, object]:
        return {
            "programs": self.programs,
            "control_forbidden": self.control_forbidden,
            "detected": dict(self.detected),
            "witnesses": dict(self.witnesses),
            "expected_misses": list(self.expected_misses),
            "detection_rate": list(self.detection_rate),
            "ok": self.ok,
        }


def run_litmus_mutants(
    programs: Sequence[LitmusProgram],
    mutants: Optional[Sequence[str]] = None,
    threshold: int = 32,
    params=None,
) -> LitmusMutantsResult:
    """Unmutated control + one matrix sweep per planted protocol bug.

    Every sweep visits both drain regimes of :func:`param_points`
    (unless ``params`` pins one): the throttled point keeps
    merge/reorder windows open, the fast point lets corrupted drains
    reach recoverable state.  A mutant counts as detected when any
    (program, regime) matrix observes a forbidden outcome; the sweep
    short-circuits per mutant on the first (event-minimal, confirmed)
    witness.  Raises :class:`ValueError` naming the known mutants, before
    any sweep runs, if ``mutants`` is empty (a matrix of no mutants
    detects nothing) or names an unknown one; the control sweep's first
    :func:`run_litmus_program` refuses a threshold below the minimum.
    """
    from repro.arch.persistence import ProtocolMutations
    from repro.check.mutants import MUTANT_EXPECTATIONS

    if mutants is None:
        mutants = list(MUTANT_EXPECTATIONS)
    if not mutants:
        raise ValueError(
            f"no mutants to check (known: {', '.join(MUTANT_EXPECTATIONS)})"
        )
    unknown = [name for name in mutants if name not in MUTANT_EXPECTATIONS]
    if unknown:
        raise ValueError(
            f"unknown mutant {unknown[0]!r} "
            f"(known: {', '.join(MUTANT_EXPECTATIONS)})"
        )
    points = param_points() if params is None else (params,)
    control_forbidden = 0
    for program in programs:
        for point in points:
            verdict = run_litmus_program(
                program, mutations=None, threshold=threshold, params=point
            )
            control_forbidden += verdict.forbidden

    detected: Dict[str, bool] = {}
    witnesses: Dict[str, Dict[str, object]] = {}
    for name in mutants:
        detected[name] = False
        for program in programs:
            for point in points:
                verdict = run_litmus_program(
                    program,
                    mutations=ProtocolMutations.single(name),
                    threshold=threshold,
                    params=point,
                    stop_on_forbidden=True,
                )
                if verdict.forbidden:
                    detected[name] = True
                    if verdict.witness is not None:
                        witnesses[name] = verdict.witness.to_payload()
                    break
            if detected[name]:
                break
    return LitmusMutantsResult(
        programs=len(programs),
        control_forbidden=control_forbidden,
        detected=detected,
        witnesses=witnesses,
    )

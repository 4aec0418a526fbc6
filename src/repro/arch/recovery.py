"""Crash recovery with undo+redo logging (paper Section 5.4).

The recovery protocol, per core, scans the surviving proxy entries oldest
first:

1. **Committed regions** — groups of data entries *followed by* a boundary
   entry completed their first phase; their redo data is copied to NVM in
   order, skipping entries whose redo valid-bit was unset by a regular-path
   writeback (Figure 7), and the boundary's staged register checkpoints
   are applied to the checkpoint array.
2. **The uncommitted tail** — data entries after the last boundary belong
   to the interrupted region, which never finished phase 1; their *undo*
   data is applied in reverse, rolling NVM back to the last committed
   region boundary.
3. **Register restore** — the interrupted core's register file is reloaded
   from the checkpoint array at the continuation's call depth; pruned
   checkpoints are rebuilt by executing the region's recovery blocks
   (Section 4.4.1).
4. **Resume** — execution restarts at the beginning of the interrupted
   region, with suspended caller frames restored from the continuation
   (our image of the WSP-persistent stack; see DESIGN.md).

A core with no committed boundary at all (crash before its first boundary
entry became durable) restarts cold from its spawn configuration.

Fault tolerance (docs/INTERNALS.md §5)
--------------------------------------
The durable structures carry integrity metadata — per-entry checksums in
the proxy buffers, a journal of the write-pending queue, and per-slot
shadow words for the register-checkpoint array — so recovery *verifies*
before it trusts.  Two modes:

* ``strict=True`` (default): the first inconsistency raises a typed
  :class:`RecoveryError` — :class:`TornEntryError`,
  :class:`CheckpointMismatchError`, :class:`OrphanedBoundaryError`, or
  :class:`WpqCorruptionError` — fail-stop semantics.
* ``strict=False``: corruption is *quarantined*.  Torn entries are
  skipped (their addresses marked tainted), a torn boundary rolls the
  core back to its last intact boundary, and a core whose checkpoint
  slots or continuation cannot be trusted is fenced off entirely (not
  resumed).  The outcome is described by a structured
  :class:`RecoveryReport` — corruption is detected and contained, never
  silently mis-recovered.

Re-entrancy (docs/INTERNALS.md §5.6)
------------------------------------
Recovery itself runs on mains power and can lose it.  The protocol is
therefore executed as an *ordered sequence of durable steps* — WPQ
replay writes, per-entry redo applies, checkpoint-array restores, undo
rollbacks, register/continuation restores — over a live persistent
domain (:func:`run_recovery`), with one standard Observer callback per
step so a :class:`~repro.arch.crash.CrashInjector` can cut power
mid-recovery exactly as it does mid-execution.  The durable inputs
(proxy buffers, WPQ journal, PC checkpoints) are read-only until the
final *recovery-complete commit* step, and every step writes absolute
values derived from those inputs — so re-entering recovery over a
recovery-crashed domain replays the same step sequence and converges to
the bit-identical :class:`RecoveredState` of an uninterrupted recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.arch.crash import CrashState
from repro.arch.nvm import word_checksum
from repro.arch.proxy import ProxyEntry
from repro.ir.function import RecoveryBlock
from repro.ir.instructions import BinOp, Move, UnOp, eval_binop, eval_unop
from repro.ir.module import Module, ckpt_slot_addr, is_ckpt_addr
from repro.ir.values import WORD_BYTES, Reg
from repro.isa.machine import Continuation, Machine
from repro.isa.trace import Observer


class RecoveryError(Exception):
    """Raised when the recovery protocol meets inconsistent durable state."""


class TornEntryError(RecoveryError):
    """A proxy-buffer entry's checksum does not match its payload — a
    torn multi-word entry write or an in-buffer bit flip."""


class CheckpointMismatchError(RecoveryError):
    """A register-checkpoint slot's shadow integrity word disagrees with
    the stored value."""


class OrphanedBoundaryError(RecoveryError):
    """A boundary's continuation references a function the module does
    not contain — the resume point is unusable."""


class WpqCorruptionError(RecoveryError):
    """A write-pending-queue journal record failed its checksum."""


# Finding kinds (RecoveryFinding.kind values).
TORN_ENTRY = "torn-entry"
CHECKSUM_MISMATCH = "checksum-mismatch"
ORPHANED_BOUNDARY = "orphaned-boundary"
TORN_WPQ = "torn-wpq"
ROLLED_BACK_REGION = "rolled-back-region"


@dataclass
class RecoveryFinding:
    """One detected inconsistency."""

    kind: str
    core: int
    detail: str
    addr: Optional[int] = None


@dataclass
class RecoveryReport:
    """Structured outcome of a lenient (``strict=False``) recovery."""

    findings: List[RecoveryFinding] = field(default_factory=list)
    #: corrupt proxy entries skipped (redo/undo not applied).
    quarantined_entries: int = 0
    #: cores fenced off entirely (untrusted checkpoints/continuation).
    quarantined_cores: List[int] = field(default_factory=list)
    #: committed regions rolled back because they follow a torn boundary.
    rolled_back_committed: int = 0
    #: WPQ journal records replayed into the array.
    wpq_replayed: int = 0
    #: addresses whose durable value could not be restored with
    #: confidence (a corrupt entry's undo/redo was untrusted).
    tainted_addrs: Set[int] = field(default_factory=set)

    @property
    def clean(self) -> bool:
        return not self.findings

    def add(
        self, kind: str, core: int, detail: str, addr: Optional[int] = None
    ) -> None:
        self.findings.append(RecoveryFinding(kind, core, detail, addr))

    def summary(self) -> str:
        if self.clean:
            return "clean recovery (no findings)"
        kinds: Dict[str, int] = {}
        for f in self.findings:
            kinds[f.kind] = kinds.get(f.kind, 0) + 1
        parts = [f"{k}×{n}" for k, n in sorted(kinds.items())]
        return (
            f"{len(self.findings)} findings ({', '.join(parts)}); "
            f"{self.quarantined_entries} entries quarantined, "
            f"cores fenced: {self.quarantined_cores or 'none'}, "
            f"{len(self.tainted_addrs)} tainted addrs"
        )


@dataclass
class CoreResume:
    """Where one core resumes after recovery."""

    continuation: Continuation
    region_id: int
    registers: List[int]


@dataclass
class RecoveredState:
    """Outcome of the recovery protocol."""

    nvm_image: Dict[int, int]
    #: per-core resume points; ``None`` = restart cold from spawn
    #: (unless the core is listed in ``report.quarantined_cores``).
    resumes: List[Optional[CoreResume]]
    #: statistics
    regions_redone: int = 0
    regions_rolled_back: int = 0
    redo_words: int = 0
    undo_words: int = 0
    recovery_blocks_run: int = 0
    #: integrity outcome (always present; empty findings when clean).
    report: RecoveryReport = field(default_factory=RecoveryReport)
    #: checkpoint-array shadow words after recovery (re-seeded into the
    #: resumed system so a later crash still verifies).
    ckpt_shadow: Dict[int, int] = field(default_factory=dict)
    #: durable recovery steps executed (= observer events emitted).
    steps: int = 0
    #: True once the final recovery-complete commit step has applied.
    committed: bool = False
    #: what :func:`recover` computed this from — the snapshot object, the
    #: module, ``strict`` and ``mutations`` — for its ``previous=`` test
    #: (``None`` for a bare :func:`run_recovery`).
    snapshot: Optional[CrashState] = field(default=None, repr=False, compare=False)
    module: Optional[Module] = field(default=None, repr=False, compare=False)
    strict: Optional[bool] = field(default=None, compare=False)
    mutations: object = field(default=None, compare=False)


def _eval_recovery_block(rb: RecoveryBlock, regs: List[int]) -> None:
    """Execute a pure recovery slice over the restored register file."""
    for instr in rb.instrs:
        if isinstance(instr, BinOp):
            a = regs[instr.lhs.index] if isinstance(instr.lhs, Reg) else instr.lhs.value
            b = regs[instr.rhs.index] if isinstance(instr.rhs, Reg) else instr.rhs.value
            regs[instr.dst.index] = eval_binop(instr.op, a, b)
        elif isinstance(instr, UnOp):
            a = regs[instr.src.index] if isinstance(instr.src, Reg) else instr.src.value
            regs[instr.dst.index] = eval_unop(instr.op, a)
        elif isinstance(instr, Move):
            regs[instr.dst.index] = (
                regs[instr.src.index] if isinstance(instr.src, Reg) else instr.src.value
            )
        else:  # pragma: no cover - pruning emits only pure instructions
            raise RecoveryError(f"impure instruction in recovery block: {instr!r}")


def _first_torn_boundary(
    entries: List[ProxyEntry], intact: List[bool]
) -> Optional[int]:
    for i, e in enumerate(entries):
        if e.is_boundary and not intact[i]:
            return i
    return None


def recover(
    state: CrashState,
    module: Module,
    strict: bool = True,
    mutations=None,
    previous: Optional[RecoveredState] = None,
) -> RecoveredState:
    """Run the Section 5.4 protocol over a crash snapshot.

    With ``strict=True`` (the default) any integrity violation raises a
    typed :class:`RecoveryError`; with ``strict=False`` corruption is
    quarantined and described in ``RecoveredState.report``.

    ``mutations`` (a :class:`repro.arch.persistence.ProtocolMutations`)
    plants recovery-protocol bugs for checker-sensitivity tests
    (``recovery_skip_redo``, ``recovery_stale_pc``,
    ``recovery_early_clear``); leave ``None`` for the faithful protocol.

    This is the pure, snapshot-in/state-out view: it drives
    :func:`run_recovery` with no observer over ``state.clone()``, whose
    image, journal and entry lists are its own and whose sealed proxy
    entries are shared (recovery never edits an entry), so the caller's
    snapshot is never mutated.  Use :func:`run_recovery` directly to
    model a recovery that can itself lose power.

    ``previous`` is an earlier result of this function.  When it was
    computed from this very snapshot object with the same ``module``,
    ``strict`` and ``mutations``, it is returned itself rather than
    recomputed: recovery is a function of the snapshot alone (§5.4), and
    :func:`~repro.arch.crash.capture_crash_state` hands the same
    snapshot object back only while the persistent domain is unchanged.
    Callers read a recovered state and never edit it.  A recovery that
    raised produced nothing to pass on, so it runs (and raises) again.
    """
    if (
        previous is not None
        and previous.snapshot is state
        and previous.module is module
        and previous.strict == strict
        and previous.mutations == mutations
    ):
        return previous
    out = run_recovery(state.clone(), module, strict=strict, mutations=mutations)
    out.snapshot, out.module = state, module
    out.strict, out.mutations = strict, mutations
    return out


def run_recovery(
    domain: CrashState,
    module: Module,
    strict: bool = True,
    mutations=None,
    observer: Optional[Observer] = None,
) -> RecoveredState:
    """Execute recovery as an ordered sequence of durable steps over the
    *live* persistent domain ``domain`` (mutated in place).

    Every durable step — WPQ replay write, redo apply, checkpoint-array
    restore, undo rollback, register/continuation restore, and the final
    recovery-complete commit — is announced through ``observer`` via the
    standard :class:`~repro.isa.trace.Observer` interface *before* its
    durable effect takes hold.  Wrapping the call in a
    :class:`~repro.arch.crash.CrashInjector` therefore interrupts
    recovery with the exact tick-before-effect semantics of an execution
    crash: a :class:`~repro.arch.crash.PowerFailure` at step *k* leaves
    steps ``0..k-1`` applied and *k* onwards not.

    The durable inputs (proxy buffers, WPQ journal, PC checkpoints) are
    read-only until the commit step, and every step writes an absolute
    value derived from them — never a read-modify-write of the image —
    so calling ``run_recovery`` again over a recovery-crashed ``domain``
    replays the same step sequence and converges to the bit-identical
    :class:`RecoveredState` of an uninterrupted recovery (the
    re-entrancy argument, docs/INTERNALS.md §5.6).  The commit step then
    clears the buffers and journal and rewrites the durable PC
    checkpoints to the post-recovery resume points.

    In strict mode an integrity violation raises mid-sequence, leaving
    ``domain`` partially recovered — but its durable inputs untouched,
    so a later (lenient) re-entry still sees the full evidence.
    """
    out = RecoveredState(
        nvm_image=domain.nvm_image,
        resumes=[],
        ckpt_shadow=domain.ckpt_shadow,
    )
    sink = observer if observer is not None else Observer()
    for emit, apply in _recovery_steps(domain, module, out, strict, mutations):
        emit(sink)  # a CrashInjector raises PowerFailure here
        apply()
        out.steps += 1
    return out


def _recovery_steps(
    domain: CrashState,
    module: Module,
    out: RecoveredState,
    strict: bool,
    mutations,
) -> Iterator[Tuple[Callable, Callable]]:
    """Yield recovery's ordered ``(emit, apply)`` durable-step pairs.

    ``emit(observer)`` announces the step; ``apply()`` performs its
    persistent-domain mutation.  Planning code between yields (buffer
    scans, integrity checks, report bookkeeping) runs only after every
    earlier step has applied — the driver applies each step before
    resuming the generator — so Phase C's image reads always see the
    completed Phase A/B writes.
    """
    skip_redo = mutations is not None and mutations.recovery_skip_redo
    stale_pc = mutations is not None and mutations.recovery_stale_pc
    early_clear = mutations is not None and getattr(
        mutations, "recovery_early_clear", False
    )
    image = domain.nvm_image
    shadow = domain.ckpt_shadow
    resumes = out.resumes
    report = out.report

    # -- WPQ replay: drain the surviving journal into the array --------
    # The WPQ sits inside the persistent domain (Table 1), so its
    # records survive the outage even if the array writes they describe
    # were cut mid-drain; replaying them in order is idempotent and
    # heals a partially drained array.
    for rec in list(domain.wpq):
        if not rec.intact:
            if strict:
                raise WpqCorruptionError(
                    f"WPQ record for {rec.addr:#x} failed its checksum"
                )
            report.add(
                TORN_WPQ,
                core=-1,
                detail=f"WPQ record for {rec.addr:#x} dropped",
                addr=rec.addr,
            )
            report.tainted_addrs.add(rec.addr)
            continue

        def emit(obs, rec=rec):
            obs.on_store(-1, rec.addr, rec.value, image.get(rec.addr, 0))

        def apply(rec=rec):
            if image.get(rec.addr) != rec.value:
                report.wpq_replayed += 1
            image[rec.addr] = rec.value
            if is_ckpt_addr(rec.addr):
                shadow[rec.addr] = word_checksum(rec.addr, rec.value)

        yield emit, apply

    entries_by_core = [list(domain.core_entries[c]) for c in range(domain.num_cores)]
    if early_clear:
        # The planted non-idempotence bug: durable buffers are cleared
        # HERE, before the redo/undo they hold has been applied, instead
        # of at the commit step.  A crash anywhere in the remainder of
        # recovery strands the re-entry without its inputs — exactly the
        # class of bug the multi-crash campaign exists to catch.
        domain.core_entries = [[] for _ in range(domain.num_cores)]
        domain.wpq = []

    for core in range(domain.num_cores):
        entries = entries_by_core[core]
        # Each entry's integrity is verified once per recovery: the
        # buffers are read-only until the commit step, so the verdict
        # cannot change between the phases below.  A sealed entry
        # (ProxyEntry.intact) skips the recompute at later crash points
        # that share it.
        intact = [e.intact for e in entries]

        if strict:
            for e, ok in zip(entries, intact):
                if not ok:
                    raise TornEntryError(
                        f"core {core}: torn {'boundary' if e.is_boundary else 'data'}"
                        f" entry (seq {e.region_seq}"
                        + ("" if e.is_boundary else f", addr {e.addr:#x}")
                        + ")"
                    )

        # A torn *boundary* makes its region's commit untrustworthy, and
        # entry ordering after it can no longer be anchored: cut the
        # timeline there and roll everything from the tear onwards back.
        cut = _first_torn_boundary(entries, intact)
        if cut is not None:
            effective = entries[:cut]
            torn_boundary = entries[cut]
            report.add(
                TORN_ENTRY,
                core,
                f"torn boundary entry (seq {torn_boundary.region_seq}); "
                "rolling back to last intact boundary",
            )
            report.quarantined_entries += 1
        else:
            effective = entries

        # The resume point starts at the durable PC checkpoint (regions
        # whose boundary entry already completed phase 2); surviving
        # boundary entries in the buffers are newer and override it.
        last_continuation, last_region_id = domain.pc_checkpoints.get(
            core, (None, None)
        )

        # Phase A: committed regions — redo in order, apply checkpoints.
        core_tainted = False
        tail_start = 0
        for i, entry in enumerate(effective):
            if not entry.is_boundary:
                continue
            for j in range(tail_start, i):
                data = effective[j]
                if not intact[j]:
                    report.add(
                        TORN_ENTRY,
                        core,
                        f"torn data entry in committed region "
                        f"{entry.region_id} (addr {data.addr:#x}); "
                        "redo dropped",
                        addr=data.addr,
                    )
                    report.quarantined_entries += 1
                    report.tainted_addrs.add(data.addr)
                    core_tainted = True
                    continue
                if data.redo_valid and not skip_redo:

                    def emit(obs, core=core, data=data):
                        obs.on_store(
                            core, data.addr, data.redo, image.get(data.addr, 0)
                        )

                    def apply(data=data):
                        image[data.addr] = data.redo
                        out.redo_words += 1

                    yield emit, apply
            for slot_addr, value in entry.ckpts.items():

                def emit(obs, core=core, slot_addr=slot_addr, value=value):
                    obs.on_ckpt(core, -1, value, slot_addr)

                def apply(slot_addr=slot_addr, value=value):
                    image[slot_addr] = value
                    shadow[slot_addr] = word_checksum(slot_addr, value)

                yield emit, apply
            if not stale_pc:
                last_continuation = entry.continuation
                last_region_id = entry.region_id
            out.regions_redone += 1
            tail_start = i + 1

        # Phase B: the uncommitted tail — undo in reverse.  Entries from
        # a torn boundary onwards are rolled back too: committed regions
        # beyond the tear cannot be anchored to a trusted resume point, so
        # the core rewinds to its last intact boundary.  ``effective`` is
        # a prefix of ``entries``, so both together are
        # ``entries[tail_start:]``.
        rolled_any = False
        for j in range(len(entries) - 1, tail_start - 1, -1):
            data = entries[j]
            if data.is_boundary:
                if intact[j]:
                    report.add(
                        ROLLED_BACK_REGION,
                        core,
                        f"committed region {data.region_id} rolled back "
                        "(follows a torn boundary)",
                    )
                    report.rolled_back_committed += 1
                continue
            if not intact[j]:
                report.add(
                    TORN_ENTRY,
                    core,
                    f"torn data entry in interrupted region "
                    f"(addr {data.addr:#x}); undo untrusted",
                    addr=data.addr,
                )
                report.quarantined_entries += 1
                report.tainted_addrs.add(data.addr)
                core_tainted = True
                continue
            rolled_any = True

            def emit(obs, core=core, data=data):
                obs.on_store(core, data.addr, data.undo, image.get(data.addr, 0))

            def apply(data=data):
                image[data.addr] = data.undo
                out.undo_words += 1

            yield emit, apply
        if rolled_any:
            out.regions_rolled_back += 1

        # Phase C: register restore + recovery blocks.
        if core_tainted:
            # A quarantined entry means some of this core's durable words
            # are indeterminate; resuming (or cold-restarting) over them
            # would silently propagate garbage.  Fence the core instead —
            # containment beats availability.
            report.quarantined_cores.append(core)
            resumes.append(None)
            continue
        if last_continuation is None:
            resumes.append(None)  # cold restart from spawn
            continue
        cont: Continuation = last_continuation
        func = module.functions.get(cont.func_name)
        if func is None:
            if strict:
                raise OrphanedBoundaryError(
                    f"core {core}: continuation references unknown function "
                    f"{cont.func_name!r}"
                )
            report.add(
                ORPHANED_BOUNDARY,
                core,
                f"continuation references unknown function {cont.func_name!r}; "
                "core fenced off",
            )
            report.quarantined_cores.append(core)
            resumes.append(None)
            continue
        depth = cont.depth
        num_regs = func.num_regs
        # One validated slot base per core (the interpreter's per-frame
        # slot base); the highest register is bounds-checked up front.
        slot_base = ckpt_slot_addr(core, 0, depth)
        if num_regs:
            ckpt_slot_addr(core, num_regs - 1, depth)
        regs: List[int] = []
        corrupt_slot: Optional[int] = None
        for r in range(num_regs):
            slot = slot_base + r * WORD_BYTES
            value = image.get(slot, 0)
            expected = shadow.get(slot)
            if slot in image or expected is not None:
                if expected is None or expected != word_checksum(slot, value):
                    corrupt_slot = slot
                    if strict:
                        raise CheckpointMismatchError(
                            f"core {core}: checkpoint slot {slot:#x} "
                            f"(r{r}, depth {depth}) failed its shadow check"
                        )
                    report.add(
                        CHECKSUM_MISMATCH,
                        core,
                        f"checkpoint slot for r{r} at depth {depth} "
                        "failed its shadow check; core fenced off",
                        addr=slot,
                    )
                    break
            regs.append(value)
        if corrupt_slot is not None:
            # The register file cannot be trusted; resuming could silently
            # compute garbage.  Fence the core off and report it.
            report.quarantined_cores.append(core)
            report.tainted_addrs.add(corrupt_slot)
            resumes.append(None)
            continue

        # The register/continuation restore is one durable step: the
        # resume point becomes real (recovery blocks rebuild pruned
        # slots as part of it, Section 4.4.1).
        def emit(obs, core=core, cont=cont, rid=last_region_id):
            obs.on_boundary(core, rid, cont)

        def apply(cont=cont, rid=last_region_id, regs=regs, func=func):
            for rb in func.recovery_blocks.get(rid, []):
                _eval_recovery_block(rb, regs)
                out.recovery_blocks_run += 1
            resumes.append(
                CoreResume(continuation=cont, region_id=rid, registers=regs)
            )

        yield emit, apply

    # -- recovery-complete commit: the single atomicity point ----------
    # Only after every redo/undo/restore has applied do the proxy
    # buffers, the WPQ journal, and the stale PC checkpoints get
    # retired.  A crash at any earlier step leaves all durable inputs in
    # place; a crash *at* this step (emit fires, apply does not) too —
    # so re-entry always recovers from the original evidence.
    def emit(obs):
        obs.on_fence(-1)

    def apply():
        domain.core_entries = [[] for _ in range(domain.num_cores)]
        domain.wpq = []
        domain.pc_checkpoints = {
            c: (r.continuation, r.region_id)
            for c, r in enumerate(resumes)
            if r is not None
        }
        out.committed = True

    yield emit, apply


def prepare_resumed_run(
    recovered: RecoveredState,
    module: Module,
    spawns: Sequence[Tuple[str, Sequence[int]]],
    params=None,
    threshold: int = 256,
    quantum: int = 32,
):
    """Build a (machine, system) pair continuing execution *under Capri*.

    Unlike :func:`resume_and_finish` (functional-only), the resumed run
    drives a fresh :class:`~repro.arch.system.CapriSystem` seeded with the
    recovered durable image — so a *second* power failure can be injected
    and recovered, modelling repeated outages (whole-system persistence
    must survive any number of them).
    """
    from repro.arch.params import SimParams
    from repro.arch.system import CapriSystem

    machine = _build_resumed_machine(recovered, module, spawns, quantum)
    system = CapriSystem(
        params or SimParams.scaled(),
        num_cores=max(1, len(spawns)),
        threshold=threshold,
    )
    system.nvm.image.update(recovered.nvm_image)
    # Checkpoint-array integrity words survive with the array.
    system.nvm.ckpt_shadow.update(recovered.ckpt_shadow)
    # The durable PC checkpoints survive the outage: re-seed them so an
    # immediate second crash still finds its resume points.
    for core, resume in enumerate(recovered.resumes):
        if resume is not None:
            system.nvm.pc_checkpoints[core] = (
                resume.continuation,
                resume.region_id,
            )
    return machine, system


def _build_resumed_machine(
    recovered: RecoveredState,
    module: Module,
    spawns: Sequence[Tuple[str, Sequence[int]]],
    quantum: int,
) -> Machine:
    machine = Machine(module, quantum=quantum, memory=dict(recovered.nvm_image))
    quarantined = set(recovered.report.quarantined_cores)
    for core, resume in enumerate(recovered.resumes):
        if core in quarantined:
            # Fenced-off core: leave its slot empty — it must not run.
            while len(machine.harts) <= core:
                machine.harts.append(None)  # type: ignore[arg-type]
            continue
        if resume is not None:
            machine.resume(core, resume.continuation, resume.registers)
        else:
            if core >= len(spawns):
                raise RecoveryError(
                    f"core {core}: no spawn configuration for cold restart"
                )
            func_name, args = spawns[core]
            cold = Continuation(
                func_name=func_name,
                label=module.functions[func_name].entry.label,
                index=0,
                callstack=(),
            )
            machine.resume(core, cold, args)
    for core in range(len(recovered.resumes), len(spawns)):
        func_name, args = spawns[core]
        hart = machine.spawn(func_name, args)
        hart.started = True  # no spawn-time persistence events on replay
    return machine


def resume_and_finish(
    recovered: RecoveredState,
    module: Module,
    spawns: Sequence[Tuple[str, Sequence[int]]],
    quantum: int = 32,
    max_steps: int = 50_000_000,
) -> Machine:
    """Restart execution from a recovered state and run to completion.

    Cores with a resume point continue at their interrupted region; cores
    without one restart from their spawn configuration.  Returns the
    finished machine (its memory is the post-recovery final state).
    """
    machine = _build_resumed_machine(recovered, module, spawns, quantum)
    machine.run(max_steps=max_steps)
    return machine

"""The online persistency checker: shadow state + model comparison.

:class:`PersistencyChecker` plays two roles at once:

* It is a machine :class:`~repro.isa.trace.Observer` — it consumes the
  architectural event stream (the same stream the system consumes; tee
  it *before* the system with :class:`~repro.isa.trace.TeeObserver` so
  the model is already updated when the pipeline reacts).
* It is the persistence engine's **watcher** — the proxy pipelines
  report what they *actually did* (entry created/merged, redo
  drained/skipped, boundary drained, writeback arrived) and every hook
  is validated against the reference automaton in
  :mod:`repro.check.model`.

Each hook is O(1) amortised: deque-head pops, dict lookups, and a
bounded ring-buffer append.  Whole-state sweeps run only at explicit
checkpoints — :meth:`check_crash_state` against a captured
:class:`~repro.arch.crash.CrashState`, :meth:`check_recovered` against
a :class:`~repro.arch.recovery.RecoveredState`, and :meth:`finalize`
after the run's terminal drain.

Typical use::

    checker = PersistencyChecker.attach(system)   # registers watcher
    machine.run(TeeObserver(checker, system))
    system.finish()
    checker.finalize(system)
    checker.report.raise_if_violated()

or just ``run_workload(..., check=True)``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.check.model import MULTI_WRITER, BoundaryMirror, EntryMirror, PersistencyModel
from repro.check.violations import (
    CORRUPT_UNDO,
    CheckReport,
    LOST_REDO,
    OUT_OF_ORDER_DRAIN,
    PHANTOM_PERSIST,
    PREMATURE_PERSIST,
    STALE_BOUNDARY_PC,
    STALE_REDO_OVERWRITE,
    UNCOVERED_CKPT_SLOT,
    Violation,
    minimize_witness,
)
from repro.isa.trace import Observer

#: Witness ring size — enough to span a drain burst around a violation.
_RING = 48


class PersistencyChecker(Observer):
    """Shadow-state sanitizer for the Capri persistence protocol."""

    def __init__(self, stale_read_prevention: bool = True) -> None:
        self.model = PersistencyModel(stale_read_prevention)
        self.report = CheckReport()
        #: one tick per observer callback — the same event universe the
        #: crash injector and :class:`~repro.isa.trace.TickCountingObserver`
        #: count, so violation indices line up with crash plans.
        self.event_index = 0
        self._ring: Deque[tuple] = deque(maxlen=_RING)

    # ------------------------------------------------------------------ setup

    @classmethod
    def attach(cls, system) -> "PersistencyChecker":
        """Create a checker and register it as ``system``'s persistence
        watcher.  The caller still must tee the machine event stream to
        the checker (see module docstring)."""
        from repro.deps import touch

        touch("check")  # usage-probe dependency recording
        if system.persist is None:
            raise ValueError(
                "persistency checking requires a persistent system "
                "(persistence=True)"
            )
        checker = cls(stale_read_prevention=system.params.stale_read_prevention)
        system.persist.set_watcher(checker)
        return checker

    # ------------------------------------------------------------------ internals

    def _emit(
        self,
        findings,
        core: int,
        default_addr: Optional[int] = None,
    ) -> None:
        for kind, detail, addr, seq in findings:
            self._crash_violation(
                kind, core, detail, default_addr if addr is None else addr, seq
            )

    def _witness(self, *ev) -> None:
        self._ring.append(ev)

    def _tick(self) -> None:
        self.event_index += 1
        self.report.events += 1

    # ------------------------------------------------------------------ machine observer

    def on_retire(self, core, kind):
        # Retires tick the event index (crash-plan universe) but are too
        # dense to be useful witness events.
        self._tick()

    def on_load(self, core, addr, value):
        self._tick()

    def on_store(self, core, addr, value, old):
        self._witness("store", core, addr, value, old)
        self.model.machine_store(core, addr, value, old)
        self._tick()

    def on_ckpt(self, core, reg, value, addr):
        self._witness("ckpt", core, addr, reg, value)
        self.model.machine_ckpt(core, addr, value)
        self._tick()

    def on_boundary(self, core, region_id, continuation):
        self._witness("boundary", core, region_id)
        self.model.machine_boundary(core, region_id, continuation)
        self._tick()

    def on_fence(self, core):
        self._tick()

    def on_atomic(self, core, addr, value, old):
        self._witness("atomic", core, addr, value, old)
        self.model.machine_store(core, addr, value, old)
        self._tick()

    def on_io(self, core, port, value):
        self._witness("io", core, port)
        self._tick()

    def on_halt(self, core):
        self._witness("halt", core)
        self._tick()

    # ------------------------------------------------------------------ persistence watcher

    def on_entry(self, core, seq, addr, undo, redo):
        self._witness("entry", core, addr, seq, undo, redo)
        self._emit(self.model.entry_created(core, seq, addr, undo, redo), core, addr)

    def on_merge(self, core, seq, addr, redo):
        self._witness("merge", core, addr, seq, redo)
        self._emit(self.model.entry_merged(core, seq, addr, redo), core, addr)

    def on_redo_drained(self, core, seq, addr, value):
        self._witness("drain", core, addr, seq, value)
        self._emit(self.model.redo_drained(core, seq, addr, value), core, addr)

    def on_redo_skipped(self, core, seq, addr):
        self._witness("skip", core, addr, seq)
        self._emit(self.model.redo_skipped(core, seq, addr), core, addr)

    def on_boundary_drained(
        self, core, seq, region_id, continuation, ckpts_written, pc_written
    ):
        self._witness("boundary-drain", core, seq, region_id)
        self._emit(
            self.model.boundary_drained(
                core, seq, region_id, continuation, ckpts_written, pc_written
            ),
            core,
        )

    def on_writeback(self, addr, value):
        self._witness("writeback", -1, addr, value)
        self.model.writeback(addr, value)

    # ------------------------------------------------------------------ whole-state checks

    def check_crash_state(self, state) -> None:
        """Structurally compare a captured :class:`CrashState` against the
        model's expected undrained entries, field by field, and run a
        reference recovery over the captured image."""
        from repro.arch.proxy import _continuation_key

        model = self.model
        for core in range(state.num_cores):
            cm = model.cores.get(core)
            expected: List[Any] = list(cm.emitted) if cm is not None else []
            actual = state.core_entries[core]
            for i in range(min(len(expected), len(actual))):
                self._compare_entry(core, i, expected[i], actual[i])
            for item in expected[len(actual):]:
                if isinstance(item, EntryMirror):
                    if item.seq in (cm.committed if cm else {}):
                        self._crash_violation(
                            LOST_REDO,
                            core,
                            f"committed redo for addr {item.addr:#x} (seq "
                            f"{item.seq}) missing from surviving buffers",
                            addr=item.addr,
                            seq=item.seq,
                        )
                else:
                    self._crash_violation(
                        LOST_REDO,
                        core,
                        f"committed boundary seq {item.seq} missing from "
                        "surviving buffers",
                        seq=item.seq,
                    )
            for entry in actual[len(expected):]:
                self._crash_violation(
                    PHANTOM_PERSIST,
                    core,
                    f"surviving {'boundary' if entry.is_boundary else 'data'} "
                    f"entry (seq {entry.region_seq}) the model never saw",
                    addr=None if entry.is_boundary else entry.addr,
                    seq=entry.region_seq,
                )
            # Durable PC checkpoint must name the last *fully drained*
            # boundary (DESIGN.md finding #1).
            if cm is not None and cm.last_drained is not None:
                cont, region_id = state.pc_checkpoints.get(core, (None, None))
                rec = cm.last_drained
                if (
                    cont is None
                    or _continuation_key(cont) != rec.continuation_key
                    or region_id != rec.region_id
                ):
                    self._crash_violation(
                        STALE_BOUNDARY_PC,
                        core,
                        f"durable PC checkpoint names region {region_id}, "
                        f"last drained boundary was region {rec.region_id} "
                        f"(seq {rec.seq})",
                        seq=rec.seq,
                    )
        if model.prevention:
            # Reference-recover the image with the model's expected
            # surviving entries and require the committed prefix back.
            self._check_values(
                model.reference_recovery(state.nvm_image),
                "reference recovery of",
                verb="yields",
            )
        self.model.checks += 1

    def _compare_entry(self, core: int, pos: int, expect, entry) -> None:
        from repro.arch.proxy import _continuation_key

        if isinstance(expect, EntryMirror):
            if entry.is_boundary:
                self._crash_violation(
                    OUT_OF_ORDER_DRAIN,
                    core,
                    f"buffer position {pos}: expected data entry (seq "
                    f"{expect.seq} addr {expect.addr:#x}), found boundary "
                    f"seq {entry.region_seq}",
                    seq=expect.seq,
                )
                return
            if entry.region_seq != expect.seq or entry.addr != expect.addr:
                self._crash_violation(
                    OUT_OF_ORDER_DRAIN,
                    core,
                    f"buffer position {pos}: expected seq {expect.seq} addr "
                    f"{expect.addr:#x}, found seq {entry.region_seq} addr "
                    f"{entry.addr:#x}",
                    addr=expect.addr,
                    seq=expect.seq,
                )
                return
            if entry.undo != expect.undo:
                self._crash_violation(
                    CORRUPT_UNDO,
                    core,
                    f"surviving undo {entry.undo} != architectural "
                    f"pre-store value {expect.undo}",
                    addr=entry.addr,
                    seq=entry.region_seq,
                )
            if entry.redo != expect.redo:
                self._crash_violation(
                    LOST_REDO,
                    core,
                    f"surviving redo {entry.redo} != committed value "
                    f"{expect.redo}",
                    addr=entry.addr,
                    seq=entry.region_seq,
                )
            if self.model.prevention and entry.redo_valid != expect.valid:
                if entry.redo_valid:
                    self._crash_violation(
                        STALE_REDO_OVERWRITE,
                        core,
                        f"redo for addr {entry.addr:#x} still valid; a "
                        "regular-path writeback superseded it",
                        addr=entry.addr,
                        seq=entry.region_seq,
                    )
                else:
                    self._crash_violation(
                        LOST_REDO,
                        core,
                        f"redo for addr {entry.addr:#x} invalidated with no "
                        "writeback to justify it",
                        addr=entry.addr,
                        seq=entry.region_seq,
                    )
        else:  # BoundaryMirror
            if not entry.is_boundary or entry.region_seq != expect.seq:
                self._crash_violation(
                    OUT_OF_ORDER_DRAIN,
                    core,
                    f"buffer position {pos}: expected boundary seq "
                    f"{expect.seq}, found "
                    + (
                        f"boundary seq {entry.region_seq}"
                        if entry.is_boundary
                        else f"data seq {entry.region_seq} addr {entry.addr:#x}"
                    ),
                    seq=expect.seq,
                )
                return
            if dict(entry.ckpts) != expect.ckpts:
                self._crash_violation(
                    UNCOVERED_CKPT_SLOT,
                    core,
                    f"boundary seq {expect.seq}: staged checkpoints "
                    f"{sorted(entry.ckpts)} != expected "
                    f"{sorted(expect.ckpts)}",
                    seq=expect.seq,
                )
            if (
                _continuation_key(entry.continuation) != expect.continuation_key
                or entry.region_id != expect.region_id
            ):
                self._crash_violation(
                    STALE_BOUNDARY_PC,
                    core,
                    f"boundary seq {expect.seq} carries continuation for "
                    f"region {entry.region_id}, expected region "
                    f"{expect.region_id}",
                    seq=expect.seq,
                )

    def _crash_violation(
        self,
        kind: str,
        core: int,
        detail: str,
        addr: Optional[int] = None,
        seq: Optional[int] = None,
    ) -> None:
        """Report one finding, streaming or whole-state, with its
        minimized witness: the one place a :class:`Violation` is built."""
        self.report.add(
            Violation(
                kind=kind,
                core=core,
                detail=detail,
                event_index=self.event_index,
                addr=addr,
                seq=seq,
                witness=minimize_witness(self._ring, core=core, addr=addr),
            )
        )

    def _check_values(
        self,
        image: Dict[int, int],
        site: str,
        verb: str = "is",
        include_rollback: bool = True,
        quarantined: frozenset = frozenset(),
        premature: bool = False,
    ) -> None:
        """Judge every written word of ``image`` (checkpoint slots aside)
        against :meth:`PersistencyModel.allowed_values`, the one
        contribution rule: a single-writer word must equal its one
        member, then a multi-writer word must be a member unless a
        regular-path writeback touched it.  Meaningful only with
        stale-read prevention on.  ``quarantined`` cores are exempt, and
        any quarantine exempts every multi-writer word (dropping whole
        cores shrinks the contribution set per-address unattributably).
        With ``premature``, a single-writer word holding its writer's
        open speculative store is a ``premature-persist``.
        """
        from repro.ir.module import is_ckpt_addr

        model = self.model
        if not model.prevention:
            return
        for multi in (False, True) if not quarantined else (False,):
            for addr, writer in model.writers.items():
                if (writer == MULTI_WRITER) != multi or is_ckpt_addr(addr):
                    continue
                if writer in quarantined or (multi and addr in model.wb_addrs):
                    continue
                allowed = model.allowed_values(addr, include_rollback)
                got = image.get(addr, 0)
                if got in allowed:
                    continue
                if multi:
                    self._crash_violation(
                        LOST_REDO,
                        -1,
                        f"{site} multi-writer addr {addr:#x} {verb} {got}, "
                        f"allowed set is {sorted(allowed)}",
                        addr=addr,
                    )
                    continue
                cm = model.cores.get(writer)
                open_store = cm.open_stores.get(addr) if premature and cm else None
                leaked = open_store is not None and got == open_store[2]
                (want,) = allowed
                self._crash_violation(
                    PREMATURE_PERSIST if leaked else LOST_REDO,
                    writer,
                    f"{site} addr {addr:#x} {verb} {got}, "
                    f"committed prefix requires {want}",
                    addr=addr,
                )

    def check_recovered(self, recovered) -> None:
        """Validate a :class:`RecoveredState` produced by the *real*
        recovery protocol against the committed prefix.  Only meaningful
        for clean recoveries (no injected corruption) — quarantined
        cores are exempt by design."""
        model = self.model
        quarantined = frozenset(recovered.report.quarantined_cores)
        self._check_values(
            recovered.nvm_image,
            "recovered value of",
            quarantined=quarantined,
            premature=True,
        )
        from repro.arch.proxy import _continuation_key

        for core, cm in model.cores.items():
            if core in quarantined or core >= len(recovered.resumes):
                continue
            last = cm.last_committed()
            if last is None:
                continue
            resume = recovered.resumes[core]
            if resume is None:
                self._crash_violation(
                    STALE_BOUNDARY_PC,
                    core,
                    f"core has committed region {last.region_id} (seq "
                    f"{last.seq}) but recovery restarts it cold",
                    seq=last.seq,
                )
                continue
            if (
                _continuation_key(resume.continuation) != last.continuation_key
                or resume.region_id != last.region_id
            ):
                self._crash_violation(
                    STALE_BOUNDARY_PC,
                    core,
                    f"recovery resumes core at region {resume.region_id}, "
                    f"last committed region is {last.region_id} (seq "
                    f"{last.seq})",
                    seq=last.seq,
                )
        self.model.checks += 1

    def finalize(self, system) -> None:
        """End-of-run check: after the terminal drain every committed
        region must be durable and the final NVM image must equal the
        committed prefix."""
        model = self.model
        for core, cm in model.cores.items():
            for item in cm.emitted:
                if isinstance(item, BoundaryMirror):
                    self._crash_violation(
                        LOST_REDO,
                        core,
                        f"committed region seq {item.seq} never became "
                        "durable (boundary entry still undrained at end "
                        "of run)",
                        seq=item.seq,
                    )
                elif item.seq in cm.committed:
                    self._crash_violation(
                        LOST_REDO,
                        core,
                        f"committed redo for addr {item.addr:#x} (seq "
                        f"{item.seq}) still undrained at end of run",
                        addr=item.addr,
                        seq=item.seq,
                    )
        leftover_committed = any(
            item.seq in cm.committed
            for cm in model.cores.values()
            for item in cm.emitted
        )
        if model.prevention and not leftover_committed:
            image = system.nvm.image
            # Nothing is open or pending after the terminal drain, so
            # only committed-last values contribute.
            self._check_values(
                image, "final NVM value of", include_rollback=False
            )
            for slot, want in model.committed_ckpt.items():
                got = image.get(slot)
                if got != want:
                    self._crash_violation(
                        UNCOVERED_CKPT_SLOT,
                        -1,
                        f"final checkpoint slot {slot:#x} holds "
                        f"{got}, last committed value was {want}",
                        addr=slot,
                    )
        self.report.checks = model.checks
        self.model.checks += 1

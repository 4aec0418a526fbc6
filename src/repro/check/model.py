"""The reference automaton of region-level strict persistency.

The model consumes the *architectural* event stream (stores, checkpoint
stores, region boundaries — Section 5.1's ground truth) and derives,
per core, what the persistence hardware is *permitted* to do:

* which regions are **committed** (a boundary event whose region was
  non-empty — mirroring the Section 5.2.1 traffic optimisation: empty
  regions emit no delimiter and occupy no sequence number),
* the exact FIFO of proxy-buffer emissions each committed prefix
  implies (data entries with their undo/redo words, then the boundary
  with its staged checkpoints and continuation),
* which redo words a regular-path writeback has superseded (the
  Section 5.3.2 valid-bit axiom), and
* the set of NVM states the spec permits: *NVM must always be
  recoverable to the committed prefix* — committed redo in region
  order, uncommitted stores covered by intact undo.

Two regression-locked reproduction findings from DESIGN.md are axioms
here: a boundary drain must publish the durable PC checkpoint naming
that boundary (finding #1), and writeback invalidation must cover
in-flight entries so a delayed drain can never stale-out newer data
(finding #2, the dirty-migration scenario).

The proxy hooks (:class:`repro.check.checker.PersistencyChecker`
forwards them) are validated against this automaton in O(1) amortised
per event: every hook does dictionary/deque head work only; the
whole-state sweeps happen once per crash snapshot or at finalize.

Multicore: for addresses written by more than one core the commit
order across cores is ambiguous (two cores' committed redo for the
same word race in recovery order), so exact-value checks are
impossible.  Such addresses get a *membership* check instead — the
recovered value must come from :meth:`PersistencyModel.allowed_values`
(each touching core's committed-last redo, or its rollback target when
a region is open).  That method is the one statement of the
contribution rule: single-writer exact checks read its one member, and
the :mod:`repro.litmus` outcome oracle is a read-only projection of a
model driven straight off a captured trace (the model is itself a
machine :class:`~repro.isa.trace.Observer`).  Addresses that took a
regular-path writeback fall back to the structural checks only (the
writeback's interleaving with per-core recovery passes is not
modelled).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.arch.proxy import _continuation_key
from repro.check.violations import (
    CORRUPT_UNDO,
    LOST_REDO,
    OUT_OF_ORDER_DRAIN,
    PHANTOM_PERSIST,
    PREMATURE_PERSIST,
    STALE_BOUNDARY_PC,
    STALE_REDO_OVERWRITE,
    UNCOVERED_CKPT_SLOT,
)
from repro.isa.trace import Observer

#: (kind, detail, addr, seq) — the checker wraps these with core/event
#: index/witness.
Finding = Tuple[str, str, Optional[int], Optional[int]]

#: writers[addr] value for cross-core addresses (value checks skip them).
MULTI_WRITER = -2


class EntryMirror:
    """Expected state of one live proxy data entry."""

    __slots__ = ("seq", "addr", "undo", "redo", "valid")

    def __init__(self, seq: int, addr: int, undo: int, redo: int) -> None:
        self.seq = seq
        self.addr = addr
        self.undo = undo
        self.redo = redo
        self.valid = True


class BoundaryMirror:
    """Expected state of one live boundary entry."""

    __slots__ = ("seq", "region_id", "continuation_key", "ckpts")

    def __init__(
        self, seq: int, region_id: int, continuation_key: tuple, ckpts: Dict[int, int]
    ) -> None:
        self.seq = seq
        self.region_id = region_id
        self.continuation_key = continuation_key
        self.ckpts = ckpts


class RegionRecord:
    """One committed region (a boundary event that emitted)."""

    __slots__ = ("seq", "region_id", "continuation_key", "stores", "ckpts", "drained")

    def __init__(
        self,
        seq: int,
        region_id: int,
        continuation_key: tuple,
        stores: Dict[int, Tuple[int, int]],
        ckpts: Dict[int, int],
    ) -> None:
        self.seq = seq
        self.region_id = region_id
        self.continuation_key = continuation_key
        self.stores = stores  # addr -> (first undo, final redo)
        self.ckpts = ckpts
        self.drained = False


class CoreModel:
    """Per-core automaton state."""

    __slots__ = (
        "core",
        "next_seq",
        "open_stores",
        "staging",
        "committed",
        "emitted",
        "merge_map",
        "drained_boundaries",
        "last_drained",
        "committed_last",
    )

    def __init__(self, core: int) -> None:
        self.core = core
        #: sequence number the open region will take if it commits.
        self.next_seq = 0
        #: open-region stores: addr -> [first_old, last_old, last_value].
        self.open_stores: Dict[int, List[int]] = {}
        #: staged register checkpoints since the last emitted boundary.
        self.staging: Dict[int, int] = {}
        #: committed regions by sequence number.
        self.committed: Dict[int, RegionRecord] = {}
        #: expected proxy-buffer FIFO (creation order, undrained).
        self.emitted: Deque[Any] = deque()
        #: addr -> newest live mirror (the pipeline's merge candidate).
        self.merge_map: Dict[int, EntryMirror] = {}
        #: boundaries drained so far == the only seq allowed to drain.
        self.drained_boundaries = 0
        self.last_drained: Optional[RegionRecord] = None
        #: addr -> this core's latest *committed* redo value.
        self.committed_last: Dict[int, int] = {}

    def last_committed(self) -> Optional[RegionRecord]:
        """The newest committed region, or ``None`` before the first."""
        return self.committed.get(self.next_seq - 1)


class PersistencyModel(Observer):
    """The whole-system automaton: per-core state + global value maps.

    It observes the machine directly (``on_store``/``on_atomic``/
    ``on_ckpt``/``on_boundary`` are the ``machine_*`` events), so a
    captured trace can drive it with no checker or system attached.
    """

    def __init__(self, stale_read_prevention: bool = True) -> None:
        self.prevention = stale_read_prevention
        self.cores: Dict[int, CoreModel] = {}
        #: addr -> pre-first-store (initial) value.
        self.baseline: Dict[int, int] = {}
        #: ckpt slot -> latest committed value.
        self.committed_ckpt: Dict[int, int] = {}
        #: addr -> writing core, or MULTI_WRITER.
        self.writers: Dict[int, int] = {}
        #: addrs that took a regular-path writeback (membership checks
        #: skip them — the writeback races the recovery passes).
        self.wb_addrs: set = set()
        self.checks = 0
        #: bumped by every mutator below, so an unchanged version means
        #: every whole-state check would read the same model.
        self.version = 0

    def core(self, core: int) -> CoreModel:
        cm = self.cores.get(core)
        if cm is None:
            cm = CoreModel(core)
            self.cores[core] = cm
        return cm

    # ---------------------------------------------------------------- machine events

    def machine_store(self, core: int, addr: int, value: int, old: int) -> None:
        """An architectural store (or atomic) retired on ``core``."""
        self.version += 1
        cm = self.core(core)
        w = self.writers.get(addr)
        if w is None:
            self.writers[addr] = core
        elif w != core:
            self.writers[addr] = MULTI_WRITER
        self.baseline.setdefault(addr, old)
        rec = cm.open_stores.get(addr)
        if rec is None:
            cm.open_stores[addr] = [old, old, value]
        else:
            rec[1] = old
            rec[2] = value

    def machine_ckpt(self, core: int, slot_addr: int, value: int) -> None:
        self.version += 1
        self.core(core).staging[slot_addr] = value

    def machine_boundary(self, core: int, region_id: int, continuation: Any) -> None:
        """A region boundary retired; commit the open region if it emits."""
        self.version += 1
        cm = self.core(core)
        emit = bool(cm.open_stores) or bool(cm.staging) or region_id == -1
        if not emit:
            return
        seq = cm.next_seq
        record = RegionRecord(
            seq,
            region_id,
            _continuation_key(continuation),
            {a: (v[0], v[2]) for a, v in cm.open_stores.items()},
            dict(cm.staging),
        )
        cm.committed[seq] = record
        for a, (_, redo) in record.stores.items():
            cm.committed_last[a] = redo
        for slot, value in record.ckpts.items():
            self.committed_ckpt[slot] = value
        cm.emitted.append(
            BoundaryMirror(seq, region_id, record.continuation_key, record.ckpts)
        )
        cm.open_stores = {}
        cm.staging = {}
        cm.merge_map = {}
        cm.next_seq = seq + 1

    on_store = on_atomic = machine_store
    on_boundary = machine_boundary

    def on_ckpt(self, core: int, reg: int, value: int, addr: int) -> None:
        self.machine_ckpt(core, addr, value)

    # ---------------------------------------------------------------- proxy hooks

    def entry_created(
        self, core: int, seq: int, addr: int, undo: int, redo: int
    ) -> List[Finding]:
        self.version += 1
        cm = self.core(core)
        self.checks += 1
        out: List[Finding] = []
        if seq != cm.next_seq:
            out.append((
                PREMATURE_PERSIST,
                f"data entry tagged region seq {seq}, open region is "
                f"{cm.next_seq}",
                addr,
                seq,
            ))
        rec = cm.open_stores.get(addr)
        if rec is None:
            out.append((
                PHANTOM_PERSIST,
                "proxy entry created with no architectural store behind it",
                addr,
                seq,
            ))
        else:
            if undo != rec[1]:
                out.append((
                    CORRUPT_UNDO,
                    f"entry undo {undo} != architectural pre-store value {rec[1]}",
                    addr,
                    seq,
                ))
            if redo != rec[2]:
                out.append((
                    LOST_REDO,
                    f"entry redo {redo} != stored value {rec[2]}",
                    addr,
                    seq,
                ))
        mirror = EntryMirror(seq, addr, undo if rec is None else rec[1], rec[2] if rec else redo)
        cm.emitted.append(mirror)
        cm.merge_map[addr] = mirror
        return out

    def entry_merged(
        self, core: int, seq: int, addr: int, redo: int
    ) -> List[Finding]:
        self.version += 1
        cm = self.core(core)
        self.checks += 1
        out: List[Finding] = []
        if seq != cm.next_seq:
            out.append((
                PREMATURE_PERSIST,
                f"store merged into region seq {seq} after that region "
                f"committed (open region is {cm.next_seq})",
                addr,
                seq,
            ))
            return out
        mirror = cm.merge_map.get(addr)
        rec = cm.open_stores.get(addr)
        if mirror is None or rec is None:
            out.append((
                PHANTOM_PERSIST,
                "merge reported for an address with no live entry",
                addr,
                seq,
            ))
            return out
        if redo != rec[2]:
            out.append((
                LOST_REDO,
                f"merged redo {redo} != stored value {rec[2]}",
                addr,
                seq,
            ))
        mirror.redo = rec[2]
        return out

    def _resync(self, cm: CoreModel, seq: int, addr: Optional[int]) -> None:
        """After an order violation, remove the drained item from the
        expected FIFO wherever it is, bounding cascade noise."""
        for i, item in enumerate(cm.emitted):
            if addr is None:
                if isinstance(item, BoundaryMirror) and item.seq == seq:
                    del cm.emitted[i]
                    return
            elif (
                isinstance(item, EntryMirror)
                and item.seq == seq
                and item.addr == addr
            ):
                del cm.emitted[i]
                return

    def redo_drained(
        self, core: int, seq: int, addr: int, value: int
    ) -> List[Finding]:
        self.version += 1
        cm = self.core(core)
        self.checks += 1
        out: List[Finding] = []
        head = cm.emitted[0] if cm.emitted else None
        mirror: Optional[EntryMirror] = None
        if (
            isinstance(head, EntryMirror)
            and head.seq == seq
            and head.addr == addr
        ):
            mirror = head
            cm.emitted.popleft()
        else:
            expect = (
                f"boundary seq {head.seq}"
                if isinstance(head, BoundaryMirror)
                else f"data seq {head.seq} addr {head.addr:#x}"
                if isinstance(head, EntryMirror)
                else "nothing"
            )
            out.append((
                OUT_OF_ORDER_DRAIN,
                f"drained data seq {seq} but creation order expects {expect}",
                addr,
                seq,
            ))
            for item in cm.emitted:
                if (
                    isinstance(item, EntryMirror)
                    and item.seq == seq
                    and item.addr == addr
                ):
                    mirror = item
                    break
            self._resync(cm, seq, addr)
        if seq != cm.drained_boundaries and not out:
            out.append((
                OUT_OF_ORDER_DRAIN,
                f"drained data of region seq {seq}; drain cursor is at "
                f"{cm.drained_boundaries}",
                addr,
                seq,
            ))
        if seq not in cm.committed:
            out.append((
                PREMATURE_PERSIST,
                f"redo of *uncommitted* region seq {seq} reached NVM "
                f"(value {value})",
                addr,
                seq,
            ))
            return out
        if mirror is None:
            out.append((
                PHANTOM_PERSIST,
                f"redo drain for an entry the model never saw (seq {seq})",
                addr,
                seq,
            ))
            return out
        if not mirror.valid and self.prevention:
            out.append((
                STALE_REDO_OVERWRITE,
                "redo word superseded by a regular-path writeback drained "
                "anyway (valid-bit should be unset)",
                addr,
                seq,
            ))
        elif value != mirror.redo:
            out.append((
                LOST_REDO,
                f"drained value {value} != committed redo {mirror.redo}"
                + (" (undo word drained?)" if value == mirror.undo else ""),
                addr,
                seq,
            ))
        return out

    def redo_skipped(self, core: int, seq: int, addr: int) -> List[Finding]:
        self.version += 1
        cm = self.core(core)
        self.checks += 1
        out: List[Finding] = []
        head = cm.emitted[0] if cm.emitted else None
        mirror: Optional[EntryMirror] = None
        if (
            isinstance(head, EntryMirror)
            and head.seq == seq
            and head.addr == addr
        ):
            mirror = head
            cm.emitted.popleft()
        else:
            for item in cm.emitted:
                if (
                    isinstance(item, EntryMirror)
                    and item.seq == seq
                    and item.addr == addr
                ):
                    mirror = item
                    break
            self._resync(cm, seq, addr)
        if mirror is None:
            return out
        if mirror.valid:
            out.append((
                LOST_REDO,
                f"valid committed redo (value {mirror.redo}) skipped at "
                "phase-2 drain",
                addr,
                seq,
            ))
        return out

    def boundary_drained(
        self,
        core: int,
        seq: int,
        region_id: int,
        continuation: Any,
        ckpts_written: Dict[int, int],
        pc_written: bool,
    ) -> List[Finding]:
        self.version += 1
        cm = self.core(core)
        self.checks += 1
        out: List[Finding] = []
        head = cm.emitted[0] if cm.emitted else None
        if isinstance(head, BoundaryMirror) and head.seq == seq:
            cm.emitted.popleft()
        else:
            out.append((
                OUT_OF_ORDER_DRAIN,
                f"boundary seq {seq} drained out of creation order",
                None,
                seq,
            ))
            self._resync(cm, seq, None)
        if seq != cm.drained_boundaries and not out:
            out.append((
                OUT_OF_ORDER_DRAIN,
                f"boundary seq {seq} drained; drain cursor is at "
                f"{cm.drained_boundaries}",
                None,
                seq,
            ))
        record = cm.committed.get(seq)
        if record is None:
            out.append((
                PHANTOM_PERSIST,
                f"boundary drained for a region the model never committed "
                f"(seq {seq})",
                None,
                seq,
            ))
            return out
        for slot, value in record.ckpts.items():
            got = ckpts_written.get(slot)
            if got is None:
                out.append((
                    UNCOVERED_CKPT_SLOT,
                    f"staged checkpoint slot {slot:#x} (value {value}) not "
                    "flushed at boundary drain",
                    slot,
                    seq,
                ))
            elif got != value:
                out.append((
                    UNCOVERED_CKPT_SLOT,
                    f"checkpoint slot {slot:#x} flushed with {got}, staged "
                    f"value was {value}",
                    slot,
                    seq,
                ))
        for slot in ckpts_written:
            if slot not in record.ckpts:
                out.append((
                    PHANTOM_PERSIST,
                    f"checkpoint slot {slot:#x} written at boundary drain "
                    "but never staged",
                    slot,
                    seq,
                ))
        if not pc_written:
            out.append((
                STALE_BOUNDARY_PC,
                f"boundary seq {seq} drained without publishing the durable "
                "PC checkpoint",
                None,
                seq,
            ))
        elif (
            _continuation_key(continuation) != record.continuation_key
            or region_id != record.region_id
        ):
            out.append((
                STALE_BOUNDARY_PC,
                f"durable PC checkpoint names region {region_id}, boundary "
                f"seq {seq} belongs to region {record.region_id}",
                None,
                seq,
            ))
        cm.drained_boundaries = max(cm.drained_boundaries, seq + 1)
        record.drained = True
        cm.last_drained = record
        return out

    def writeback(self, addr: int, value: int) -> None:
        """A dirty line word reached NVM via the regular path: with
        stale-read prevention on, every live redo word for ``addr`` is
        now superseded and must not drain (Section 5.3.2)."""
        self.version += 1
        self.wb_addrs.add(addr)
        if not self.prevention:
            return
        for cm in self.cores.values():
            mirror = cm.merge_map.get(addr)
            if mirror is not None:
                mirror.valid = False
            for item in cm.emitted:
                if isinstance(item, EntryMirror) and item.addr == addr:
                    item.valid = False

    # ---------------------------------------------------------------- whole-state checks

    def reference_recovery(self, nvm_image: Dict[int, int]) -> Dict[int, int]:
        """Apply the Section 5.4 protocol to ``nvm_image`` using the
        model's *expected* surviving entries: committed valid redo in
        order, then uncommitted undo in reverse."""
        image = dict(nvm_image)
        for cm in self.cores.values():
            tail: List[EntryMirror] = []
            for item in cm.emitted:
                if isinstance(item, EntryMirror):
                    if item.seq in cm.committed:
                        if item.valid:
                            image[item.addr] = item.redo
                    else:
                        tail.append(item)
                elif isinstance(item, BoundaryMirror):
                    record = cm.committed.get(item.seq)
                    if record is not None:
                        for slot, value in record.ckpts.items():
                            image[slot] = value
            for item in reversed(tail):
                image[item.addr] = item.undo
        return image

    def single_writer_addrs(self) -> List[int]:
        return [
            addr
            for addr, w in self.writers.items()
            if w != MULTI_WRITER
        ]

    def multi_writer_addrs(self) -> List[int]:
        return [
            addr
            for addr, w in self.writers.items()
            if w == MULTI_WRITER
        ]

    def allowed_values(self, addr: int, include_rollback: bool = True) -> set:
        """The set of values region-level strict persistency permits
        recovery to leave at ``addr`` — the contribution rule, stated
        once.  For a single-writer word the set has exactly one member,
        the value recovery must produce.

        Each core that touched the word contributes exactly one value:
        its rollback target if it has an open (uncommitted) store and
        ``include_rollback`` is true — recovery undoes the open tail to
        that word's pre-region value — otherwise its latest committed
        redo.  Recovery applies the touching cores in *some* order, so
        the final word is the last-processed core's contribution; which
        core wins is the ambiguity, the candidate set is not.  A word
        no committed/open store covers stays at its baseline.  With
        ``include_rollback=False`` (finalize: nothing is open or
        pending) only committed-last values contribute.
        """
        out: set = set()
        for cm in self.cores.values():
            rec = cm.open_stores.get(addr)
            if include_rollback and rec is not None:
                out.add(rec[0])
            elif addr in cm.committed_last:
                out.add(cm.committed_last[addr])
        if not out:
            out.add(self.baseline.get(addr, 0))
        return out

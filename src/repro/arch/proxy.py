"""Proxy buffers and the per-core two-phase store pipeline (Section 5.2).

Entry layout follows Figure 5, at word rather than cache-line granularity
(our stores are word-sized; see DESIGN.md):

* data entry — address, undo word (before), redo word (after), and the
  back-end's redo valid-bit,
* boundary entry — the region delimiter.  Besides the paper's type bit it
  carries our recovery continuation and the staged register-checkpoint
  values of the region it commits (the front-end's "dedicated register
  file storage" of Section 5.2.1 is non-volatile, so attaching its
  snapshot to the boundary entry models exactly what recovery may use).

Pipeline stages per core:

1. **Phase 1** — a store allocates a front-end entry (merging with an
   existing same-address entry of the same region); the core stalls only
   when the front-end is full (Section 5.2.1).
2. **Proxy path** — entries stream to the back-end over a dedicated link
   (bandwidth + latency), blocked when the back-end is full.
3. **Phase 2** — once a region's boundary entry reaches the back-end, the
   region's redo data drains to NVM through the shared write port, in
   region order (Section 5.2.2); entries with an unset redo valid-bit are
   skipped (Section 5.3.2).

Everything is timestamp-driven and advanced lazily: ``advance(now)``
performs all pipeline events due by ``now`` in chronological order, and
returns at once while ``now`` is below a known lower bound on the next
event's time.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.arch.nvm import (
    _FNV_OFFSET,
    _FNV_PRIME,
    _WORD_MASK,
    NVMain,
    _fnv_int,
    _fnv_mix,
)
from repro.arch.params import SimParams

KIND_DATA = 0
KIND_BOUNDARY = 1


def _continuation_key(continuation) -> tuple:
    """A stable identity for a continuation's durable payload."""
    if continuation is None:
        return (None,)
    if hasattr(continuation, "func_name"):
        return (
            continuation.func_name,
            continuation.label,
            continuation.index,
            len(continuation.callstack),
        )
    # Engine-level tests use opaque stand-ins; fold their repr.
    return (str(continuation),)


def entry_checksum(entry: "ProxyEntry") -> int:
    """Checksum over an entry's *durable payload* (Figure 5 fields).

    Timing bookkeeping (``create_time``/``arrive_time``) is excluded: it
    is simulator state, not part of what hardware writes to the buffer.
    Called when an entry's checksum is first read — at the latest by
    :func:`~repro.arch.crash.capture_crash_state` — never on the write
    path.  Every legitimate mutation of an entry (merge, valid-bit scan)
    builds a copy and clears its checksum with
    :meth:`ProxyEntry.refresh_checksum`; a fault model tampers only with
    a copy of a captured entry, whose checksum is already fixed, so a
    flip behind the checksum's back is detectable at recovery.
    """
    h = _fnv_int(_FNV_OFFSET, entry.kind)
    h = _fnv_int(h, entry.addr)
    h = _fnv_int(h, entry.undo)
    h = _fnv_int(h, entry.redo)
    # The valid bit folds as one byte, 0x01 when set and 0x02 when unset.
    h = ((h ^ (1 if entry.redo_valid else 2)) * _FNV_PRIME) & _WORD_MASK
    h = _fnv_int(h, entry.region_seq)
    h = _fnv_int(h, entry.region_id)
    if entry.continuation is None:
        h = (h * _FNV_PRIME) & _WORD_MASK  # key (None,): one 0x00 byte
    else:
        h = _fnv_mix(h, _continuation_key(entry.continuation))
    ckpts = entry.ckpts
    for slot_addr in sorted(ckpts):
        h = _fnv_int(_fnv_int(h, slot_addr), ckpts[slot_addr])
    return h


class ProxyEntry:
    """One front-/back-end proxy buffer entry (Figure 5).

    Entries are *sealed*: once an entry sits in a buffer, no code edits
    its durable fields in place.  A legitimate hardware edit (front-end
    merge, Section 5.3.2 valid-bit scan) swaps a copy with a cleared
    checksum into the buffer, and a fault model tampers with a copy in
    its own snapshot.  Crash snapshots therefore share the live entry
    objects, and an entry's integrity verdict, once computed, holds for
    as long as its payload and checksum are the ones it judged
    (``sealed``).

    ``checksum`` is integrity metadata of captured durable state: it is
    computed from the payload when first read and fixed from then on.
    Crash capture reads (and seals) it for every entry a snapshot holds,
    so it exists before any fault model tampers with a copy; an entry no
    capture includes never computes one.

    ``create_time``/``arrive_time`` are simulator timing, not durable
    payload: they stay mutable (the proxy path stamps ``arrive_time`` on
    transfer), lie outside the checksum and the seal, and are never read
    from a crash snapshot.
    """

    __slots__ = (
        "kind",
        "addr",
        "undo",
        "redo",
        "redo_valid",
        "region_seq",
        "create_time",
        "arrive_time",
        "region_id",
        "continuation",
        "ckpts",
        #: the integrity word, or ``None`` until first read (:attr:`checksum`).
        "_checksum",
        #: the durable fields and checksum judged by the last successful
        #: :attr:`intact` check, or ``None`` before the first one.
        "sealed",
    )

    def __init__(
        self,
        kind: int,
        region_seq: int,
        create_time: float,
        addr: int = 0,
        undo: int = 0,
        redo: int = 0,
        region_id: int = 0,
        continuation: Any = None,
        ckpts: Optional[Dict[int, int]] = None,
    ) -> None:
        self.kind = kind
        self.addr = addr
        self.undo = undo
        self.redo = redo
        self.redo_valid = True
        self.region_seq = region_seq
        self.create_time = create_time
        self.arrive_time = create_time  # set on back-end arrival
        self.region_id = region_id
        self.continuation = continuation
        self.ckpts = ckpts or {}
        self._checksum: Optional[int] = None
        self.sealed: Optional[tuple] = None

    @property
    def is_boundary(self) -> bool:
        return self.kind == KIND_BOUNDARY

    @property
    def checksum(self) -> int:
        """The integrity word: computed from the payload on first read,
        then fixed, so a later in-place tear leaves it stale."""
        if self._checksum is None:
            self._checksum = entry_checksum(self)
        return self._checksum

    @checksum.setter
    def checksum(self, value: int) -> None:
        self._checksum = value

    @property
    def intact(self) -> bool:
        """Does the stored checksum match the payload?  False after a
        torn write / bit flip that bypassed :meth:`refresh_checksum`.

        A success seals the verdict to the exact payload and checksum it
        judged; while both are unchanged the recompute is skipped.  Any
        in-place edit, of the checksum included, breaks the seal and
        forces the full recompute, so the verdict never differs from
        ``checksum == entry_checksum(self)``.  A check that finds no
        checksum yet fixes it from the payload: one computation, and the
        entry is intact by construction.
        """
        first_read = self._checksum is None
        payload = (
            self.kind,
            self.addr,
            self.undo,
            self.redo,
            self.redo_valid,
            self.region_seq,
            self.region_id,
            self.continuation,
            tuple(self.ckpts.items()),
            self.checksum,
        )
        if payload == self.sealed:
            return True
        if not first_read and self._checksum != entry_checksum(self):
            return False
        self.sealed = payload
        return True

    def refresh_checksum(self) -> None:
        """Clear the checksum after a legitimate hardware mutation of a
        fresh copy (front-end merge, Section 5.3.2 valid-bit scan); the
        next read computes it from the edited payload."""
        self._checksum = None

    def clone(self) -> "ProxyEntry":
        """Copy with no shared mutable state: how hardware edits and
        fault models get an entry of their own to change.

        Slot by slot: ``ckpts`` is the only mutable field and is copied;
        the frozen ``continuation`` is shared.  ``checksum`` (``None``
        if not read yet) and ``sealed`` are copied verbatim, *not*
        computed: a copy of a torn entry must stay torn, and the seal
        names the payload it judged, so an edit to the copy still
        breaks it.
        """
        dup = ProxyEntry.__new__(ProxyEntry)
        dup.kind = self.kind
        dup.addr = self.addr
        dup.undo = self.undo
        dup.redo = self.redo
        dup.redo_valid = self.redo_valid
        dup.region_seq = self.region_seq
        dup.create_time = self.create_time
        dup.arrive_time = self.arrive_time
        dup.region_id = self.region_id
        dup.continuation = self.continuation  # frozen: safe to share
        dup.ckpts = dict(self.ckpts)
        dup._checksum = self._checksum
        dup.sealed = self.sealed
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.is_boundary:
            return f"<boundary seq={self.region_seq} region={self.region_id}>"
        return (
            f"<data seq={self.region_seq} addr={self.addr:#x} "
            f"undo={self.undo} redo={self.redo} valid={self.redo_valid}>"
        )


class ProxyOverflowError(Exception):
    """A region produced more proxy entries than the back-end can hold —
    the compiler/architecture threshold contract was violated."""


class CoreProxyPipeline:
    """One core's front-end buffer, proxy path, and back-end buffer.

    ``watcher`` is an optional duck-typed hook sink (the persistency
    checker): the pipeline reports what it *actually did* — entries
    created/merged, boundaries emitted, redo words drained or skipped,
    boundary drains with the checkpoint/PC words really written — so a
    planted protocol mutation cannot lie to the checker.  ``mutations``
    (a :class:`repro.arch.persistence.ProtocolMutations`) gates those
    planted bugs; ``None`` means the faithful protocol.
    """

    def __init__(
        self,
        core_id: int,
        params: SimParams,
        nvm: NVMain,
        threshold: int,
        mutations=None,
    ) -> None:
        self.core_id = core_id
        self.params = params
        self.nvm = nvm
        self.mutations = mutations
        self.watcher = None
        self.fe_cap = params.frontend_entries
        self.be_cap = params.backend_capacity(threshold)
        self._xfer_cycles = params.proxy_xfer_cycles
        self._path_cycles = params.proxy_path_cycles
        self._sync = params.persist_mode.value == "sync"

        self.fe: Deque[ProxyEntry] = deque()
        #: current-region front-end entries by address (for merging).
        self._fe_merge: Dict[int, ProxyEntry] = {}
        self.be: Deque[ProxyEntry] = deque()
        self._boundaries_in_be = 0

        #: dedicated non-volatile register-file storage (Section 5.2.1):
        #: checkpoint slot address -> value, accumulated since the last
        #: *emitted* boundary entry.
        self.staging: Dict[int, int] = {}

        self.region_seq = 0
        self._entries_since_boundary = 0
        self.xfer_free = 0.0
        #: Whether the event :meth:`_next_event` last timed is a drain.
        self._next_is_drain = False
        #: Monotonic pipeline event clock: an event blocked behind another
        #: (a transfer waiting for a drain to free a back-end slot) cannot
        #: be timestamped before it.
        self._event_clock = 0.0
        #: A lower bound on the time of the next pipeline event, so
        #: :meth:`advance` has nothing to do while ``now`` is below it;
        #: ``-inf`` means "recompute".  Only events and a new front-end
        #: head change what :meth:`_next_event` sees, apart from the write
        #: port's free time, which only grows.  Every event is stamped no
        #: earlier than the event clock, and performing one moves the
        #: clock to its time, which was at least the bound: so events
        #: performed anywhere (here, :meth:`_advance_until`,
        #: :meth:`drain_everything`) leave the bound valid.  A new head on
        #: an empty front end is a new transfer event, which may come
        #: sooner: that resets the bound.
        self._due = -inf

        # -- statistics ------------------------------------------------------
        self.entries_created = 0
        self.entries_merged = 0
        self.boundary_entries = 0
        self.boundaries_skipped = 0
        self.fe_stall_cycles = 0.0
        self.sync_stall_cycles = 0.0
        #: most entries the back end ever held.  While it stays below
        #: ``be_cap``, every ``len(be) < be_cap`` test in
        #: :meth:`_next_event` passed, so a run under any larger capacity
        #: takes the same course (the sweep's simulation memo).
        self.be_peak = 0
        #: durable time of the most recently drained boundary.
        self.last_region_durable = 0.0

    # ------------------------------------------------------------------ events

    def _next_event(self) -> Optional[float]:
        """Time of the earliest pending pipeline event, or None if none.

        The event is a drain if ``_next_is_drain`` is then true, else a
        transfer; a drain wins a tie.  Times are floored to the monotonic
        event clock: an event enabled by a predecessor (a transfer that
        needed a drain to free a slot) cannot be stamped before it.
        """
        t = None
        be = self.be
        if be and (
            self._boundaries_in_be > 0
            or (self.mutations is not None and self.mutations.drain_past_boundary)
        ):
            t = be[0].arrive_time
            free = self.nvm.write_free_at
            if free > t:
                t = free
            self._next_is_drain = True
        fe = self.fe
        if fe and len(be) < self.be_cap:
            # An entry needs one transfer interval of front-end residency
            # before it can start streaming out.
            xfer = fe[0].create_time + self._xfer_cycles
            if self.xfer_free > xfer:
                xfer = self.xfer_free
            if t is None or xfer < t:
                t = xfer
                self._next_is_drain = False
        if t is None:
            return None
        clock = self._event_clock
        return clock if clock > t else t

    def _do_drain(self, t: float) -> float:
        """Retire the back-end head entry; returns completion time."""
        if t > self._event_clock:
            self._event_clock = t
        m = self.mutations
        be = self.be
        if (
            m is not None
            and m.reorder_phase2
            and len(be) >= 2
            and be[0].kind == KIND_BOUNDARY
            and be[1].kind != KIND_BOUNDARY
        ):
            entry = be[1]
            del be[1]
        else:
            entry = be.popleft()
        watcher = self.watcher
        if entry.kind == KIND_BOUNDARY:
            self._boundaries_in_be -= 1
            done = t
            flush = not (m is not None and m.skip_ckpt_flush)
            if flush:
                ckpt_write = self.nvm.ckpt_write
                for slot_addr, value in entry.ckpts.items():
                    done = ckpt_write(done, slot_addr, value)
            # Persist the PC checkpoint: with the boundary entry retired,
            # the durable resume point must live in NVM (Section 3.1).
            pc_written = not (m is not None and m.skip_pc_checkpoint)
            if pc_written:
                self.nvm.pc_checkpoints[self.core_id] = (
                    entry.continuation,
                    entry.region_id,
                )
            self.last_region_durable = done if done > t else t
            if watcher is not None:
                watcher.on_boundary_drained(
                    self.core_id,
                    entry.region_seq,
                    entry.region_id,
                    entry.continuation,
                    dict(entry.ckpts) if flush else {},
                    pc_written,
                )
            return done
        if entry.redo_valid:
            value = entry.undo if (m is not None and m.redo_writes_undo) else entry.redo
            if watcher is not None:
                watcher.on_redo_drained(
                    self.core_id, entry.region_seq, entry.addr, value
                )
            return self.nvm.redo_write(t, entry.addr, value)
        self.nvm.writes_skipped += 1
        if watcher is not None:
            watcher.on_redo_skipped(self.core_id, entry.region_seq, entry.addr)
        return t

    def _do_xfer(self, t: float) -> None:
        if t > self._event_clock:
            self._event_clock = t
        entry = self.fe.popleft()
        entry.arrive_time = t + self._path_cycles
        self.xfer_free = t + self._xfer_cycles
        if self._fe_merge.get(entry.addr) is entry:
            del self._fe_merge[entry.addr]
        be = self.be
        be.append(entry)
        if len(be) > self.be_peak:
            self.be_peak = len(be)
        if entry.kind == KIND_BOUNDARY:
            self._boundaries_in_be += 1

    def advance(self, now: float) -> None:
        """Perform all pipeline events due by ``now``, in time order."""
        if now < self._due:
            return
        while True:
            t = self._next_event()
            if t is None:
                self._due = inf
                return
            if t > now:
                self._due = t
                return
            if self._next_is_drain:
                self._do_drain(t)
            else:
                self._do_xfer(t)

    def _advance_until(self, cond: Callable[[], bool]) -> float:
        """Run pipeline events (any timestamp) until ``cond()``; returns the
        time of the last event performed."""
        t = 0.0
        while not cond():
            t = self._next_event()
            if t is None:
                raise ProxyOverflowError(
                    f"core {self.core_id}: proxy pipeline deadlock — a region "
                    "overflowed the back-end proxy buffer "
                    f"(be={len(self.be)}/{self.be_cap}, fe={len(self.fe)}/{self.fe_cap})"
                )
            if self._next_is_drain:
                t = max(t, self._do_drain(t))
            else:
                self._do_xfer(t)
        return t

    # --------------------------------------------------------------- operations

    def record_store(self, now: float, addr: int, value: int, old: int) -> float:
        """Phase-1 entry creation for a store; returns the (possibly
        stalled) completion time for the core."""
        self.advance(now)
        m = self.mutations
        merged = self._fe_merge.get(addr)
        if merged is None and m is not None and m.merge_across_regions:
            # The planted bug: merge into *any* buffered entry for the
            # address, ignoring region ownership entirely — including
            # entries of already-committed regions sitting in the
            # back-end awaiting drain (newest match wins, as a
            # content-addressed lookup would).
            for entry in reversed(list(self.be) + list(self.fe)):
                if not entry.is_boundary and entry.addr == addr:
                    merged = entry
                    break
        if merged is not None and (
            merged.region_seq == self.region_seq
            or (m is not None and m.merge_across_regions)
        ):
            fresh = merged.clone()
            fresh.redo = value
            fresh.refresh_checksum()
            self._swap(merged, fresh)
            self.entries_merged += 1
            if self.watcher is not None:
                self.watcher.on_merge(
                    self.core_id, merged.region_seq, addr, value
                )
            return now
        if len(self.fe) >= self.fe_cap:
            t = self._advance_until(lambda: len(self.fe) < self.fe_cap)
            if t > now:
                self.fe_stall_cycles += t - now
                now = t
        undo = value if (m is not None and m.skip_undo_log) else old
        entry = ProxyEntry(
            KIND_DATA, self.region_seq, now, addr=addr, undo=undo, redo=value
        )
        if not self.fe:
            self._due = -inf  # a new head: a new transfer event
        self.fe.append(entry)
        self._fe_merge[addr] = entry
        self._entries_since_boundary += 1
        self.entries_created += 1
        if self.watcher is not None:
            self.watcher.on_entry(
                self.core_id, entry.region_seq, addr, entry.undo, entry.redo
            )
        return now

    def record_boundary(
        self, now: float, region_id: int, continuation: Any
    ) -> float:
        """Region boundary: emit the delimiter entry (unless the region is
        empty — the traffic optimisation of Section 5.2.1) and start a new
        region.  Returns the (possibly stalled) completion time."""
        self.advance(now)
        m = self.mutations
        emit = (
            self._entries_since_boundary > 0
            or bool(self.staging)
            or region_id == -1
        )
        if not emit:
            self.boundaries_skipped += 1
            return now
        if m is not None and m.drop_boundary_entry:
            # Planted bug: the region sequence advances as if the
            # delimiter were emitted, but no entry ever reaches the
            # buffers — the committed region can never drain.
            self.staging = {}
            self.region_seq += 1
            self._entries_since_boundary = 0
            self._fe_merge.clear()
            return now
        if len(self.fe) >= self.fe_cap:
            t = self._advance_until(lambda: len(self.fe) < self.fe_cap)
            if t > now:
                self.fe_stall_cycles += t - now
                now = t
        entry = ProxyEntry(
            KIND_BOUNDARY,
            self.region_seq,
            now,
            region_id=region_id,
            continuation=continuation,
            ckpts=self.staging,
        )
        if not self.fe:
            self._due = -inf  # a new head: a new transfer event
        self.fe.append(entry)
        self.boundary_entries += 1
        self.staging = {}
        self.region_seq += 1
        self._entries_since_boundary = 0
        if not (m is not None and m.merge_across_regions):
            self._fe_merge.clear()  # never merge across regions (Section 5.2.1)
        if self._sync:
            # Naive synchronous persistence: the core blocks until the
            # whole region (data + boundary) has crossed the proxy path
            # into the memory controller's persistent domain.  (Full NVM
            # drain is not required for durability — the back-end buffer
            # is battery backed — but the per-boundary round trip is what
            # makes the naive design "up to 2x" slower, Section 1.4.)
            seq = entry.region_seq
            t = self._advance_until(
                lambda: not any(e.region_seq <= seq for e in self.fe)
            )
            arrive = max(
                (e.arrive_time for e in self.be if e.region_seq <= seq),
                default=t,
            )
            t = max(t, arrive)
            if t > now:
                self.sync_stall_cycles += t - now
                now = t
        return now

    def drain_committed_until(self, now: float) -> float:
        """Make every *committed* region durable; returns completion time.

        Used as the I/O persist barrier (Section 3.3): before an effect
        leaves the persistence domain, all state it may depend on must be
        durable — otherwise a crash could roll the system back behind an
        output the external world already saw.  The current (uncommitted)
        region's entries stay buffered.
        """
        seq = self.region_seq  # entries with region_seq < seq are committed

        def committed_gone() -> bool:
            return not any(
                e.region_seq < seq for e in self.fe
            ) and not any(e.region_seq < seq for e in self.be)

        if committed_gone():
            return now
        t = self._advance_until(committed_gone)
        return max(now, t, self.last_region_durable)

    # ------------------------------------------------------ sealed-entry edits

    def _swap(self, old: ProxyEntry, new: ProxyEntry) -> None:
        """Put ``new`` where ``old`` sits in the buffers and the merge
        index.  Entries are sealed (see :class:`ProxyEntry`): a crash
        snapshot may share ``old``, so it is replaced, never edited."""
        if self._fe_merge.get(old.addr) is old:
            self._fe_merge[old.addr] = new
        for buf in (self.fe, self.be):
            for i, entry in enumerate(buf):
                if entry is old:
                    buf[i] = new
                    return

    def _invalidate(self, addr: Optional[int]) -> int:
        """Swap in a copy, redo valid-bit unset and checksum cleared, for
        every valid data entry at ``addr`` (any address if ``None``)."""
        hits = [
            entry
            for buf in (self.be, self.fe)
            for entry in buf
            if not entry.is_boundary
            and entry.redo_valid
            and (addr is None or entry.addr == addr)
        ]
        for entry in hits:
            fresh = entry.clone()
            fresh.redo_valid = False
            fresh.refresh_checksum()
            self._swap(entry, fresh)
        return len(hits)

    # --------------------------------------------------------------- queries

    def invalidate_matching(self, addr: int) -> int:
        """Unset the redo valid-bit of every entry for ``addr`` (both the
        back-end scan and the in-flight monitoring of Section 5.3.2 — the
        simulator sees all in-flight entries directly)."""
        return self._invalidate(addr)

    def invalidate_all(self) -> int:
        """Unset every data entry's redo valid-bit regardless of address —
        only the ``invalidate_everything`` planted mutation calls this;
        correct hardware never would."""
        return self._invalidate(None)

    def drain_everything(self) -> float:
        """Complete all pending pipeline work (end-of-run); returns time.

        A trailing uncommitted region's entries stay put (no boundary ever
        arrives for them) — exactly the crash-time content recovery sees.
        """
        t = 0.0
        while True:
            tt = self._next_event()
            if tt is None:
                return t
            if self._next_is_drain:
                t = max(t, self._do_drain(tt))
            else:
                self._do_xfer(tt)
                t = max(t, tt)

    def entries_in_order(self) -> List[ProxyEntry]:
        """All surviving entries oldest-first (back-end then front-end) —
        the order the recovery threads scan after a power failure."""
        return list(self.be) + list(self.fe)

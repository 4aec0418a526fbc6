"""The multi-core persistence engine (Sections 5.1–5.3).

Owns one :class:`~repro.arch.proxy.CoreProxyPipeline` per core plus the
shared NVM, and implements the cross-core interactions:

* **regular-path writebacks** — when a dirty line is evicted from the
  DRAM cache into NVM, the engine applies the words to the durable image
  and (with stale-read prevention enabled) scans *every* core's proxy
  buffers, unsetting the redo valid-bit of matching entries so a delayed
  phase-2 drain can never overwrite newer data (Section 5.3.2),
* **stale-read detection** — loads that miss every cache read NVM; the
  engine compares the durable word against the architectural value and
  counts mismatches.  With prevention on this must be zero; with
  prevention off the Figure 6 scenarios become observable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional

from repro.arch.nvm import NVMain
from repro.arch.params import SimParams
from repro.arch.proxy import CoreProxyPipeline
from repro.ir.values import WORD_BYTES


@dataclass(frozen=True)
class ProtocolMutations:
    """Debug knobs that *break* the persistence protocol on purpose.

    Each flag plants one classic undo/redo-ordering bug in the proxy
    pipeline (or the recovery protocol); all default to off and nothing
    in the simulator sets them outside :mod:`repro.check.mutants`, which
    uses them to prove the persistency checker detects every class of
    violation it claims to (sensitivity, not just silence).

    Pipeline-side knobs (gated in :mod:`repro.arch.proxy` /
    :class:`PersistenceEngine`):

    * ``skip_undo_log`` — data entries record the *redo* value in the
      undo field too; rollback of an interrupted region is impossible.
    * ``merge_across_regions`` — front-end merging ignores the region
      check of Section 5.2.1, retroactively editing a committed region.
    * ``drop_boundary_entry`` — boundaries advance the region sequence
      but never emit a delimiter entry; committed regions never drain.
    * ``reorder_phase2`` — phase-2 drain services a later region's data
      entry ahead of the boundary at the back-end head.
    * ``drain_past_boundary`` — phase-2 drains data entries even when no
      boundary entry has arrived (uncommitted data reaches NVM).
    * ``skip_pc_checkpoint`` — boundary drain omits the durable PC
      checkpoint (DESIGN.md reproduction finding #1 un-fixed).
    * ``skip_ckpt_flush`` — boundary drain omits the staged register
      checkpoints; recovery would reload stale registers.
    * ``redo_writes_undo`` — phase-2 writes the undo word where the redo
      word belongs.
    * ``drop_invalidation`` — regular-path writebacks skip the
      Section 5.3.2 valid-bit scan; delayed drains overwrite newer data.
    * ``invalidate_everything`` — the valid-bit scan unsets *every*
      entry's bit, not just matching addresses; valid redo data is lost.

    Recovery-side knobs (gated in :func:`repro.arch.recovery.recover`):

    * ``recovery_skip_redo`` — phase A skips applying committed redo
      words.
    * ``recovery_stale_pc`` — recovery resumes from the durable PC
      checkpoint even when newer boundary entries survive in the
      buffers.
    * ``recovery_early_clear`` — recovery retires the proxy buffers and
      WPQ journal *before* applying their redo/undo instead of at the
      recovery-complete commit step; invisible to a single-crash run
      but fatal to re-entry (the multi-crash campaign's teeth test).
    """

    skip_undo_log: bool = False
    merge_across_regions: bool = False
    drop_boundary_entry: bool = False
    reorder_phase2: bool = False
    drain_past_boundary: bool = False
    skip_pc_checkpoint: bool = False
    skip_ckpt_flush: bool = False
    redo_writes_undo: bool = False
    drop_invalidation: bool = False
    invalidate_everything: bool = False
    recovery_skip_redo: bool = False
    recovery_stale_pc: bool = False
    recovery_early_clear: bool = False

    @classmethod
    def single(cls, name: str) -> "ProtocolMutations":
        """The mutation set with exactly one knob on."""
        if name not in {f.name for f in fields(cls)}:
            raise ValueError(f"unknown protocol mutation {name!r}")
        return cls(**{name: True})

    @classmethod
    def names(cls) -> List[str]:
        return [f.name for f in fields(cls)]

    @property
    def active(self) -> List[str]:
        return [f.name for f in fields(self) if getattr(self, f.name)]


class PersistenceEngine:
    """Two-phase atomic stores with undo+redo logging across all cores."""

    def __init__(
        self,
        params: SimParams,
        nvm: NVMain,
        num_cores: int,
        threshold: int,
        mutations: Optional[ProtocolMutations] = None,
    ) -> None:
        self.params = params
        self.nvm = nvm
        self.threshold = threshold
        self.mutations = mutations
        #: Optional persistency-checker hook sink (duck-typed; see
        #: :class:`repro.check.checker.PersistencyChecker`).  Assign via
        #: :meth:`set_watcher` so lazily grown pipelines inherit it.
        self.watcher = None
        self.pipelines: List[CoreProxyPipeline] = [
            CoreProxyPipeline(core, params, nvm, threshold, mutations=mutations)
            for core in range(num_cores)
        ]
        # -- statistics --------------------------------------------------
        self.invalidations = 0
        self.stale_reads = 0
        self.stale_reads_prevented = 0

    def pipeline(self, core: int) -> CoreProxyPipeline:
        while core >= len(self.pipelines):
            pipe = CoreProxyPipeline(
                len(self.pipelines),
                self.params,
                self.nvm,
                self.threshold,
                mutations=self.mutations,
            )
            pipe.watcher = self.watcher
            self.pipelines.append(pipe)
        return self.pipelines[core]

    def set_watcher(self, watcher) -> None:
        """Attach a proxy-pipeline hook sink to every (current and
        future) pipeline."""
        self.watcher = watcher
        for pipe in self.pipelines:
            pipe.watcher = watcher

    # -- store/checkpoint/boundary pass-throughs ----------------------------
    #
    # Each indexes ``self.pipelines`` itself and only goes through
    # :meth:`pipeline` to grow the list.

    def on_store(self, core: int, now: float, addr: int, value: int, old: int) -> float:
        try:
            pipe = self.pipelines[core]
        except IndexError:
            pipe = self.pipeline(core)
        return pipe.record_store(now, addr, value, old)

    def on_ckpt(self, core: int, now: float, slot_addr: int, value: int) -> float:
        """A register-checkpoint store: update the core's dedicated NV
        storage (Section 5.2.1); it never stalls the core."""
        try:
            pipe = self.pipelines[core]
        except IndexError:
            pipe = self.pipeline(core)
        pipe.advance(now)
        pipe.staging[slot_addr] = value
        return now

    def on_boundary(self, core: int, now: float, region_id: int, continuation) -> float:
        try:
            pipe = self.pipelines[core]
        except IndexError:
            pipe = self.pipeline(core)
        return pipe.record_boundary(now, region_id, continuation)

    # -- regular-path writeback (Section 5.3) ---------------------------------

    def on_nvm_writeback(self, now: float, line_addr: int, words: Dict[int, int]) -> None:
        """A dirty line reached NVM through the cache hierarchy."""
        for pipe in self.pipelines:
            pipe.advance(now)
        if self.watcher is not None:
            for addr, value in words.items():
                self.watcher.on_writeback(addr, value)
        self.nvm.writeback_words(now, words)
        m = self.mutations
        if m is not None and m.invalidate_everything:
            for pipe in self.pipelines:
                n = pipe.invalidate_all()
                self.invalidations += n
                self.stale_reads_prevented += n
            return
        if self.params.stale_read_prevention and not (
            m is not None and m.drop_invalidation
        ):
            for addr in words:
                for pipe in self.pipelines:
                    n = pipe.invalidate_matching(addr)
                    self.invalidations += n
                    self.stale_reads_prevented += n

    # -- stale read detection ----------------------------------------------------

    def check_nvm_read(self, now: float, addr: int, architectural: int) -> int:
        """A load missed every cache and reads NVM; returns the durable word
        and counts a stale read if it mismatches the architectural value."""
        for pipe in self.pipelines:
            pipe.advance(now)
        value = self.nvm.read_word(addr)
        if value != architectural:
            self.stale_reads += 1
        return value

    # -- lifecycle ----------------------------------------------------------------

    def advance_all(self, now: float) -> None:
        for pipe in self.pipelines:
            pipe.advance(now)

    def drain_all(self) -> float:
        """Finish all pending persistence work; returns the last event time."""
        t = 0.0
        for pipe in self.pipelines:
            t = max(t, pipe.drain_everything())
        return t

    # -- aggregate statistics ----------------------------------------------------

    @property
    def fe_stall_cycles(self) -> float:
        return sum(p.fe_stall_cycles for p in self.pipelines)

    @property
    def sync_stall_cycles(self) -> float:
        return sum(p.sync_stall_cycles for p in self.pipelines)

    @property
    def entries_created(self) -> int:
        return sum(p.entries_created for p in self.pipelines)

    @property
    def entries_merged(self) -> int:
        return sum(p.entries_merged for p in self.pipelines)

    @property
    def boundary_entries(self) -> int:
        return sum(p.boundary_entries for p in self.pipelines)

    @property
    def boundaries_skipped(self) -> int:
        return sum(p.boundaries_skipped for p in self.pipelines)

    @property
    def backend_peak(self) -> int:
        """Most entries any core's back end ever held."""
        return max((p.be_peak for p in self.pipelines), default=0)

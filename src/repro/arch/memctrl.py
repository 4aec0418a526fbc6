"""Memory hierarchy: per-core L1s, shared L2, DRAM cache, NVM.

Models the vertically-integrated hybrid memory of Optane's memory mode
(Section 3): NVM is main memory, the off-chip DRAM cache is hardware
managed and direct mapped, and the integrated memory controller fronts
both.  Dirty evictions cascade L1 -> L2 -> DRAM cache -> NVM; the final
hop is the "regular path" NVM update of Section 5.3 and is reported to the
persistence engine for redo-valid invalidation.

A minimal invalidation-based coherence shim keeps multi-core writeback
*values* correct: before a core writes a line another core holds dirty,
the dirty copy is flushed to L2.  (The paper changes no coherence
machinery; neither do we — this is the stock protocol substrate.)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.arch.cache import DirectMappedCache, SetAssocCache
from repro.arch.nvm import NVMain
from repro.arch.params import SimParams

#: Callback invoked when a dirty line reaches NVM: (line_addr, words).
NvmWritebackFn = Callable[[int, Dict[int, int]], None]


class MemoryHierarchy:
    """L1 (per core) + shared L2 + DRAM cache + NVM, with latencies."""

    def __init__(
        self,
        params: SimParams,
        num_cores: int,
        nvm: NVMain,
        on_nvm_writeback: Optional[NvmWritebackFn] = None,
    ) -> None:
        self.params = params
        self.nvm = nvm
        self._on_nvm_writeback = on_nvm_writeback or (lambda line, words: None)
        #: current core time, set by the system before each access so
        #: eviction callbacks can timestamp their NVM writes.
        self.now = 0.0

        self.dram = DirectMappedCache(
            "dram$",
            num_lines=max(1, params.dram_cache_lines),
            line_bytes=params.line_bytes,
            writeback=self._dram_writeback,
        )
        self.l2 = SetAssocCache(
            "l2",
            num_lines=max(params.l2_assoc, params.l2_lines),
            assoc=params.l2_assoc,
            line_bytes=params.line_bytes,
            writeback=self._l2_writeback,
        )
        self.l1: List[SetAssocCache] = [
            SetAssocCache(
                f"l1.{core}",
                num_lines=max(params.l1_assoc, params.l1_lines),
                assoc=params.l1_assoc,
                line_bytes=params.line_bytes,
                writeback=self._l1_writeback,
            )
            for core in range(num_cores)
        ]
        #: line address -> cores that may hold it in L1 (coherence shim).
        self.holders: Dict[int, Set[int]] = {}
        self.coherence_transfers = 0
        #: loads that had to read NVM (missed every cache level).
        self.nvm_fills = 0

    # -- writeback cascade ------------------------------------------------------

    def _l1_writeback(self, line: int, words: Dict[int, int]) -> None:
        self.l2.install_writeback(line, words)

    def _l2_writeback(self, line: int, words: Dict[int, int]) -> None:
        self.dram.install_writeback(line, words)

    def _dram_writeback(self, line: int, words: Dict[int, int]) -> None:
        self._on_nvm_writeback(line, words)

    # -- coherence shim ------------------------------------------------------------

    def _ensure_exclusive(self, core: int, line: int) -> float:
        """Invalidate other cores' copies before a write; returns extra cycles."""
        holders = self.holders.get(line)
        extra = 0.0
        if holders:
            for other in list(holders):
                if other == core:
                    continue
                words = self.l1[other].evict_line(line)
                if words:  # dirty copy flushed through L2
                    self.l2.install_writeback(line, words)
                if words is not None:
                    self.coherence_transfers += 1
                    extra += self.params.l2_hit_cycles
                holders.discard(other)
        self.holders.setdefault(line, set()).add(core)
        return extra

    def _note_shared(self, core: int, line: int) -> float:
        """Downgrade another core's dirty copy before a read; returns cycles."""
        holders = self.holders.get(line)
        extra = 0.0
        if holders:
            for other in list(holders):
                if other == core:
                    continue
                # Flush a (possibly dirty) remote copy so L2 has the data;
                # remote keeps losing its copy (simple invalidate-on-read
                # for dirty lines only).
                cache = self.l1[other]
                if cache.contains(line):
                    words = cache.evict_line(line)
                    if words:
                        self.l2.install_writeback(line, words)
                        self.coherence_transfers += 1
                        extra += self.params.l2_hit_cycles
                        holders.discard(other)
                    elif words is not None:
                        # clean copy may stay shared
                        cache.install_writeback(line, {})
                else:
                    holders.discard(other)
        self.holders.setdefault(line, set()).add(core)
        return extra

    # -- dirty migration ---------------------------------------------------------

    def _migrate_dirty_up(self, core: int, line: int) -> Dict[int, int]:
        """Pull the line's dirty words out of L2/DRAM into the L1 copy.

        Keeps dirty data exclusive to the highest level holding the line:
        a stale dirty copy left below would later be written back to NVM
        *after* newer stores created proxy entries, and the Section 5.3.2
        redo invalidation would then wrongly kill the newer redo data
        (observed as lost committed updates in crash tests).
        """
        words = self.dram.extract_dirty(line)
        words.update(self.l2.extract_dirty(line))  # L2 newer than DRAM
        return words

    # -- accesses ----------------------------------------------------------------

    def load(self, core: int, addr: int, architectural: int) -> Tuple[float, str]:
        """Perform a load; returns (latency cycles, level hit).

        ``architectural`` is the word the load event carries, used only for
        stale-read accounting by the caller when the load fills from NVM.
        """
        p = self.params
        l1 = self.l1[core]
        line = l1.line_addr(addr)
        latency = self._note_shared(core, line)
        if l1.touch(addr):
            latency += p.l1_hit_cycles
            level = "l1"
        else:
            if self.l2.touch(addr):
                latency += p.l1_hit_cycles + p.l2_hit_cycles
                level = "l2"
            elif self.dram.touch(addr):
                latency += p.l1_hit_cycles + p.l2_hit_cycles + p.dram_hit_cycles
                level = "dram"
            else:
                latency += (
                    p.l1_hit_cycles
                    + p.l2_hit_cycles
                    + p.dram_hit_cycles
                    + p.nvm_read_cycles
                )
                self.nvm_fills += 1
                level = "nvm"
            migrated = self._migrate_dirty_up(core, line)
            if migrated:
                l1.install_writeback(line, migrated)
        # Exposed cost: the OoO window hides most of the raw latency.
        return max(1.0, latency * p.mem_exposure), level

    def store(self, core: int, addr: int, value: int) -> Tuple[float, bool]:
        """Perform a store; returns (latency cycles, l1 hit?).

        Write-allocate: a miss fetches the line (cost charged) because the
        Capri front-end needs the old line contents for the undo entry — in
        the baseline the same fill happens but is largely hidden; we charge
        both equally so the *relative* overhead isolates Capri mechanisms.
        """
        p = self.params
        l1 = self.l1[core]
        line = l1.line_addr(addr)
        latency = self._ensure_exclusive(core, line)
        hit = l1.write(addr, value)
        if hit:
            return max(0.0, latency * p.mem_exposure), True
        # Fill from the level that has the line (timing only).
        if self.l2.touch(addr):
            latency += p.l2_hit_cycles
        elif self.dram.touch(addr):
            latency += p.l2_hit_cycles + p.dram_hit_cycles
        else:
            latency += p.l2_hit_cycles + p.dram_hit_cycles + p.nvm_read_cycles
            self.nvm_fills += 1
        migrated = self._migrate_dirty_up(core, line)
        if migrated:
            migrated.pop(addr, None)  # never overwrite the word just stored
            if migrated:
                l1.install_writeback(line, migrated)
        return max(0.0, latency * p.mem_exposure), False

    def flush_all(self) -> None:
        """Flush the whole hierarchy to NVM (test helper, not Capri)."""
        for l1 in self.l1:
            l1.flush_all()
        self.l2.flush_all()
        self.dram.flush_all()

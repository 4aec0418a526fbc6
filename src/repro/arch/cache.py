"""Value-carrying cache models.

The functional machine computes architectural values, so the caches here
exist for two purposes only: *timing* (hit/miss classification) and
*writeback content* (which dirty words reach the next level, and
ultimately NVM — the regular persist path of Section 5.3).  A line
therefore tracks presence, dirtiness, and its dirty words; clean data is
never stored.

Two classes:

* :class:`SetAssocCache` — LRU set-associative cache (L1, L2),
* :class:`DirectMappedCache` — the hardware-managed off-chip DRAM cache of
  Optane's memory mode (direct-mapped per the paper's methodology).

Both deliver evicted dirty lines to a ``writeback`` callback as
``(line_addr, {word_addr: value})``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

WritebackFn = Callable[[int, Dict[int, int]], None]


class LineState:
    """Presence + dirty words of one cached line."""

    __slots__ = ("dirty_words",)

    def __init__(self) -> None:
        self.dirty_words: Dict[int, int] = {}

    @property
    def dirty(self) -> bool:
        return bool(self.dirty_words)


class SetAssocCache:
    """LRU set-associative write-back, write-allocate cache."""

    def __init__(
        self,
        name: str,
        num_lines: int,
        assoc: int,
        line_bytes: int = 64,
        writeback: Optional[WritebackFn] = None,
    ) -> None:
        if num_lines % assoc != 0:
            raise ValueError(f"{name}: lines ({num_lines}) not divisible by assoc")
        self.name = name
        self.assoc = assoc
        self.num_sets = num_lines // assoc
        self.line_bytes = line_bytes
        self.writeback = writeback or (lambda addr, words: None)
        # set index -> OrderedDict[line_addr, LineState] (LRU order: oldest first)
        self.sets: Dict[int, OrderedDict] = {}
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def line_addr(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    def _set_of(self, line: int) -> OrderedDict:
        index = (line // self.line_bytes) % self.num_sets
        s = self.sets.get(index)
        if s is None:
            s = OrderedDict()
            self.sets[index] = s
        return s

    def contains(self, addr: int) -> bool:
        line = self.line_addr(addr)
        return line in self._set_of(line)

    def touch(self, addr: int) -> bool:
        """Access for a load: returns hit?; allocates on miss (LRU update)."""
        return self.touch_line(self.line_addr(addr))

    def touch_line(self, line: int) -> bool:
        """:meth:`touch` for a caller that has the line address already."""
        # _set_of, inline: every load pays this.
        size = self.line_bytes
        index = (line // size) % self.num_sets
        s = self.sets.get(index)
        if s is None:
            s = self.sets[index] = OrderedDict()
        if line in s:
            s.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        self._allocate(s, line)
        return False

    def write(self, addr: int, value: int) -> bool:
        """Access for a store: returns hit?; write-allocates on miss."""
        return self.write_line(self.line_addr(addr), addr, value)

    def write_line(self, line: int, addr: int, value: int) -> bool:
        """:meth:`write` for a caller that has ``addr``'s line already."""
        size = self.line_bytes
        index = (line // size) % self.num_sets
        s = self.sets.get(index)
        if s is None:
            s = self.sets[index] = OrderedDict()
        if line in s:
            s.move_to_end(line)
            self.hits += 1
            hit = True
        else:
            self.misses += 1
            self._allocate(s, line)
            hit = False
        s[line].dirty_words[addr] = value
        return hit

    def install_writeback(self, line: int, words: Dict[int, int]) -> None:
        """Accept a dirty writeback from the level above (allocate-on-WB)."""
        s = self._set_of(line)
        if line not in s:
            self._allocate(s, line)
        else:
            s.move_to_end(line)
        s[line].dirty_words.update(words)

    def _allocate(self, s: OrderedDict, line: int) -> None:
        while len(s) >= self.assoc:
            victim, state = s.popitem(last=False)
            if state.dirty:
                self.writebacks += 1
                self.writeback(victim, state.dirty_words)
        s[line] = LineState()

    def evict_line(self, addr: int) -> Optional[Dict[int, int]]:
        """Forcibly evict (for coherence); returns dirty words if any."""
        line = self.line_addr(addr)
        s = self._set_of(line)
        state = s.pop(line, None)
        if state is None:
            return None
        if state.dirty:
            return state.dirty_words
        return {}

    def extract_dirty(self, line: int) -> Dict[int, int]:
        """Take (and clear) the line's dirty words; the line stays, clean.

        Used for upward dirty migration: when an upper level allocates a
        line, stale dirty copies must not linger below it, or their later
        eviction would write old data to NVM *after* newer stores logged
        proxy entries (breaking the Section 5.3.2 invalidation's
        assumption that a writeback always carries the newest data).
        """
        s = self._set_of(line)
        state = s.get(line)
        if state is None or not state.dirty_words:
            return {}
        words = state.dirty_words
        state.dirty_words = {}
        return words

    def flush_all(self) -> None:
        """Write back every dirty line (used by tests)."""
        for s in self.sets.values():
            for line, state in list(s.items()):
                if state.dirty:
                    self.writebacks += 1
                    self.writeback(line, state.dirty_words)
                    state.dirty_words = {}


class DirectMappedCache:
    """Direct-mapped write-back cache (the off-chip DRAM cache)."""

    def __init__(
        self,
        name: str,
        num_lines: int,
        line_bytes: int = 64,
        writeback: Optional[WritebackFn] = None,
    ) -> None:
        self.name = name
        self.num_lines = num_lines
        self.line_bytes = line_bytes
        self.writeback = writeback or (lambda addr, words: None)
        # slot index -> (line_addr, LineState)
        self.slots: Dict[int, Tuple[int, LineState]] = {}
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def line_addr(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    def _slot_of(self, line: int) -> int:
        return (line // self.line_bytes) % self.num_lines

    def contains(self, addr: int) -> bool:
        line = self.line_addr(addr)
        entry = self.slots.get(self._slot_of(line))
        return entry is not None and entry[0] == line

    def touch(self, addr: int) -> bool:
        line = self.line_addr(addr)
        slot = self._slot_of(line)
        entry = self.slots.get(slot)
        if entry is not None and entry[0] == line:
            self.hits += 1
            return True
        self.misses += 1
        self._evict(slot)
        self.slots[slot] = (line, LineState())
        return False

    def install_writeback(self, line: int, words: Dict[int, int]) -> None:
        slot = self._slot_of(line)
        entry = self.slots.get(slot)
        if entry is None or entry[0] != line:
            self._evict(slot)
            state = LineState()
            self.slots[slot] = (line, state)
        else:
            state = entry[1]
        state.dirty_words.update(words)

    def _evict(self, slot: int) -> None:
        entry = self.slots.pop(slot, None)
        if entry is not None and entry[1].dirty:
            self.writebacks += 1
            self.writeback(entry[0], entry[1].dirty_words)

    def extract_dirty(self, line: int) -> Dict[int, int]:
        """Take (and clear) the line's dirty words (see SetAssocCache)."""
        entry = self.slots.get(self._slot_of(line))
        if entry is None or entry[0] != line or not entry[1].dirty_words:
            return {}
        words = entry[1].dirty_words
        entry[1].dirty_words = {}
        return words

    def flush_all(self) -> None:
        for slot in list(self.slots.keys()):
            self._evict(slot)

"""The NVM main memory: durable word image plus a bandwidth-limited write port.

The *image* is the authoritative durable state: what survives a power
failure.  Three producers write it:

* regular-path writebacks (DRAM-cache evictions),
* phase-2 proxy drains (redo data),
* staged register-checkpoint flushes at region commit.

Writes pass through the write-pending queue, which Table 1 places inside
the persistent domain — so a write is durable the moment it is issued,
while the port timestamp models sustained throughput (WPQ + bank-level
parallelism pipeline the 300 ns write latency).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict

from repro.arch.params import SimParams

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_WORD_MASK = (1 << 64) - 1
#: ``_FNV_PRIME ** k mod 2**64``: FNV-1a folds a zero byte as a bare
#: multiply by the prime, so a run of ``k`` zero bytes is one multiply.
_ZERO_RUN = tuple(pow(_FNV_PRIME, k, 1 << 64) for k in range(17))


def _fnv_int(h: int, value: int) -> int:
    """Fold ``value`` as its 16-byte little-endian two's complement.

    Only the bytes below the trailing zero run go through the per-byte
    loop; the zero run folds with one multiply, bit-identical to hashing
    every byte.  A non-negative word hashes only its significant bytes
    (a one-byte value is a single xor and multiply); a negative one has
    no trailing zeros and takes all 16.  Values that do not fit in 16
    bytes raise :class:`OverflowError`.
    """
    if 0 <= value < 256:
        return ((h ^ value) * _ZERO_RUN[16]) & _WORD_MASK
    data = value.to_bytes(16, "little", signed=True).rstrip(b"\x00")
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _WORD_MASK
    return (h * _ZERO_RUN[16 - len(data)]) & _WORD_MASK


def _fnv_mix(h: int, value) -> int:
    """Fold one value (int, bool, str, None, or tuple) into an FNV-1a hash.

    Deliberately avoids Python's builtin ``hash`` (salted per process) so
    checksums are reproducible across runs — fault-injection campaigns
    promise determinism under a fixed seed.
    """
    if value is None:
        data = b"\x00"
    elif isinstance(value, bool):
        data = b"\x01" if value else b"\x02"
    elif isinstance(value, int):
        return _fnv_int(h, value)
    elif isinstance(value, str):
        data = value.encode()
    elif isinstance(value, tuple):
        for v in value:
            h = _fnv_mix(h, v)
        return h
    else:  # pragma: no cover - defensive
        data = repr(value).encode()
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _WORD_MASK
    return h


def word_checksum(addr: int, value: int) -> int:
    """Integrity word for one NVM cell (the per-word ECC/CRC a real part
    stores alongside the data array)."""
    return _fnv_int(_fnv_int(_FNV_OFFSET, addr), value)


@dataclass(frozen=True)
class WpqRecord:
    """One write-pending-queue slot: the journal of a recently issued write.

    ``prev`` is the word's value before the write (``None`` if the cell
    was never written), so a fault model can *revert* the array — modelling
    a drain the power cut mid-way — while the battery-backed queue record
    itself survives for recovery to replay.  ``checksum`` guards the
    record against torn queue writes.
    """

    addr: int
    value: int
    prev: int | None
    checksum: int

    @staticmethod
    def make(addr: int, value: int, prev: int | None) -> "WpqRecord":
        return WpqRecord(addr, value, prev, word_checksum(addr, value))

    @property
    def intact(self) -> bool:
        return self.checksum == word_checksum(self.addr, self.value)


class NVMain:
    """Durable word-granular memory image with a shared write port."""

    def __init__(self, params: SimParams, initial: Dict[int, int] | None = None) -> None:
        self.params = params
        self.image: Dict[int, int] = dict(initial or {})
        #: Durable per-core PC checkpoint (Section 3.1: boundary checkpoints
        #: contain "the current PC offset"): core -> (continuation,
        #: region_id), written when a region's boundary entry completes its
        #: second phase.  Until then the boundary entry itself (in the
        #: non-volatile proxy buffers) carries the continuation.
        self.pc_checkpoints: Dict[int, tuple] = {}
        #: The write-pending queue's journal: the last ``wpq_entries``
        #: issued writes, oldest first.  Table 1 puts the WPQ inside the
        #: persistent domain, so these records survive a power failure;
        #: recovery replays them to heal a partially-drained array
        #: (the ADR contract — see repro.fault.models).
        self.wpq: Deque[WpqRecord] = deque(maxlen=params.wpq_entries)
        #: Per-slot integrity words for the register-checkpoint array
        #: (the ECC a real part keeps alongside the cells); recovery
        #: verifies a slot's shadow before trusting its value.
        self.ckpt_shadow: Dict[int, int] = {}
        #: Next cycle at which the write port can issue.
        self.write_free_at = 0.0
        # -- counters -----------------------------------------------------
        self.writes_writeback = 0  # regular-path words written
        self.writes_redo = 0  # phase-2 redo words written
        self.writes_ckpt = 0  # checkpoint-array words written
        self.writes_skipped = 0  # redo entries skipped (valid bit unset)
        self.reads = 0

    # -- durable state ------------------------------------------------------

    def read_word(self, addr: int) -> int:
        self.reads += 1
        return self.image.get(addr, 0)

    def peek(self, addr: int) -> int:
        """Read without counting (for invariant checks)."""
        return self.image.get(addr, 0)

    # -- write port timing ------------------------------------------------------

    def issue_write(self, now: float) -> float:
        """Occupy one write-port slot at/after ``now``; return issue time."""
        t = max(now, self.write_free_at)
        self.write_free_at = t + self.params.nvm_write_interval_cycles
        return t

    # -- producers ----------------------------------------------------------------

    def _journal(self, addr: int, value: int) -> None:
        self.wpq.append(WpqRecord.make(addr, value, self.image.get(addr)))

    def writeback_words(self, now: float, words: Dict[int, int]) -> float:
        """Apply a regular-path writeback; returns last issue time."""
        t = now
        for addr, value in words.items():
            t = self.issue_write(now)
            self._journal(addr, value)
            self.image[addr] = value
            self.writes_writeback += 1
        return t

    def redo_write(self, now: float, addr: int, value: int) -> float:
        t = self.issue_write(now)
        self._journal(addr, value)
        self.image[addr] = value
        self.writes_redo += 1
        return t

    def ckpt_write(self, now: float, addr: int, value: int) -> float:
        t = self.issue_write(now)
        self._journal(addr, value)
        self.image[addr] = value
        self.ckpt_shadow[addr] = word_checksum(addr, value)
        self.writes_ckpt += 1
        return t

    @property
    def total_writes(self) -> int:
        return self.writes_writeback + self.writes_redo + self.writes_ckpt

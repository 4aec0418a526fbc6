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
from functools import lru_cache
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


@lru_cache(maxsize=1024)
def word_checksum(addr: int, value: int) -> int:
    """Integrity word for one NVM cell (the per-word ECC/CRC a real part
    stores alongside the data array).

    A pure function of ``(addr, value)``, memoised: recovery re-verifies
    and re-seeds the same checkpoint slots with the same values at every
    crash point of a campaign (an exhaustive genome campaign asks for
    under 500 distinct words).  The bound caps the memo at a few hundred
    kilobytes.
    """
    return _fnv_int(_fnv_int(_FNV_OFFSET, addr), value)


class WpqRecord:
    """One write-pending-queue slot: the journal of a recently issued write.

    ``prev`` is the word's value before the write (``None`` if the cell
    was never written), so a fault model can *revert* the array — modelling
    a drain the power cut mid-way — while the battery-backed queue record
    itself survives for recovery to replay.  ``checksum`` guards the
    record against torn queue writes.

    The checksum is integrity metadata of captured durable state, not of
    the write: a record built without one computes it from its own
    ``value`` on first read, and :func:`~repro.arch.crash.capture_crash_state`
    reads it for every record a snapshot holds, before any fault model
    can tamper with a copy.  A crash-free run never reads it.  A record
    is never edited (a torn one is a new record carrying the old
    checksum), so its ``intact`` verdict is computed once.
    """

    __slots__ = ("addr", "value", "prev", "_checksum", "_intact")

    def __init__(
        self,
        addr: int,
        value: int,
        prev: int | None,
        checksum: int | None = None,
    ) -> None:
        self.addr = addr
        self.value = value
        self.prev = prev
        self._checksum = checksum
        self._intact: bool | None = None

    @property
    def checksum(self) -> int:
        if self._checksum is None:
            # Fixed from this record's own value: intact by construction.
            self._checksum = word_checksum(self.addr, self.value)
            self._intact = True
        return self._checksum

    @property
    def intact(self) -> bool:
        if self._intact is None:
            self._intact = self.checksum == word_checksum(self.addr, self.value)
        return self._intact

    def _key(self) -> tuple:
        return (self.addr, self.value, self.prev, self.checksum)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WpqRecord):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WpqRecord(addr={self.addr:#x}, value={self.value}, "
            f"prev={self.prev}, checksum={self._checksum})"
        )


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
        #: (the ECC a real part keeps alongside the cells), brought up to
        #: date from ``_unshadowed`` when read (:attr:`ckpt_shadow`).
        self._ckpt_shadow: Dict[int, int] = {}
        #: Checkpoint slots written since the shadow words were last
        #: read: slot -> the value :meth:`ckpt_write` wrote.
        self._unshadowed: Dict[int, int] = {}
        #: Next cycle at which the write port can issue.
        self.write_free_at = 0.0
        self._write_interval = params.nvm_write_interval_cycles
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

    @property
    def ckpt_shadow(self) -> Dict[int, int]:
        """Checkpoint-slot integrity words; recovery verifies a slot's
        shadow before trusting its value.

        Computed on read, once per slot write, from the value
        :meth:`ckpt_write` wrote — never from the image, which a fault
        model may have changed.  Crash capture is the reader; a
        crash-free run computes none.
        """
        pending = self._unshadowed
        if pending:
            shadow = self._ckpt_shadow
            for addr, value in pending.items():
                shadow[addr] = word_checksum(addr, value)
            pending.clear()
        return self._ckpt_shadow

    # -- producers ----------------------------------------------------------------
    #
    # Each write occupies the next write-port slot at or after ``now``
    # (the port issues one write per ``nvm_write_interval_cycles``), is
    # journalled in the WPQ with the word's previous value, and lands in
    # the image.  The three producers do this inline; they differ only in
    # their counters.

    def writeback_words(self, now: float, words: Dict[int, int]) -> float:
        """Apply a regular-path writeback; returns last issue time."""
        t = now
        image = self.image
        for addr, value in words.items():
            t = self.write_free_at
            if now > t:
                t = now
            self.write_free_at = t + self._write_interval
            self.wpq.append(WpqRecord(addr, value, image.get(addr)))
            image[addr] = value
            self.writes_writeback += 1
        return t

    def redo_write(self, now: float, addr: int, value: int) -> float:
        t = self.write_free_at
        if now > t:
            t = now
        self.write_free_at = t + self._write_interval
        image = self.image
        self.wpq.append(WpqRecord(addr, value, image.get(addr)))
        image[addr] = value
        self.writes_redo += 1
        return t

    def ckpt_write(self, now: float, addr: int, value: int) -> float:
        t = self.write_free_at
        if now > t:
            t = now
        self.write_free_at = t + self._write_interval
        image = self.image
        self.wpq.append(WpqRecord(addr, value, image.get(addr)))
        image[addr] = value
        self._unshadowed[addr] = value
        self.writes_ckpt += 1
        return t

    @property
    def total_writes(self) -> int:
        return self.writes_writeback + self.writes_redo + self.writes_ckpt

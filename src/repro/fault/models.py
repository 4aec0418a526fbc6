"""Adversarial fault models over a captured crash snapshot.

Each model is a composable transformer: given a :class:`CrashState` (a
*clone* — the campaign never mutates the original capture) and a seeded
``random.Random``, it corrupts some durable structure the way a real part
might — a torn multi-word entry write, a bit flip behind the checksum's
back, a write-pending-queue drain cut mid-way — and returns
:class:`FaultNote` records describing exactly what it touched, so the
oracle can correlate detected findings with injected damage.

The models deliberately *bypass* the integrity-refresh paths the
legitimate hardware mutations use (``ProxyEntry.refresh_checksum``,
``NVMain.ckpt_write``): the stale checksum IS the fault signature
recovery must catch.  Checksums are computed on demand, not on the
write path, so a model may only tamper with a snapshot that
:func:`~repro.arch.crash.capture_crash_state` produced: capture fixes
every entry's, WPQ record's and checkpoint slot's checksum before it
returns, and a tampered copy keeps the checksum of the original.

Proxy entries are sealed and shared between a capture, its clones and
the live pipeline (see :class:`~repro.arch.proxy.ProxyEntry`), so an
entry model never garbles the entry it was handed: it swaps
``entry.clone()`` into the state's own list and tampers with that copy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.arch.crash import CrashState
from repro.arch.nvm import WpqRecord
from repro.arch.proxy import ProxyEntry
from repro.ir.module import is_ckpt_addr

_GARBLE = 0xDEAD_BEEF_0BAD_F00D


@dataclass
class FaultNote:
    """One concrete mutation a model performed."""

    model: str
    detail: str
    core: Optional[int] = None
    addr: Optional[int] = None


class FaultModel:
    """Base transformer.  Subclasses mutate ``state``'s containers in
    place (never a shared proxy entry) and report what they did; an
    empty note list means the model found no applicable target in this
    snapshot (e.g. no surviving data entries)."""

    name = "base"

    def apply(self, state: CrashState, rng: random.Random) -> List[FaultNote]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<fault:{self.name}>"


def _entry_slots(state: CrashState, boundary: bool) -> List[Tuple[int, int]]:
    """``(core, index)`` of every data (or boundary) entry in ``state``."""
    return [
        (core, i)
        for core, entries in enumerate(state.core_entries)
        for i, e in enumerate(entries)
        if e.is_boundary == boundary
    ]


def _own_copy(state: CrashState, core: int, index: int) -> ProxyEntry:
    """Swap a private copy of an entry into ``state`` and return it: the
    original may be shared with other snapshots and the live pipeline."""
    entries = state.core_entries[core]
    entry = entries[index] = entries[index].clone()
    return entry


class CleanPowerLoss(FaultModel):
    """The identity model: a clean outage, nothing but volatility lost."""

    name = "clean"

    def apply(self, state: CrashState, rng: random.Random) -> List[FaultNote]:
        return []


class TornEntryWrite(FaultModel):
    """A torn multi-word proxy-entry write: the entry's undo and redo
    words are garbled mid-write, leaving its checksum stale."""

    name = "torn-entry"

    def apply(self, state: CrashState, rng: random.Random) -> List[FaultNote]:
        cands = _entry_slots(state, boundary=False)
        if not cands:
            return []
        core, index = rng.choice(cands)
        entry = _own_copy(state, core, index)
        entry.undo ^= _GARBLE
        entry.redo ^= _GARBLE >> 8
        return [
            FaultNote(
                self.name,
                f"tore data entry (seq {entry.region_seq}) at "
                f"{entry.addr:#x} on core {core}",
                core=core,
                addr=entry.addr,
            )
        ]


class TornBoundaryWrite(FaultModel):
    """A torn boundary-entry write: the delimiter's payload (a staged
    register checkpoint, or its region id) is garbled mid-write."""

    name = "torn-boundary"

    def apply(self, state: CrashState, rng: random.Random) -> List[FaultNote]:
        cands = _entry_slots(state, boundary=True)
        if not cands:
            return []
        core, index = rng.choice(cands)
        entry = _own_copy(state, core, index)
        if entry.ckpts:
            slot = rng.choice(sorted(entry.ckpts))
            entry.ckpts[slot] ^= _GARBLE
            what = f"garbled staged checkpoint slot {slot:#x}"
        else:
            entry.region_id ^= 0x55
            what = "garbled region id"
        return [
            FaultNote(
                self.name,
                f"tore boundary entry (seq {entry.region_seq}, {what}) "
                f"on core {core}",
                core=core,
            )
        ]


class DroppedValidBits(FaultModel):
    """Redo valid-bits flip without the entry's checksum being refreshed
    — unlike the legitimate Section 5.3.2 scan, which read-modify-writes
    the whole entry."""

    name = "dropped-valid-bits"

    def __init__(self, k: int = 2) -> None:
        self.k = k

    def apply(self, state: CrashState, rng: random.Random) -> List[FaultNote]:
        cands = _entry_slots(state, boundary=False)
        if not cands:
            return []
        rng.shuffle(cands)
        notes: List[FaultNote] = []
        for core, index in cands[: self.k]:
            entry = _own_copy(state, core, index)
            entry.redo_valid = not entry.redo_valid
            notes.append(
                FaultNote(
                    self.name,
                    f"flipped redo valid-bit of entry at {entry.addr:#x} "
                    f"on core {core}",
                    core=core,
                    addr=entry.addr,
                )
            )
        return notes


class PartiallyDrainedWpq(FaultModel):
    """The write-pending queue's drain to the array was cut mid-way: the
    last ``k`` journaled writes are reverted in the array, while the
    battery-backed queue records themselves survive.  Recovery's WPQ
    replay must heal this transparently (the ADR contract)."""

    name = "partial-wpq"

    def __init__(self, k: int = 4) -> None:
        self.k = k

    def apply(self, state: CrashState, rng: random.Random) -> List[FaultNote]:
        if not state.wpq:
            return []
        notes: List[FaultNote] = []
        for rec in reversed(state.wpq[-self.k :]):
            if rec.prev is None:
                state.nvm_image.pop(rec.addr, None)
            else:
                state.nvm_image[rec.addr] = rec.prev
            notes.append(
                FaultNote(
                    self.name,
                    f"reverted array word {rec.addr:#x} to its pre-write "
                    "value (journal record survives)",
                    addr=rec.addr,
                )
            )
        return notes


class TornWpqRecord(FaultModel):
    """A WPQ journal record is itself torn: its value word is garbled
    (checksum stale) *and* the array write it described never landed."""

    name = "torn-wpq"

    def apply(self, state: CrashState, rng: random.Random) -> List[FaultNote]:
        if not state.wpq:
            return []
        i = rng.randrange(len(state.wpq))
        rec = state.wpq[i]
        state.wpq[i] = WpqRecord(
            rec.addr, rec.value ^ _GARBLE, rec.prev, rec.checksum
        )
        if rec.prev is None:
            state.nvm_image.pop(rec.addr, None)
        else:
            state.nvm_image[rec.addr] = rec.prev
        return [
            FaultNote(
                self.name,
                f"tore WPQ record for {rec.addr:#x} and reverted the array",
                addr=rec.addr,
            )
        ]


class CorruptCheckpointSlot(FaultModel):
    """A register-checkpoint array cell is corrupted in place — a bit
    flip behind its shadow integrity word.

    The model is weaker than its counts suggest.  It picks any slot the
    WPQ journal does not hold, whether or not recovery will read it.
    Recovery's Phase A rewrites many such slots from a surviving
    boundary entry before checking them, and others lie outside every
    frame that resumes, so the flip is healed or never read and the
    point scores a clean ``ok``.  On a pointer-chase program at
    threshold 32, 11 of 18 freshly written slots inside a resumed frame
    were rewritten in Phase A.  Targeting only slots that recovery reads
    would change the lenient all-model campaign rows; it is an open
    ROADMAP item.
    """

    name = "corrupt-ckpt"

    def apply(self, state: CrashState, rng: random.Random) -> List[FaultNote]:
        journaled = {rec.addr for rec in state.wpq}
        slots = sorted(
            a
            for a in state.nvm_image
            if is_ckpt_addr(a) and a not in journaled
        )
        if not slots:
            # Every slot is still journaled (replay would heal the flip);
            # corrupt one anyway *and* drop its journal record, modelling
            # corruption that outlived the queue.
            slots = sorted(a for a in state.nvm_image if is_ckpt_addr(a))
            if not slots:
                return []
            slot = rng.choice(slots)
            state.wpq = [rec for rec in state.wpq if rec.addr != slot]
        else:
            slot = rng.choice(slots)
        state.nvm_image[slot] ^= _GARBLE
        return [
            FaultNote(
                self.name,
                f"flipped bits in checkpoint slot {slot:#x}",
                addr=slot,
            )
        ]


_FACTORIES: Dict[str, Callable[[], FaultModel]] = {
    CleanPowerLoss.name: CleanPowerLoss,
    TornEntryWrite.name: TornEntryWrite,
    TornBoundaryWrite.name: TornBoundaryWrite,
    DroppedValidBits.name: DroppedValidBits,
    PartiallyDrainedWpq.name: PartiallyDrainedWpq,
    TornWpqRecord.name: TornWpqRecord,
    CorruptCheckpointSlot.name: CorruptCheckpointSlot,
}


def available_models() -> List[str]:
    """All registered fault-model names (``clean`` first)."""
    names = sorted(_FACTORIES)
    names.remove(CleanPowerLoss.name)
    return [CleanPowerLoss.name] + names


def get_models(names: Sequence[str]) -> List[FaultModel]:
    """Instantiate models by name (``all`` expands to every model)."""
    expanded: List[str] = []
    for name in names:
        if name == "all":
            expanded.extend(available_models())
        else:
            expanded.append(name)
    models = []
    for name in expanded:
        factory = _FACTORIES.get(name)
        if factory is None:
            raise KeyError(
                f"unknown fault model {name!r}; known: {available_models()}"
            )
        models.append(factory())
    return models


def apply_faults(
    state: CrashState,
    models: Sequence[FaultModel],
    rng: Optional[random.Random],
) -> Tuple[CrashState, List[FaultNote]]:
    """Clone ``state`` and run every model over the clone in order.

    With no model, ``state`` itself comes back with no notes and ``rng``
    may be ``None``: nothing would change the clone, and the campaign
    only reads the result or clones it again.
    """
    if not models:
        return state, []
    mutated = state.clone()
    notes: List[FaultNote] = []
    for model in models:
        notes.extend(model.apply(mutated, rng))
    return mutated, notes

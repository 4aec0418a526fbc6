"""A tear right after capture is still caught.

Checksums are computed on demand, so an entry, WPQ record or checkpoint
slot write made after the previous crash point reaches the next capture
with no checksum yet.  Capture must fix each one before it returns: every
fault model tampers with a copy of what capture produced, and a copy
keeps the original's checksum.  Here a cursor captures at every
``STRIDE``-th crash point, as a sampled campaign does, and each tampering
model bites into structures no one had read a checksum of until that
capture.  Strict recovery must raise and lenient recovery must report
the damage.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

import pytest

import repro.trace.replay as replay
from repro.arch.crash import CrashState
from repro.arch.recovery import (
    CHECKSUM_MISMATCH,
    TORN_ENTRY,
    TORN_WPQ,
    CheckpointMismatchError,
    TornEntryError,
    WpqCorruptionError,
    recover,
)
from repro.fault.campaign import CampaignConfig
from repro.fault.models import FaultNote, apply_faults, get_models
from repro.ir.module import ckpt_slot_addr
from repro.trace.record import capture_trace
from repro.trace.replay import TraceCampaignSource

from tests.arch.conftest import build_pointer_chase, compile_capri

THRESHOLD = 32
#: Fresh-target cases checked per model.
CASES = 6
#: Events between captures: enough for new entries, records and slot
#: writes to pile up unread.
STRIDE = 25

#: model -> (strict error, lenient finding kind)
EXPECTED = {
    "torn-entry": (TornEntryError, TORN_ENTRY),
    "torn-boundary": (TornEntryError, TORN_ENTRY),
    "dropped-valid-bits": (TornEntryError, TORN_ENTRY),
    "torn-wpq": (WpqCorruptionError, TORN_WPQ),
    "corrupt-ckpt": (CheckpointMismatchError, CHECKSUM_MISMATCH),
}


@pytest.fixture(scope="module")
def program():
    """Calls and branches: checkpoint slots are rewritten often enough
    that a fresh write can leave the WPQ journal before a capture."""
    module = compile_capri(build_pointer_chase(depth=30), threshold=THRESHOLD)
    return module, capture_trace(module, [("main", [])], quantum=32)


def _unread(system) -> Dict[str, Set[int]]:
    """What in the live persistent domain has no checksum yet: entry and
    WPQ record ids, and checkpoint slots written since the last read."""
    return {
        "entries": {
            id(e)
            for pipe in system.persist.pipelines
            for e in pipe.entries_in_order()
            if e._checksum is None
        },
        "wpq": {id(r) for r in system.nvm.wpq if r._checksum is None},
        "slots": set(system.nvm._unshadowed),
    }


def _hits_unread(
    state: CrashState,
    faulted: CrashState,
    notes: List[FaultNote],
    unread: Dict[str, Set[int]],
) -> bool:
    """Did the model tamper with a structure captured with no checksum?"""
    model = notes[0].model
    if model == "corrupt-ckpt":
        return notes[0].addr in unread["slots"]
    if model == "torn-wpq":
        torn = [r for r, f in zip(state.wpq, faulted.wpq) if f is not r]
        return any(id(r) in unread["wpq"] for r in torn)
    swapped = [
        entry
        for core, entries in enumerate(state.core_entries)
        for i, entry in enumerate(entries)
        if faulted.core_entries[core][i] is not entry
    ]
    return any(id(e) in unread["entries"] for e in swapped)


def _verified_slots(state: CrashState, module) -> Set[int]:
    """The checkpoint slots recovery checks against the captured shadow
    words: the registers of each resumed frame, less the slots a
    surviving boundary entry rewrites (with a fresh shadow word) first.
    A flip anywhere else is healed or never read."""
    resumed = set()
    for core, resume in enumerate(recover(state, module).resumes):
        if resume is not None:
            cont = resume.continuation
            regs = range(module.functions[cont.func_name].num_regs)
            resumed.update(ckpt_slot_addr(core, r, cont.depth) for r in regs)
    rewritten = {
        slot
        for entries in state.core_entries
        for entry in entries
        if entry.is_boundary
        for slot in entry.ckpts
    }
    return resumed - rewritten


def _cases(program, model: str, monkeypatch) -> List[Tuple[CrashState, int]]:
    """Up to CASES ``(faulted state, seed)`` pairs, one per captured point,
    in which ``model`` tampered with a structure no one had read a
    checksum of before that point's capture."""
    module, trace = program
    seen: Dict[str, Set[int]] = {}
    real = replay.capture_crash_state

    def capture(system, previous=None):
        seen.clear()
        seen.update(_unread(system))
        return real(system, previous)

    monkeypatch.setattr(replay, "capture_crash_state", capture)
    cursor = TraceCampaignSource(trace, CampaignConfig(threshold=THRESHOLD))
    found = []
    for k in range(0, len(trace), STRIDE):
        state, _, _ = cursor.capture_at(k)
        if model == "corrupt-ckpt":
            seen["slots"] &= _verified_slots(state, module)
        for seed in range(8):
            faulted, notes = apply_faults(
                state, get_models([model]), random.Random(seed)
            )
            if notes and _hits_unread(state, faulted, notes, seen):
                found.append((faulted, seed))
                break
        if len(found) == CASES:
            break
    return found


@pytest.mark.parametrize("model", sorted(EXPECTED))
def test_tear_of_a_never_read_checksum_is_caught(program, model, monkeypatch):
    module, _ = program
    error, kind = EXPECTED[model]
    cases = _cases(program, model, monkeypatch)
    assert len(cases) == CASES, f"{model}: too few unread targets"
    for faulted, seed in cases:
        with pytest.raises(error):
            recover(faulted, module, strict=True)
        rec = recover(faulted, module, strict=False)
        assert not rec.report.clean, (model, seed)
        assert any(f.kind == kind for f in rec.report.findings), (model, seed)


@pytest.mark.parametrize("model", sorted(EXPECTED))
def test_tear_of_a_shared_snapshot_is_caught(program, model):
    """A point whose domain did not change gets the previous point's
    snapshot back; tampering with it must be caught as at any other
    point, and must not reach the snapshot the next point shares."""
    module, trace = program
    error, kind = EXPECTED[model]
    cursor = TraceCampaignSource(trace, CampaignConfig(threshold=THRESHOLD))
    previous = None
    cases = 0
    for k in range(len(trace)):
        state, _, _ = cursor.capture_at(k)
        shared, previous = state is previous, state
        if not shared:
            continue
        slots = _verified_slots(state, module) if model == "corrupt-ckpt" else None
        for seed in range(8):
            faulted, notes = apply_faults(
                state, get_models([model]), random.Random(seed)
            )
            if notes and (slots is None or notes[0].addr in slots):
                break
        else:
            continue
        with pytest.raises(error):
            recover(faulted, module, strict=True)
        rec = recover(faulted, module, strict=False)
        assert not rec.report.clean, (model, k, seed)
        assert any(f.kind == kind for f in rec.report.findings), (model, k, seed)
        assert recover(state, module, strict=True).report.clean, (model, k)
        cases += 1
        if cases == CASES:
            break
    assert cases == CASES, f"{model}: too few shared snapshots to tamper with"


def test_capture_leaves_no_checksum_to_compute(program):
    """The barrier itself: whatever a snapshot holds has its checksum
    when capture returns, so no later read can compute one from state a
    fault model has touched."""
    _, trace = program
    cursor = TraceCampaignSource(trace, CampaignConfig(threshold=THRESHOLD))
    for k in range(0, len(trace), STRIDE):
        state, _, _ = cursor.capture_at(k)
        assert not _unread(cursor.system)["slots"]
        held = [e for entries in state.core_entries for e in entries]
        assert all(e._checksum is not None for e in held), k
        assert all(e.sealed is not None for e in held), k
        assert all(r._checksum is not None for r in state.wpq), k

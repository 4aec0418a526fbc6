"""Sealed, shared proxy entries.

Crash snapshots hold the live pipeline's entry objects, and an entry's
integrity verdict is sealed to the exact payload and checksum it judged.
Two contracts keep that sound:

* the seal never outlives an edit — any in-place change to a durable
  field, the checksum, or a staged checkpoint value makes ``intact``
  recompute, so the verdict always equals ``checksum ==
  entry_checksum(entry)``;
* nobody edits a shared entry — the pipeline's merges and valid-bit
  scans swap in copies with a cleared checksum, and fault models tamper
  with a copy in their own snapshot.
"""

from __future__ import annotations

import random

import pytest

import repro.arch.proxy as proxy
from repro.arch.proxy import KIND_BOUNDARY, KIND_DATA, ProxyEntry, entry_checksum
from repro.fault.models import apply_faults, available_models, get_models
from repro.isa.machine import Continuation
from repro.trace.record import capture_trace
from repro.trace.replay import TraceCursor

from tests.arch.conftest import (
    build_update_loop,
    compile_capri,
    edit_through_hardware,
    entry_payloads,
    mergeable_addr,
)

THRESHOLD = 32


def _boundary() -> ProxyEntry:
    """An entry whose every durable field feeds the checksum."""
    return ProxyEntry(
        KIND_BOUNDARY,
        4,
        3.0,
        addr=16,
        undo=5,
        redo=6,
        region_id=9,
        continuation=Continuation("main", "body", 1, ()),
        ckpts={0x100: 1, 0x108: 2},
    )


#: One in-place edit per durable field, plus the checksum itself and one
#: staged checkpoint value.
EDITS = {
    "kind": lambda e: setattr(e, "kind", KIND_DATA),
    "addr": lambda e: setattr(e, "addr", e.addr ^ 8),
    "undo": lambda e: setattr(e, "undo", e.undo ^ 1),
    "redo": lambda e: setattr(e, "redo", e.redo ^ 1),
    "redo_valid": lambda e: setattr(e, "redo_valid", not e.redo_valid),
    "region_seq": lambda e: setattr(e, "region_seq", e.region_seq + 1),
    "region_id": lambda e: setattr(e, "region_id", e.region_id ^ 0x55),
    "continuation": lambda e: setattr(
        e, "continuation", Continuation("main", "body", 2, ())
    ),
    "ckpts": lambda e: e.ckpts.__setitem__(0x108, e.ckpts[0x108] ^ 1),
    "checksum": lambda e: setattr(e, "checksum", e.checksum ^ 1),
}

#: Simulator timing: outside the checksum and the seal.
TIMING = {"create_time", "arrive_time"}


class TestSeal:
    def test_edits_cover_every_durable_slot(self):
        # ``_checksum`` backs the ``checksum`` property the edit writes.
        slots = {s.lstrip("_") for s in ProxyEntry.__slots__}
        assert set(EDITS) == slots - TIMING - {"sealed"}

    @pytest.mark.parametrize("field", sorted(EDITS))
    def test_in_place_edit_breaks_the_seal(self, field):
        e = _boundary()
        assert e.intact
        assert e.sealed is not None
        EDITS[field](e)
        assert not e.intact
        assert not e.intact  # a failed check never seals

    @pytest.mark.parametrize("field", sorted(EDITS))
    def test_refresh_after_edit_reseals(self, field):
        e = _boundary()
        assert e.intact
        EDITS[field](e)
        e.refresh_checksum()
        assert e.intact

    def test_sealed_verdict_skips_the_recompute(self, monkeypatch):
        calls = []

        def counting(entry):
            calls.append(entry)
            return entry_checksum(entry)

        e = _boundary()
        monkeypatch.setattr(proxy, "entry_checksum", counting)
        assert e.intact and len(calls) == 1
        assert e.intact and len(calls) == 1
        e.arrive_time += 100.0  # timing is not payload
        assert e.intact and len(calls) == 1
        e.redo ^= 1
        assert not e.intact and len(calls) == 2

    def test_clone_keeps_the_seal_and_tampering_breaks_only_the_copy(self):
        e = _boundary()
        assert e.intact
        dup = e.clone()
        assert dup.sealed == e.sealed
        dup.ckpts[0x100] ^= 1
        assert not dup.intact
        assert e.intact

    def test_verdict_matches_the_full_recompute_under_random_edits(self):
        rng = random.Random(7)
        e = _boundary()
        original = e.clone()
        for _ in range(400):
            roll = rng.random()
            if roll < 0.6:
                EDITS[rng.choice(sorted(EDITS))](e)
            elif roll < 0.8:
                e.refresh_checksum()
            else:
                e = original.clone()  # undo every edit, seal included
            assert e.intact == (e.checksum == entry_checksum(e))


@pytest.fixture(scope="module")
def loop_trace():
    """A single-hart trace whose stores merge within regions."""
    module = compile_capri(
        build_update_loop(n_iters=40, arr_words=4), threshold=THRESHOLD
    )
    return capture_trace(module, [("main", [])], quantum=32)


def _mergeable_point(trace):
    """The first crash point whose capture holds a boundary entry and a
    mergeable one."""
    cursor = TraceCursor(trace, threshold=THRESHOLD)
    for k in range(len(trace)):
        state, _, _ = cursor.capture_at(k)
        (pipe,) = cursor.system.persist.pipelines
        (held,) = state.core_entries
        addr = mergeable_addr(pipe, held)
        if addr is not None and any(e.is_boundary for e in held):
            return k, cursor, state, pipe, addr
    pytest.fail("no crash point holds a mergeable entry")


def _ids(state):
    return {id(e) for es in state.core_entries for e in es}


class TestSharing:
    def test_capture_shares_live_entries(self, loop_trace):
        _, _, state, pipe, _ = _mergeable_point(loop_trace)
        assert _ids(state) == {id(e) for e in pipe.entries_in_order()}
        assert _ids(state.clone()) == _ids(state)

    def test_hardware_edits_leave_the_snapshot_unchanged(self, loop_trace):
        _, _, state, pipe, addr = _mergeable_point(loop_trace)
        frozen = entry_payloads(state.core_entries)
        assert all(e.intact for es in state.core_entries for e in es)
        edit_through_hardware(pipe, addr)
        assert entry_payloads(state.core_entries) == frozen
        assert all(e.intact for es in state.core_entries for e in es)
        # The edits happened, on new entries the snapshot does not hold.
        assert _ids(state) - {id(e) for e in pipe.entries_in_order()}

    @pytest.mark.parametrize("model", available_models())
    def test_fault_models_touch_neither_capture_nor_cursor(
        self, loop_trace, model
    ):
        k, cursor, state, _, _ = _mergeable_point(loop_trace)
        later = k + 3
        reference = TraceCursor(loop_trace, threshold=THRESHOLD)
        expect_now = entry_payloads(reference.capture_at(k)[0].core_entries)
        expect_later = entry_payloads(
            reference.capture_at(later)[0].core_entries
        )
        assert entry_payloads(state.core_entries) == expect_now

        for seed in range(6):
            faulted, notes = apply_faults(
                state, get_models([model]), random.Random(seed)
            )
            if model in ("torn-entry", "torn-boundary", "dropped-valid-bits"):
                assert notes
                assert entry_payloads(faulted.core_entries) != expect_now
        assert entry_payloads(state.core_entries) == expect_now
        assert all(e.intact for es in state.core_entries for e in es)

        following, _, _ = cursor.capture_at(later)
        assert _ids(following) & _ids(state)  # the captures share entries
        assert entry_payloads(following.core_entries) == expect_later
        assert all(e.intact for es in following.core_entries for e in es)

"""Fault models against a known-good crash snapshot.

Satellite contract: each corruption model applied to a good
:class:`CrashState` is *detected* by strict recovery (a typed
:class:`RecoveryError`) and *quarantined with a structured report* by
lenient recovery.  The partially-drained-WPQ model is the exception by
design: the surviving journal heals it transparently in both modes.
"""

from __future__ import annotations

import random

import pytest

from repro.arch.crash import CrashPlan, capture_crash_state, run_until_crash
from repro.arch.recovery import (
    CheckpointMismatchError,
    RecoveryError,
    TornEntryError,
    WpqCorruptionError,
    recover,
    resume_and_finish,
)
from repro.arch.system import build_system
from repro.fault.models import (
    CleanPowerLoss,
    CorruptCheckpointSlot,
    DroppedValidBits,
    PartiallyDrainedWpq,
    TornBoundaryWrite,
    TornEntryWrite,
    TornWpqRecord,
    apply_faults,
    available_models,
    get_models,
)
from repro.fault.oracle import differential_check, golden_run

from tests.arch.conftest import (
    build_update_loop,
    compile_capri,
    data_memory,
    edit_through_hardware,
    entry_payloads,
    mergeable_addr,
)


@pytest.fixture(scope="module")
def snapshot():
    """A mid-run crash state with surviving data + boundary entries, a
    journaled WPQ, and populated checkpoint slots — a target every fault
    model can bite into."""
    module = compile_capri(build_update_loop(n_iters=40, arr_words=16))
    spawns = [("main", [])]
    for at in range(100, 400, 7):
        state = run_until_crash(module, spawns, CrashPlan(at), threshold=32)
        if state is None:
            break
        entries = [e for es in state.core_entries for e in es]
        if (
            any(not e.is_boundary for e in entries)
            and any(e.is_boundary for e in entries)
            and state.wpq
            and state.ckpt_shadow
        ):
            return module, spawns, state
    pytest.fail("no crash index yields a fully-populated snapshot")


def _rng():
    return random.Random(1234)


class TestModelDetection:
    def _mutate(self, state, model):
        mutated, notes = apply_faults(state, [model], _rng())
        assert notes, f"{model.name} found no target in this snapshot"
        return mutated

    def test_clean_is_identity(self, snapshot):
        module, spawns, state = snapshot
        mutated, notes = apply_faults(state, [CleanPowerLoss()], _rng())
        assert notes == []
        rec = recover(mutated, module, strict=True)
        assert rec.report.clean

    def test_torn_entry_strict_raises(self, snapshot):
        module, _, state = snapshot
        mutated = self._mutate(state, TornEntryWrite())
        with pytest.raises(TornEntryError):
            recover(mutated, module, strict=True)

    def test_torn_entry_lenient_quarantines(self, snapshot):
        module, spawns, state = snapshot
        mutated = self._mutate(state, TornEntryWrite())
        rec = recover(mutated, module, strict=False)
        assert not rec.report.clean
        assert rec.report.quarantined_entries >= 1
        assert any(f.kind == "torn-entry" for f in rec.report.findings)
        # Containment: resume completes, and damage is limited to what
        # the report names.
        golden = golden_run(module, spawns)
        finished = resume_and_finish(rec, module, spawns)
        verdict = differential_check(golden, finished, report=rec.report)
        assert verdict.equivalent or verdict.contained_by(rec.report)

    def test_dropped_valid_bits_strict_raises(self, snapshot):
        module, _, state = snapshot
        mutated = self._mutate(state, DroppedValidBits(k=2))
        with pytest.raises(TornEntryError):
            recover(mutated, module, strict=True)

    def test_dropped_valid_bits_lenient_quarantines(self, snapshot):
        module, spawns, state = snapshot
        mutated = self._mutate(state, DroppedValidBits(k=2))
        rec = recover(mutated, module, strict=False)
        assert any(f.kind == "torn-entry" for f in rec.report.findings)
        finished = resume_and_finish(rec, module, spawns)
        verdict = differential_check(
            golden_run(module, spawns), finished, report=rec.report
        )
        assert verdict.equivalent or verdict.contained_by(rec.report)

    def test_torn_boundary_strict_raises(self, snapshot):
        module, _, state = snapshot
        mutated = self._mutate(state, TornBoundaryWrite())
        with pytest.raises(TornEntryError):
            recover(mutated, module, strict=True)

    def test_torn_boundary_lenient_rolls_back(self, snapshot):
        module, spawns, state = snapshot
        mutated = self._mutate(state, TornBoundaryWrite())
        rec = recover(mutated, module, strict=False)
        assert not rec.report.clean
        finished = resume_and_finish(rec, module, spawns)
        verdict = differential_check(
            golden_run(module, spawns), finished, report=rec.report
        )
        assert verdict.equivalent or verdict.contained_by(rec.report)

    def test_partial_wpq_heals_in_both_modes(self, snapshot):
        """The journal survives (persistent domain): replay restores the
        array exactly, so recovery matches the unfaulted recovery."""
        module, spawns, state = snapshot
        mutated = self._mutate(state, PartiallyDrainedWpq(k=4))
        baseline = recover(state, module, strict=True)
        for strict in (True, False):
            rec = recover(mutated, module, strict=strict)
            assert rec.report.clean
            assert rec.report.wpq_replayed >= 1
            assert rec.nvm_image == baseline.nvm_image

    def test_torn_wpq_strict_raises(self, snapshot):
        module, _, state = snapshot
        mutated = self._mutate(state, TornWpqRecord())
        with pytest.raises(WpqCorruptionError):
            recover(mutated, module, strict=True)

    def test_torn_wpq_lenient_taints(self, snapshot):
        module, spawns, state = snapshot
        mutated = self._mutate(state, TornWpqRecord())
        rec = recover(mutated, module, strict=False)
        assert any(f.kind == "torn-wpq" for f in rec.report.findings)
        assert rec.report.tainted_addrs

    def test_corrupt_ckpt_detected_or_harmless(self, snapshot):
        """A flipped checkpoint cell: strict recovery raises if the slot
        is reloaded at resume; a slot outside the live reload window is
        harmless bookkeeping either way (the oracle sweep covers the
        end-to-end behaviour)."""
        module, spawns, state = snapshot
        mutated = self._mutate(state, CorruptCheckpointSlot())
        try:
            strict_rec = recover(mutated, module, strict=True)
        except CheckpointMismatchError:
            # Detected: lenient mode must fence the core instead.
            rec = recover(mutated, module, strict=False)
            assert any(
                f.kind == "checksum-mismatch" for f in rec.report.findings
            )
            assert rec.report.quarantined_cores
            # The fenced core never runs: resume yields no silent garbage.
            finished = resume_and_finish(rec, module, spawns)
            verdict = differential_check(
                golden_run(module, spawns), finished, report=rec.report
            )
            assert verdict.contained_by(rec.report)
        else:
            # The slot was not part of the resume's reload window.
            assert strict_rec.report.clean


class TestRegistry:
    def test_available_models(self):
        names = available_models()
        assert names[0] == "clean"
        assert {"torn-entry", "dropped-valid-bits", "partial-wpq",
                "corrupt-ckpt"} <= set(names)

    def test_get_models_all(self):
        models = get_models(["all"])
        assert [m.name for m in models] == available_models()

    def test_models_never_mutate_the_original(self, snapshot):
        module, _, state = snapshot
        before = [
            [(e.checksum, e.redo, e.undo, e.redo_valid, dict(e.ckpts))
             for e in es]
            for es in state.core_entries
        ]
        image_before = dict(state.nvm_image)
        wpq_before = list(state.wpq)
        apply_faults(state, get_models(["all"]), _rng())
        after = [
            [(e.checksum, e.redo, e.undo, e.redo_valid, dict(e.ckpts))
             for e in es]
            for es in state.core_entries
        ]
        assert before == after
        assert state.nvm_image == image_before
        assert state.wpq == wpq_before


class TestCaptureAliasing:
    def test_capture_is_isolated_from_live_pipeline(self):
        """Regression: a capture shares the live pipeline's sealed
        entries, so the pipeline's legitimate edits after the capture
        (merge, valid-bit scans) must replace entries, never edit them —
        and fault models tampering with the snapshot must not reach the
        live pipeline either."""
        module = compile_capri(build_update_loop(n_iters=40, arr_words=4))
        machine, system = build_system(module, [("main", [])], threshold=32)

        from repro.arch.crash import CrashInjector, CrashPlan, PowerFailure

        injector = CrashInjector(system, CrashPlan(180))
        with pytest.raises(PowerFailure) as exc:
            machine.run(injector)
        state = exc.value.state
        (pipe,) = system.persist.pipelines
        addr = mergeable_addr(pipe, state.core_entries[0])
        assert addr is not None

        frozen = entry_payloads(state.core_entries)
        assert all(e.intact for es in state.core_entries for e in es)
        edit_through_hardware(pipe, addr)
        assert entry_payloads(state.core_entries) == frozen
        assert all(e.intact for es in state.core_entries for e in es)

        # And the other direction: fault models tampering with the
        # snapshot must not perturb the live pipeline.
        live = [pipe.entries_in_order()]
        live_frozen = entry_payloads(live)
        rng = _rng()
        notes = [n for m in get_models(["all"]) for n in m.apply(state, rng)]
        assert {"torn-entry", "torn-boundary", "dropped-valid-bits"} <= {
            n.model for n in notes
        }
        assert entry_payloads(live) == live_frozen
        assert all(e.intact for e in live[0])

    def test_clone_preserves_torn_checksum(self):
        from repro.arch.proxy import KIND_DATA, ProxyEntry

        e = ProxyEntry(KIND_DATA, 0, 0.0, addr=8, undo=1, redo=2)
        assert e.intact  # as capture does: fix the checksum and seal it
        e.redo ^= 0xFF  # tear it (no refresh)
        dup = e.clone()
        assert not dup.intact
        assert dup.checksum == e.checksum

    def test_clone_copies_every_slot(self):
        """Walks ``__slots__`` so a slot added without a matching line in
        the explicit ``clone`` fails here."""
        from repro.arch.proxy import KIND_BOUNDARY, ProxyEntry
        from repro.isa.machine import Continuation

        cont = Continuation("main", "body", 1, ())
        e = ProxyEntry(
            KIND_BOUNDARY,
            4,
            3.0,
            addr=16,
            undo=5,
            redo=6,
            region_id=9,
            continuation=cont,
            ckpts={0x100: 1, 0x108: 2},
        )
        e.arrive_time = 7.0
        e.redo_valid = False
        e.checksum ^= 1  # stale: clone must not recompute it
        dup = e.clone()
        for slot in ProxyEntry.__slots__:
            assert getattr(dup, slot) == getattr(e, slot), slot
        assert dup.ckpts is not e.ckpts
        assert dup.checksum == e.checksum
        assert not dup.intact

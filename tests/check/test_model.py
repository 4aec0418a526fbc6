"""Unit tests for the reference persistency automaton.

These drive :class:`repro.check.model.PersistencyModel` directly with
hand-written event sequences — no simulator — so each taxonomy class is
pinned to the exact protocol rule that produces it.
"""

import pytest

from repro.check.model import MULTI_WRITER, PersistencyModel
from repro.check.violations import (
    CORRUPT_UNDO,
    LOST_REDO,
    OUT_OF_ORDER_DRAIN,
    PHANTOM_PERSIST,
    PREMATURE_PERSIST,
    STALE_BOUNDARY_PC,
    STALE_REDO_OVERWRITE,
    UNCOVERED_CKPT_SLOT,
)

CONT = "resume@loop"  # opaque continuation stand-in (proxy folds its repr)


def kinds(findings):
    return [kind for kind, _, _, _ in findings]


def commit_one_store(model, core=0, addr=0x100, old=0, new=7, region=1):
    """store -> entry -> boundary: one committed single-store region."""
    model.machine_store(core, addr, new, old)
    assert model.entry_created(core, 0, addr, old, new) == []
    model.machine_boundary(core, region, CONT)


class TestCleanLifecycle:
    def test_full_region_roundtrip_is_silent(self):
        m = PersistencyModel()
        commit_one_store(m)
        assert m.redo_drained(0, 0, 0x100, 7) == []
        assert m.boundary_drained(0, 0, 1, CONT, {}, True) == []
        cm = m.cores[0]
        assert not cm.emitted
        assert cm.drained_boundaries == 1
        assert m.allowed_values(0x100) == {7}

    def test_empty_region_does_not_commit(self):
        m = PersistencyModel()
        m.machine_boundary(0, 3, CONT)  # no stores, no staging
        assert 0 not in m.cores or not m.cores[0].emitted

    def test_spawn_boundary_always_commits(self):
        # region_id == -1 (the spawn prologue) emits even when empty.
        m = PersistencyModel()
        m.machine_boundary(0, -1, CONT)
        assert len(m.cores[0].emitted) == 1

    def test_merge_updates_redo(self):
        m = PersistencyModel()
        m.machine_store(0, 0x8, 1, 0)
        assert m.entry_created(0, 0, 0x8, 0, 1) == []
        m.machine_store(0, 0x8, 2, 1)
        assert m.entry_merged(0, 0, 0x8, 2) == []
        m.machine_boundary(0, 1, CONT)
        assert m.redo_drained(0, 0, 0x8, 2) == []


class TestEntryValidation:
    def test_wrong_undo_is_corrupt_undo(self):
        m = PersistencyModel()
        m.machine_store(0, 0x100, 7, 3)
        out = m.entry_created(0, 0, 0x100, 99, 7)
        assert kinds(out) == [CORRUPT_UNDO]

    def test_wrong_redo_is_lost_redo(self):
        m = PersistencyModel()
        m.machine_store(0, 0x100, 7, 3)
        out = m.entry_created(0, 0, 0x100, 3, 99)
        assert kinds(out) == [LOST_REDO]

    def test_entry_without_store_is_phantom(self):
        m = PersistencyModel()
        out = m.entry_created(0, 0, 0x100, 0, 7)
        assert kinds(out) == [PHANTOM_PERSIST]

    def test_entry_tagged_wrong_region_is_premature(self):
        m = PersistencyModel()
        m.machine_store(0, 0x100, 7, 0)
        out = m.entry_created(0, 5, 0x100, 0, 7)
        assert PREMATURE_PERSIST in kinds(out)

    def test_merge_after_commit_is_premature(self):
        m = PersistencyModel()
        commit_one_store(m)
        out = m.entry_merged(0, 0, 0x100, 8)
        assert kinds(out) == [PREMATURE_PERSIST]


class TestDrainOrder:
    def test_out_of_creation_order_drain(self):
        m = PersistencyModel()
        m.machine_store(0, 0x8, 1, 0)
        m.entry_created(0, 0, 0x8, 0, 1)
        m.machine_store(0, 0x10, 2, 0)
        m.entry_created(0, 0, 0x10, 0, 2)
        m.machine_boundary(0, 1, CONT)
        out = m.redo_drained(0, 0, 0x10, 2)  # younger entry first
        assert OUT_OF_ORDER_DRAIN in kinds(out)
        # The resync bounds cascade noise: the older entry still drains
        # cleanly afterwards.
        assert m.redo_drained(0, 0, 0x8, 1) == []

    def test_uncommitted_drain_is_premature(self):
        m = PersistencyModel()
        m.machine_store(0, 0x8, 1, 0)
        m.entry_created(0, 0, 0x8, 0, 1)
        out = m.redo_drained(0, 0, 0x8, 1)  # no boundary yet
        assert PREMATURE_PERSIST in kinds(out)

    def test_drained_value_mismatch_is_lost_redo(self):
        m = PersistencyModel()
        commit_one_store(m)
        out = m.redo_drained(0, 0, 0x100, 1234)
        assert LOST_REDO in kinds(out)


class TestWritebackInvalidation:
    def test_superseded_redo_draining_is_stale_overwrite(self):
        m = PersistencyModel(stale_read_prevention=True)
        commit_one_store(m)
        m.writeback(0x100, 7)
        out = m.redo_drained(0, 0, 0x100, 7)
        assert kinds(out) == [STALE_REDO_OVERWRITE]

    def test_skip_of_superseded_redo_is_fine(self):
        m = PersistencyModel()
        commit_one_store(m)
        m.writeback(0x100, 7)
        assert m.redo_skipped(0, 0, 0x100) == []

    def test_skip_of_valid_redo_is_lost_redo(self):
        m = PersistencyModel()
        commit_one_store(m)
        out = m.redo_skipped(0, 0, 0x100)
        assert kinds(out) == [LOST_REDO]

    def test_prevention_off_permits_stale_drain(self):
        m = PersistencyModel(stale_read_prevention=False)
        commit_one_store(m)
        m.writeback(0x100, 7)
        assert m.redo_drained(0, 0, 0x100, 7) == []


class TestBoundaryDrain:
    def _committed(self, ckpt=None):
        m = PersistencyModel()
        if ckpt:
            m.machine_ckpt(0, ckpt[0], ckpt[1])
        commit_one_store(m)
        m.redo_drained(0, 0, 0x100, 7)
        return m

    def test_missing_pc_checkpoint(self):
        m = self._committed()
        out = m.boundary_drained(0, 0, 1, CONT, {}, False)
        assert kinds(out) == [STALE_BOUNDARY_PC]

    def test_wrong_continuation(self):
        m = self._committed()
        out = m.boundary_drained(0, 0, 1, "elsewhere", {}, True)
        assert kinds(out) == [STALE_BOUNDARY_PC]

    def test_unflushed_ckpt_slot(self):
        m = self._committed(ckpt=(0x9000, 42))
        out = m.boundary_drained(0, 0, 1, CONT, {}, True)
        assert kinds(out) == [UNCOVERED_CKPT_SLOT]

    def test_flushed_ckpt_slot_ok(self):
        m = self._committed(ckpt=(0x9000, 42))
        out = m.boundary_drained(0, 0, 1, CONT, {0x9000: 42}, True)
        assert out == []

    def test_uncommitted_boundary_is_phantom(self):
        m = PersistencyModel()
        out = m.boundary_drained(0, 0, 1, CONT, {}, True)
        assert PHANTOM_PERSIST in kinds(out)


class TestReferenceRecovery:
    def test_committed_redo_and_uncommitted_undo(self):
        m = PersistencyModel()
        commit_one_store(m, addr=0x100, old=0, new=7)
        # An uncommitted (open-region) store on top.
        m.machine_store(0, 0x200, 9, 5)
        m.entry_created(0, 1, 0x200, 5, 9)
        image = m.reference_recovery({0x100: 0, 0x200: 9})
        assert image[0x100] == 7  # committed redo applied
        assert image[0x200] == 5  # uncommitted store rolled back

    def test_expected_value_falls_back_to_baseline(self):
        m = PersistencyModel()
        m.machine_store(0, 0x300, 1, 17)  # never committed
        assert m.allowed_values(0x300) == {17}
        assert m.allowed_values(0x300, include_rollback=False) == {17}

    def test_reopened_single_writer_word_stays_singleton(self):
        # One writer: store, commit, reopen — every step names exactly
        # the one value recovery must produce.
        m = PersistencyModel()
        steps = [
            (lambda: m.machine_store(0, 0x500, 5, 0), {0}, {0}),
            (lambda: m.machine_boundary(0, 1, CONT), {5}, {5}),
            (lambda: m.machine_store(0, 0x500, 9, 5), {5}, {5}),
            (lambda: m.machine_store(0, 0x500, 11, 9), {5}, {5}),
            (lambda: m.machine_boundary(0, 2, CONT), {11}, {11}),
        ]
        for step, want, committed_only in steps:
            step()
            assert m.allowed_values(0x500) == want
            assert m.allowed_values(0x500, include_rollback=False) == committed_only

    def test_multi_writer_excluded_from_value_checks(self):
        m = PersistencyModel()
        m.machine_store(0, 0x400, 1, 0)
        m.machine_store(1, 0x400, 2, 1)
        assert m.writers[0x400] == MULTI_WRITER
        assert 0x400 not in m.single_writer_addrs()

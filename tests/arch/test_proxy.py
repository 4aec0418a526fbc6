"""Tests for the proxy-buffer pipeline: two-phase stores, merging,
boundary gating, in-order region persistence, back-pressure."""

import pytest

from repro.arch.nvm import NVMain
from repro.arch.params import PersistMode, SimParams
from repro.arch.persistence import PersistenceEngine
from repro.arch.proxy import CoreProxyPipeline, ProxyOverflowError


def make_pipe(threshold=16, **param_kw):
    params = SimParams.scaled().with_(**param_kw)
    nvm = NVMain(params)
    return CoreProxyPipeline(0, params, nvm, threshold), nvm


def record_ckpt(pipe, now, slot_addr, value):
    """A register-checkpoint store into ``pipe``, through the engine."""
    engine = PersistenceEngine(pipe.params, pipe.nvm, 1, pipe.be_cap)
    engine.pipelines[0] = pipe
    return engine.on_ckpt(0, now, slot_addr, value)


class TestPhase1:
    def test_store_creates_entry_with_undo_redo(self):
        pipe, _ = make_pipe()
        pipe.record_store(0.0, 0x100, value=7, old=3)
        entry = pipe.fe[0]
        assert entry.addr == 0x100
        assert entry.redo == 7
        assert entry.undo == 3
        assert entry.redo_valid

    def test_same_address_same_region_merges(self):
        pipe, _ = make_pipe()
        pipe.record_store(0.0, 0x100, value=7, old=3)
        pipe.record_store(0.0, 0x100, value=9, old=7)
        assert len(pipe.fe) == 1
        entry = pipe.fe[0]
        assert entry.redo == 9  # latest value
        assert entry.undo == 3  # value before the *first* store
        assert pipe.entries_merged == 1

    def test_no_merge_across_regions(self):
        pipe, _ = make_pipe()
        pipe.record_store(0.0, 0x100, value=7, old=3)
        pipe.record_boundary(0.0, region_id=1, continuation="c1")
        pipe.record_store(0.0, 0x100, value=9, old=7)
        data = [e for e in pipe.entries_in_order() if not e.is_boundary]
        assert len(data) == 2
        assert pipe.entries_merged == 0

    def test_different_addresses_distinct_entries(self):
        pipe, _ = make_pipe()
        pipe.record_store(0.0, 0x100, 1, 0)
        pipe.record_store(0.0, 0x108, 2, 0)
        assert pipe.entries_created == 2


class TestBoundaries:
    def test_boundary_emitted_with_stores(self):
        pipe, _ = make_pipe()
        pipe.record_store(0.0, 0x100, 1, 0)
        pipe.record_boundary(0.0, 5, "cont")
        assert pipe.boundary_entries == 1
        boundary = [e for e in pipe.entries_in_order() if e.is_boundary][0]
        assert boundary.region_id == 5
        assert boundary.continuation == "cont"

    def test_empty_region_boundary_skipped(self):
        """Section 5.2.1: no boundary entry for store-less regions."""
        pipe, _ = make_pipe()
        pipe.record_boundary(0.0, 5, "cont")
        assert pipe.boundary_entries == 0
        assert pipe.boundaries_skipped == 1

    def test_spawn_boundary_always_emitted(self):
        pipe, _ = make_pipe()
        pipe.record_boundary(0.0, -1, "spawn")
        assert pipe.boundary_entries == 1

    def test_ckpt_only_region_emits_boundary(self):
        pipe, _ = make_pipe()
        record_ckpt(pipe, 0.0, 0x4000_0000, 42)
        pipe.record_boundary(0.0, 3, "cont")
        assert pipe.boundary_entries == 1
        boundary = [e for e in pipe.entries_in_order() if e.is_boundary][0]
        assert boundary.ckpts == {0x4000_0000: 42}

    def test_staging_cleared_after_boundary(self):
        pipe, _ = make_pipe()
        record_ckpt(pipe, 0.0, 0x4000_0000, 42)
        pipe.record_boundary(0.0, 3, "cont")
        assert pipe.staging == {}

    def test_staging_merges_same_slot(self):
        pipe, _ = make_pipe()
        record_ckpt(pipe, 0.0, 0x4000_0000, 1)
        record_ckpt(pipe, 0.0, 0x4000_0000, 2)
        assert pipe.staging == {0x4000_0000: 2}


class TestPhase2:
    def test_no_drain_before_boundary(self):
        """Section 5.2.2: the back-end does not flush entries until it
        accepts the region boundary entry."""
        pipe, nvm = make_pipe()
        pipe.record_store(0.0, 0x100, 7, 3)
        pipe.advance(1e9)
        assert nvm.peek(0x100) == 0  # not drained
        assert len(pipe.be) == 1  # transferred but held

    def test_drain_after_boundary(self):
        pipe, nvm = make_pipe()
        pipe.record_store(0.0, 0x100, 7, 3)
        pipe.record_boundary(0.0, 1, "c")
        pipe.advance(1e9)
        assert nvm.peek(0x100) == 7
        assert not pipe.be and not pipe.fe
        assert nvm.writes_redo == 1

    def test_invalid_redo_skipped(self):
        pipe, nvm = make_pipe()
        pipe.record_store(0.0, 0x100, 7, 3)
        pipe.record_boundary(0.0, 1, "c")
        pipe.invalidate_matching(0x100)
        pipe.advance(1e9)
        assert nvm.peek(0x100) == 0
        assert nvm.writes_skipped == 1

    def test_regions_drain_in_order(self):
        pipe, nvm = make_pipe()
        order = []
        real_redo = nvm.redo_write

        def spy(now, addr, value):
            order.append(addr)
            return real_redo(now, addr, value)

        nvm.redo_write = spy
        pipe.record_store(0.0, 0x100, 1, 0)
        pipe.record_boundary(0.0, 1, "a")
        pipe.record_store(0.0, 0x200, 2, 0)
        pipe.record_boundary(0.0, 2, "b")
        pipe.advance(1e9)
        assert order == [0x100, 0x200]

    def test_boundary_drain_writes_pc_checkpoint(self):
        pipe, nvm = make_pipe()
        pipe.record_store(0.0, 0x100, 1, 0)
        pipe.record_boundary(0.0, 9, "cont9")
        pipe.advance(1e9)
        assert nvm.pc_checkpoints[0] == ("cont9", 9)

    def test_boundary_drain_flushes_staged_ckpts(self):
        pipe, nvm = make_pipe()
        record_ckpt(pipe, 0.0, 0x4000_0000, 42)
        pipe.record_boundary(0.0, 1, "c")
        pipe.advance(1e9)
        assert nvm.peek(0x4000_0000) == 42
        assert nvm.writes_ckpt == 1


class TestBackPressure:
    def test_fe_full_stalls_store(self):
        # Tiny FE; no boundary yet so BE cannot drain, but transfers still
        # proceed until BE fills.
        pipe, _ = make_pipe(threshold=8, frontend_entries=4)
        t = 0.0
        stalled = False
        for i in range(8):
            done = pipe.record_store(t, 0x100 + i * 8, i, 0)
            if done > t:
                stalled = True
            t = done
        assert pipe.fe_stall_cycles >= 0  # accounting exists
        # All 8 entries created despite fe_cap=4: transfers made space.
        assert pipe.entries_created == 8

    def test_region_overflow_detected(self):
        """A region bigger than FE+BE combined deadlocks the pipeline —
        the compiler contract prevents this; the architecture detects it."""
        pipe, _ = make_pipe(threshold=4, frontend_entries=4)
        with pytest.raises(ProxyOverflowError):
            for i in range(64):
                pipe.record_store(0.0, 0x1000 + i * 8, i, 0)

    def test_threshold_sized_region_fits(self):
        threshold = 16
        pipe, nvm = make_pipe(threshold=threshold, frontend_entries=4)
        for i in range(threshold):
            pipe.record_store(0.0, 0x1000 + i * 8, i, 0)
        pipe.record_boundary(0.0, 1, "c")
        pipe.advance(1e9)
        assert nvm.writes_redo == threshold


class TestSyncMode:
    def test_sync_boundary_waits_for_persistent_domain(self):
        pipe, nvm = make_pipe(persist_mode=PersistMode.SYNC)
        pipe.record_store(0.0, 0x100, 7, 3)
        done = pipe.record_boundary(0.0, 1, "c")
        # Stalled at least one proxy-path traversal: the whole region has
        # crossed into the memory controller's persistent domain.
        assert done >= pipe.params.proxy_path_cycles
        assert not pipe.fe  # everything left the front end
        assert pipe.sync_stall_cycles > 0

    def test_async_boundary_returns_immediately(self):
        pipe, nvm = make_pipe(persist_mode=PersistMode.ASYNC)
        pipe.record_store(0.0, 0x100, 7, 3)
        done = pipe.record_boundary(0.0, 1, "c")
        assert done == 0.0
        assert nvm.peek(0x100) == 0  # not yet durable


class TestCrashViewOrdering:
    def test_entries_in_order_be_before_fe(self):
        pipe, _ = make_pipe(frontend_entries=32)
        pipe.record_store(0.0, 0x100, 1, 0)
        pipe.advance(1e9)  # transfer to BE (no drain without boundary)
        pipe.record_store(1e9, 0x200, 2, 0)  # stays in FE (not advanced past)
        entries = pipe.entries_in_order()
        assert [e.addr for e in entries if not e.is_boundary] == [0x100, 0x200]

"""Tests for region formation (Section 4.1)."""

import pytest

from repro.compiler import CapriCompiler, OptConfig, form_regions
from repro.compiler.clone import clone_module
from repro.compiler.regions import (
    MIN_THRESHOLD,
    RegionFormationError,
    split_blocks,
)
from repro.ir import CFG, IRBuilder, natural_loops, verify_module
from repro.ir.instructions import (
    AtomicRMW,
    Call,
    Fence,
    RegionBoundary,
    Ret,
    Store,
)
from tests.compiler.conftest import build_loop_kernel, run_main


def instrument(module, threshold=64, ckpt=False):
    cfg = OptConfig.ckpt(threshold) if ckpt else OptConfig.region(threshold)
    return CapriCompiler(cfg).compile(module).module


def boundaries_in(func):
    return [
        (label, i)
        for label, block in func.blocks.items()
        for i, instr in enumerate(block.instrs)
        if isinstance(instr, RegionBoundary)
    ]


class TestMandatoryBoundaries:
    def test_function_entry_has_boundary(self):
        module, _ = build_loop_kernel()
        out = instrument(module)
        func = out.function("kernel")
        assert isinstance(func.entry.instrs[0], RegionBoundary)

    def test_loop_header_has_boundary(self):
        module, _ = build_loop_kernel()
        out = instrument(module)
        func = out.function("kernel")
        cfg = CFG(func)
        for loop in natural_loops(cfg):
            assert isinstance(func.blocks[loop.header].instrs[0], RegionBoundary)

    def test_call_preceded_by_boundary(self):
        module, _ = build_loop_kernel()
        out = instrument(module)
        func = out.function("main")
        for label, block in func.blocks.items():
            for i, instr in enumerate(block.instrs):
                if isinstance(instr, Call):
                    # Call must be right after its block-leading boundary.
                    assert isinstance(block.instrs[0], RegionBoundary)
                    assert i == 1

    def test_ret_preceded_by_boundary(self):
        module, _ = build_loop_kernel()
        out = instrument(module)
        func = out.function("kernel")
        for label, block in func.blocks.items():
            for i, instr in enumerate(block.instrs):
                if isinstance(instr, Ret):
                    assert isinstance(block.instrs[0], RegionBoundary)

    def test_fence_and_atomic_start_regions(self):
        b = IRBuilder("m")
        addr = b.module.alloc("x", 1)
        with b.function("main") as f:
            f.store(1, addr)
            f.fence()
            f.store(2, addr)
            f.atomic("add", addr, 1)
            f.store(3, addr)
            f.ret()
        verify_module(b.module)
        out = instrument(b.module)
        func = out.function("main")
        for label, block in func.blocks.items():
            for i, instr in enumerate(block.instrs):
                if isinstance(instr, (Fence, AtomicRMW)):
                    assert isinstance(block.instrs[0], RegionBoundary)
                    assert i == 1

    def test_region_ids_unique(self):
        module, _ = build_loop_kernel()
        out = instrument(module)
        for func in out.functions.values():
            ids = [
                instr.region_id
                for _, block in func.blocks.items()
                for instr in block.instrs
                if isinstance(instr, RegionBoundary)
            ]
            assert len(ids) == len(set(ids))


class TestThresholdContract:
    """The back-end proxy sizing contract: no region exceeds the threshold."""

    @pytest.mark.parametrize("threshold", [8, 32, 64, 256])
    def test_no_region_exceeds_threshold_statically(self, threshold):
        module, _ = build_loop_kernel(n=50)
        out = instrument(module, threshold=threshold, ckpt=True)
        for func in out.functions.values():
            for region in func.meta["regions"]:
                assert region.max_store_weight <= threshold

    def test_dynamic_store_runs_respect_threshold(self):
        """Count dynamic stores between consecutive boundary events."""
        from repro.isa import Machine, Observer

        threshold = 16
        module, _ = build_loop_kernel(n=40)
        out = instrument(module, threshold=threshold, ckpt=True)

        class MaxRun(Observer):
            def __init__(self):
                self.run = 0
                self.max_run = 0

            def on_store(self, core, addr, value, old):
                self.run += 1
                self.max_run = max(self.max_run, self.run)

            def on_ckpt(self, core, reg, value, addr):
                self.run += 1
                self.max_run = max(self.max_run, self.run)

            def on_atomic(self, core, addr, value, old):
                self.run += 1
                self.max_run = max(self.max_run, self.run)

            def on_boundary(self, core, region_id, continuation):
                self.run = 0

        obs = MaxRun()
        m = Machine(out)
        m.run_function("main", observer=obs)
        assert obs.max_run <= threshold

    def test_too_small_threshold_rejected(self):
        module, _ = build_loop_kernel()
        with pytest.raises(RegionFormationError):
            instrument(module, threshold=MIN_THRESHOLD - 1)

    def test_oversized_straightline_block_is_split(self):
        b = IRBuilder("m")
        addr = b.module.alloc("x", 200)
        with b.function("main") as f:
            for i in range(150):  # 150 stores in one basic block
                f.store(i, addr, offset=i * 8)
            f.ret()
        verify_module(b.module)
        out = instrument(b.module, threshold=32, ckpt=True)
        func = out.function("main")
        for region in func.meta["regions"]:
            assert region.max_store_weight <= 32
        # Semantics preserved.
        rv, data = run_main(out)
        assert data[addr + 149 * 8] == 149

    def test_larger_threshold_fewer_regions(self):
        module, _ = build_loop_kernel(n=50)
        small = instrument(module, threshold=8, ckpt=True)
        large = instrument(module, threshold=256, ckpt=True)
        n_small = sum(len(f.meta["regions"]) for f in small.functions.values())
        n_large = sum(len(f.meta["regions"]) for f in large.functions.values())
        assert n_large <= n_small


class TestSplitBlocks:
    def test_split_preserves_semantics(self):
        module, arr = build_loop_kernel(n=20)
        rv0, data0 = run_main(module)
        cloned = clone_module(module)
        for func in cloned.functions.values():
            split_blocks(func)
        verify_module(cloned)
        rv1, data1 = run_main(cloned)
        assert rv0 == rv1
        assert data0 == data1

    def test_split_marks_entry_mandatory(self):
        module, _ = build_loop_kernel()
        cloned = clone_module(module)
        func = cloned.function("kernel")
        mandatory = split_blocks(func)
        assert func.entry.label in mandatory


class TestSemanticsPreservation:
    def test_loop_kernel_result_unchanged(self, loop_kernel):
        module, arr = loop_kernel
        rv0, data0 = run_main(module)
        out = instrument(module, threshold=32, ckpt=True)
        rv1, data1 = run_main(out)
        assert rv0 == rv1
        assert data0 == data1

    @pytest.mark.parametrize("threshold", [8, 16, 64, 1024])
    def test_thresholds_do_not_change_results(self, threshold):
        module, _ = build_loop_kernel(n=30)
        rv0, data0 = run_main(module)
        out = instrument(module, threshold=threshold, ckpt=True)
        rv1, data1 = run_main(out)
        assert (rv0, data0) == (rv1, data1)

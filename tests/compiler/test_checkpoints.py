"""Tests for checkpoint insertion, pruning, and LICM (Sections 4.2/4.4)."""

import pytest

from repro.compiler import CapriCompiler, OptConfig
from repro.compiler.checkpoints import checkpoint_sites
from repro.ir import CFG, IRBuilder, natural_loops, verify_module
from repro.ir.instructions import CheckpointStore, RegionBoundary
from tests.compiler.conftest import build_branchy_kernel, build_loop_kernel, run_main


def compile_with(module, cfg):
    return CapriCompiler(cfg).compile(module)


class TestCheckpointInsertion:
    def test_checkpoints_follow_defs(self):
        module, _ = build_loop_kernel()
        out = compile_with(module, OptConfig.ckpt(64)).module
        for func in out.functions.values():
            for label, block in func.blocks.items():
                for i, instr in enumerate(block.instrs):
                    if isinstance(instr, CheckpointStore):
                        reg = instr.src.index
                        # A def of reg precedes in the same block.
                        defs_before = [
                            j
                            for j in range(i)
                            if any(d.index == reg for d in block.instrs[j].defs())
                        ]
                        assert defs_before, (
                            f"{func.name}/{label}[{i}] ckpt r{reg} has no "
                            "preceding def"
                        )

    def test_live_in_recorded_per_region(self):
        module, _ = build_loop_kernel()
        out = compile_with(module, OptConfig.ckpt(64)).module
        func = out.function("kernel")
        regions = func.meta["regions"]
        # At least the loop-header region carries live-ins.
        assert any(region.live_in for region in regions)

    def test_loop_carried_register_checkpointed_in_loop(self):
        """The loop counter is live at the header boundary => checkpointed
        once per iteration without further optimisation (Section 4.3's
        motivating overhead)."""
        from repro.isa import Machine, CountingObserver

        module, _ = build_loop_kernel(n=25)
        out = compile_with(module, OptConfig.ckpt(64)).module
        obs = CountingObserver()
        Machine(out).run_function("main", observer=obs)
        # >= one checkpoint per loop iteration
        assert obs.ckpts >= 25

    def test_semantics_preserved(self):
        module, _ = build_loop_kernel()
        rv0, d0 = run_main(module)
        out = compile_with(module, OptConfig.ckpt(32)).module
        rv1, d1 = run_main(out)
        assert (rv0, d0) == (rv1, d1)

    def test_requires_region_formation_first(self):
        from repro.compiler import insert_checkpoints

        module, _ = build_loop_kernel()
        func = module.function("kernel")
        with pytest.raises(ValueError, match="form_regions"):
            insert_checkpoints(func)


class TestUnrolling:
    def test_unroll_reduces_boundary_executions(self):
        from repro.isa import Machine, CountingObserver

        module, _ = build_loop_kernel(n=60)
        base = compile_with(module, OptConfig.ckpt(256)).module
        unrolled = compile_with(module, OptConfig.unrolling(256)).module
        obs_b, obs_u = CountingObserver(), CountingObserver()
        Machine(base).run_function("main", observer=obs_b)
        Machine(unrolled).run_function("main", observer=obs_u)
        assert obs_u.boundaries < obs_b.boundaries

    def test_unroll_reduces_checkpoints(self):
        from repro.isa import Machine, CountingObserver

        module, _ = build_loop_kernel(n=60)
        base = compile_with(module, OptConfig.ckpt(256)).module
        unrolled = compile_with(module, OptConfig.unrolling(256)).module
        obs_b, obs_u = CountingObserver(), CountingObserver()
        Machine(base).run_function("main", observer=obs_b)
        Machine(unrolled).run_function("main", observer=obs_u)
        assert obs_u.ckpts < obs_b.ckpts

    def test_unroll_preserves_semantics_dynamic_trip_counts(self):
        # Trip count is a runtime parameter: exactly the case traditional
        # unrolling cannot handle (Figure 2b) but speculative unrolling can.
        for n in [0, 1, 2, 3, 7, 8, 9, 63]:
            module, _ = build_loop_kernel(n=n)
            rv0, d0 = run_main(module)
            out = compile_with(module, OptConfig.unrolling(256)).module
            rv1, d1 = run_main(out)
            assert (rv0, d0) == (rv1, d1), f"n={n}"

    def test_unrolled_loop_body_duplicated(self):
        from repro.compiler import speculative_unroll
        from repro.compiler.clone import clone_module

        module, _ = build_loop_kernel(n=60)
        cloned = clone_module(module)
        func = cloned.function("kernel")
        before = func.num_instrs
        unrolled = speculative_unroll(func, threshold=256, max_unroll=4)
        assert unrolled == 1
        assert func.num_instrs > before * 2
        verify_module(cloned)

    def test_loops_with_calls_not_unrolled(self):
        b = IRBuilder("m")
        with b.function("leaf", params=["x"]) as f:
            f.ret(f.add(f.param(0), 1))
        with b.function("main", params=["n"]) as f:
            acc = f.li(0)
            with f.for_range(f.param(0)):
                acc = f.call("leaf", [acc], returns=True)
            f.ret(acc)
        verify_module(b.module)
        res = compile_with(b.module, OptConfig.unrolling(256))
        assert res.function_stats["main"].get("loops_unrolled", 0) == 0

    def test_max_unroll_respected(self):
        from repro.compiler.unrolling import choose_unroll_factor
        from repro.compiler.clone import clone_module

        module, _ = build_loop_kernel(n=60)
        cloned = clone_module(module)
        func = cloned.function("kernel")
        loop = natural_loops(CFG(func))[0]
        k = choose_unroll_factor(func, loop, threshold=10_000, max_unroll=6)
        assert k == 6


class TestPruning:
    def test_reconstructible_checkpoint_pruned(self, branchy_kernel):
        res_no = compile_with(branchy_kernel, OptConfig.pruning(64))
        assert res_no.total.get("checkpoints_pruned", 0) >= 1

    def test_recovery_blocks_generated(self, branchy_kernel):
        out = compile_with(branchy_kernel, OptConfig.pruning(64)).module
        func = out.function("main")
        assert func.recovery_blocks  # at least one region has recovery code

    def test_recovery_block_is_pure(self, branchy_kernel):
        from repro.ir.instructions import BinOp, Move, UnOp

        out = compile_with(branchy_kernel, OptConfig.pruning(64)).module
        func = out.function("main")
        for blocks in func.recovery_blocks.values():
            for rb in blocks:
                for instr in rb.instrs:
                    assert isinstance(instr, (BinOp, Move, UnOp))

    def test_pruning_preserves_semantics(self, branchy_kernel):
        rv0, d0 = run_main(branchy_kernel, [7])
        out = compile_with(branchy_kernel, OptConfig.pruning(64)).module
        rv1, d1 = run_main(out, [7])
        assert (rv0, d0) == (rv1, d1)

    def test_pruning_never_increases_checkpoints(self):
        from repro.isa import Machine, CountingObserver

        module = build_branchy_kernel()
        base = compile_with(module, OptConfig.unrolling(64)).module
        pruned = compile_with(module, OptConfig.pruning(64)).module
        obs_b, obs_p = CountingObserver(), CountingObserver()
        Machine(base).run_function("main", [7], observer=obs_b)
        Machine(pruned).run_function("main", [7], observer=obs_p)
        assert obs_p.ckpts <= obs_b.ckpts


class TestLICM:
    def _motion_module(self):
        """Value defined per-iteration but consumed only after the loop:
        the Figure 4 pattern."""
        b = IRBuilder("licm")
        arr = b.module.alloc("arr", 64, init=list(range(64)))
        out = b.module.alloc("out", 64)
        with b.function("main", params=["n"]) as f:
            last = f.li(0)
            with f.for_range(f.param(0)) as i:
                addr = f.add(arr, f.shl(f.and_(i, 63), 3))
                f.move(last, f.load(addr))  # redefined every iteration
                f.store(i, f.add(out, f.shl(f.and_(i, 63), 3)))
            # `last` only used after the loop.
            f.store(last, out, offset=63 * 8)
            f.ret(last)
        verify_module(b.module)
        return b.module

    def test_licm_reduces_dynamic_checkpoints(self):
        from repro.isa import Machine, CountingObserver

        module = self._motion_module()
        no_licm = compile_with(module, OptConfig.pruning(256)).module
        licm = compile_with(module, OptConfig.licm(256)).module
        obs_n, obs_l = CountingObserver(), CountingObserver()
        Machine(no_licm).run_function("main", [50], observer=obs_n)
        Machine(licm).run_function("main", [50], observer=obs_l)
        assert obs_l.ckpts < obs_n.ckpts

    def test_licm_preserves_semantics(self):
        module = self._motion_module()
        for n in [0, 1, 13, 50]:
            rv0, d0 = run_main(module, [n])
            out = compile_with(module, OptConfig.licm(256)).module
            rv1, d1 = run_main(out, [n])
            assert (rv0, d0) == (rv1, d1), f"n={n}"

    def test_dedupe_in_block(self):
        from repro.compiler.licm import _dedupe_block
        from repro.ir.function import Function
        from repro.ir.instructions import Move, Ret
        from repro.ir.values import Imm, Reg

        func = Function("f", num_regs=2)
        blk = func.new_block("entry")
        blk.append(Move(Reg(0), Imm(1)))
        blk.append(CheckpointStore(Reg(0)))
        blk.append(CheckpointStore(Reg(0)))  # duplicate, no redef between
        blk.append(Ret())
        removed = _dedupe_block(blk)
        assert removed == 1
        ckpts = [i for i in blk.instrs if isinstance(i, CheckpointStore)]
        assert len(ckpts) == 1

    def test_dedupe_keeps_ckpts_across_redefs(self):
        from repro.compiler.licm import _dedupe_block
        from repro.ir.function import Function
        from repro.ir.instructions import Move, Ret
        from repro.ir.values import Imm, Reg

        func = Function("f", num_regs=2)
        blk = func.new_block("entry")
        blk.append(Move(Reg(0), Imm(1)))
        blk.append(CheckpointStore(Reg(0)))
        blk.append(Move(Reg(0), Imm(2)))  # redefinition
        blk.append(CheckpointStore(Reg(0)))
        blk.append(Ret())
        removed = _dedupe_block(blk)
        assert removed == 0

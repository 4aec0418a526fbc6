"""Tests for the static Capri-invariant verifier.

Positive: every compiled configuration of every workload passes.
Negative: hand-sabotaged instrumentation is caught — deleted checkpoints,
oversized regions, impure recovery blocks.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.compiler import CapriCompiler, OptConfig
from repro.compiler.verify_capri import (
    CapriInvariantError,
    check_checkpoint_coverage,
    check_recovery_blocks,
    check_region_budget,
    verify_capri_function,
    verify_capri_module,
)
from repro.ir import IRBuilder, verify_module
from repro.ir.function import RecoveryBlock
from repro.ir.instructions import CheckpointStore, Load, Move, Store
from repro.ir.values import Imm, Reg

from tests.compiler.conftest import build_loop_kernel, random_program


def compile_kernel(threshold=32, config=None):
    module, _ = build_loop_kernel(n=30)
    cfg = config or OptConfig.licm(threshold)
    return CapriCompiler(cfg).compile(module).module


class TestPositive:
    # The budget bounds every path between boundaries, so at 32 it also
    # bounds every region the kernel executes.
    @pytest.mark.parametrize("threshold", [16, 32, 64, 256])
    def test_loop_kernel_all_thresholds(self, threshold):
        out = compile_kernel(threshold)
        verify_capri_module(out, threshold)

    @pytest.mark.parametrize(
        "config_name", ["+ckpt", "+unrolling", "+pruning", "+licm"]
    )
    def test_every_ladder_config(self, config_name):
        cfg = OptConfig.ladder(32)[config_name]
        out = compile_kernel(config=cfg)
        verify_capri_module(out, 32)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_programs(self, seed):
        module, _ = random_program(seed)
        out = CapriCompiler(OptConfig.licm(16)).compile(module).module
        verify_capri_module(out, 16)

    def test_inlined_config(self):
        from repro.workloads import get_workload

        module, _ = get_workload("oskernel").build(0.2)
        out = CapriCompiler(OptConfig.inlined(64)).compile(module).module
        verify_capri_module(out, 64)


def find_checkpoint(func):
    for label, block in func.blocks.items():
        for i, instr in enumerate(block.instrs):
            if isinstance(instr, CheckpointStore):
                return label, i
    return None


class TestNegative:
    def test_deleted_checkpoint_detected(self):
        out = compile_kernel(32, OptConfig.ckpt(32))
        func = out.function("kernel")
        site = find_checkpoint(func)
        assert site, "kernel has no checkpoints to sabotage"
        label, i = site
        del func.blocks[label].instrs[i]
        with pytest.raises(CapriInvariantError, match="no checkpoint"):
            check_checkpoint_coverage(func)

    def test_oversized_region_detected(self):
        out = compile_kernel(32)
        func = out.function("kernel")
        # Inject a burst of stores right after some boundary.
        from repro.ir.instructions import RegionBoundary

        for label, block in func.blocks.items():
            if block.instrs and isinstance(block.instrs[0], RegionBoundary):
                for k in range(40):
                    block.instrs.insert(
                        1, Store(Imm(k), Imm(0x9000), offset=k * 8)
                    )
                break
        with pytest.raises(CapriInvariantError, match="stores"):
            check_region_budget(func, 32)

    def test_impure_recovery_block_detected(self):
        out = compile_kernel(32)
        func = out.function("kernel")
        regions = func.meta["regions"]
        func.recovery_blocks[regions[0].region_id] = [
            RecoveryBlock(1, [Load(Reg(1), Imm(0x1000), 0)])
        ]
        with pytest.raises(CapriInvariantError, match="impure"):
            check_recovery_blocks(func)

    def test_recovery_block_missing_target_detected(self):
        out = compile_kernel(32)
        func = out.function("kernel")
        regions = func.meta["regions"]
        func.recovery_blocks[regions[0].region_id] = [
            RecoveryBlock(1, [Move(Reg(2), Imm(5))])  # defines r2, not r1
        ]
        with pytest.raises(CapriInvariantError, match="never"):
            check_recovery_blocks(func)

    def test_uncompiled_function_rejected(self):
        b = IRBuilder("m")
        with b.function("f") as f:
            f.ret()
        with pytest.raises(CapriInvariantError, match="region metadata"):
            check_checkpoint_coverage(b.module.function("f"))

    def test_missing_boundary_cycle_detected(self):
        """Strip a loop header's boundary: the budget check must see the
        unbounded cycle."""
        from repro.ir.instructions import RegionBoundary
        from repro.ir import CFG, natural_loops

        out = compile_kernel(32)
        func = out.function("kernel")
        loops = natural_loops(CFG(func))
        header = loops[0].header
        block = func.blocks[header]
        assert isinstance(block.instrs[0], RegionBoundary)
        del block.instrs[0]
        with pytest.raises(CapriInvariantError, match="cycle"):
            check_region_budget(func, 32)


#: Builds a function whose register x has four defs (entry and three
#: if-arms) all reaching a loop header where x is live, compiles it,
#: strips every checkpoint, and prints the coverage violation.
_UNCOVERED_DEFS = """
from repro.compiler import CapriCompiler, OptConfig
from repro.compiler.verify_capri import CapriInvariantError, check_checkpoint_coverage
from repro.ir import IRBuilder
from repro.ir.instructions import CheckpointStore

b = IRBuilder("m")
with b.function("f", params=["n"]) as f:
    x = f.li(0)
    for k in range(3):
        with f.if_then(f.param(0)):
            f.li(k + 1, dst=x)
    with f.for_range(f.param(0)) as i:
        f.store(x, i)
    f.ret()
func = CapriCompiler(OptConfig.ckpt(32)).compile(b.module).module.function("f")
for block in func.blocks.values():
    block.instrs[:] = [
        ins for ins in block.instrs if not isinstance(ins, CheckpointStore)
    ]
try:
    check_checkpoint_coverage(func)
except CapriInvariantError as exc:
    print(exc)
"""


class TestDeterministicReport:
    def test_same_violation_under_every_hash_seed(self):
        """Several defs are uncovered; the one reported is the first in
        (RPO, instruction) order, not whichever a set yields first."""
        src = str(Path(repro.__file__).resolve().parents[1])
        messages = set()
        for seed in ("1", "2", "3"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-c", _UNCOVERED_DEFS],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            messages.add(proc.stdout.strip())
        assert len(messages) == 1, messages
        (message,) = messages
        assert "def of r1 at entry[1]" in message, message


class TestPipelineIntegration:
    def test_compiler_validate_flag(self):
        module, _ = build_loop_kernel(n=20)
        result = CapriCompiler(OptConfig.licm(32)).compile(module, validate=True)
        assert result.module is not None

    def test_validate_skipped_for_volatile(self):
        module, _ = build_loop_kernel(n=20)
        CapriCompiler(OptConfig.volatile()).compile(module, validate=True)

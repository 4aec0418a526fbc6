"""Tests for the IR structural verifier and the pretty-printer."""

import pytest

from repro.ir import (
    IRBuilder,
    VerificationError,
    format_function,
    format_module,
    verify_function,
    verify_module,
)
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import BinOp, Jump, Move, Nop, Ret
from repro.ir.module import MAX_REGS, Module, ckpt_slot_addr, is_ckpt_addr, CKPT_BASE
from repro.ir.values import Imm, Reg


class TestVerifier:
    def test_valid_function_passes(self):
        b = IRBuilder("m")
        with b.function("f", params=["a"]) as f:
            f.ret(f.param(0))
        verify_module(b.module)

    def test_no_blocks_rejected(self):
        f = Function("empty")
        with pytest.raises(VerificationError, match="no blocks"):
            verify_function(f)

    def test_empty_block_rejected(self):
        f = Function("f")
        f.new_block("entry")
        with pytest.raises(VerificationError, match="empty block"):
            verify_function(f)

    def test_missing_terminator_rejected(self):
        f = Function("f", num_regs=2)
        f.new_block("entry").append(Move(Reg(0), Imm(1)))
        with pytest.raises(VerificationError, match="terminator"):
            verify_function(f)

    def test_mid_block_terminator_rejected(self):
        f = Function("f", num_regs=1)
        blk = f.new_block("entry")
        blk.append(Ret())
        blk.append(Nop())
        blk.append(Ret())
        with pytest.raises(VerificationError, match="mid-block"):
            verify_function(f)

    def test_unknown_label_rejected(self):
        f = Function("f", num_regs=1)
        f.new_block("entry").append(Jump("ghost"))
        with pytest.raises(VerificationError, match="unknown label"):
            verify_function(f)

    def test_register_out_of_range_rejected(self):
        f = Function("f", num_regs=1)
        blk = f.new_block("entry")
        blk.append(BinOp("add", Reg(5), Imm(1), Imm(2)))
        blk.append(Ret())
        with pytest.raises(VerificationError, match="out of range"):
            verify_function(f)

    def test_non_register_operand_rejected(self):
        f = Function("f", num_regs=1)
        blk = f.new_block("entry")
        blk.append(Move(Imm(3), Imm(1)))  # an immediate as the destination
        blk.append(Ret())
        with pytest.raises(VerificationError) as err:
            verify_function(f)
        assert str(err.value) == "f/entry[0]: non-register in defs/uses"

    def test_out_of_range_def_rejected(self):
        f = Function("f", num_regs=2)
        blk = f.new_block("entry")
        blk.append(Move(Reg(0), Imm(1)))
        blk.append(BinOp("add", Reg(2), Reg(0), Reg(1)))
        blk.append(Ret())
        with pytest.raises(VerificationError) as err:
            verify_function(f)
        assert str(err.value) == "f/entry[1]: r2 out of range (num_regs=2)"

    def test_out_of_range_use_rejected(self):
        f = Function("f", num_regs=2)
        blk = f.new_block("entry")
        blk.append(BinOp("add", Reg(1), Reg(0), Imm(1)))
        blk.append(Ret(Reg(7)))
        with pytest.raises(VerificationError) as err:
            verify_function(f)
        assert str(err.value) == "f/entry[1]: r7 out of range (num_regs=2)"

    def test_too_many_registers_rejected(self):
        f = Function("f", num_regs=MAX_REGS + 1)
        f.new_block("entry").append(Ret())
        with pytest.raises(VerificationError, match="checkpoint"):
            verify_function(f)

    def test_unknown_callee_rejected(self):
        b = IRBuilder("m")
        with b.function("f") as f:
            f.call("ghost")
            f.ret()
        with pytest.raises(VerificationError, match="unknown function"):
            verify_module(b.module)


class TestCheckpointLayout:
    def test_slot_addresses_distinct_per_register(self):
        addrs = {ckpt_slot_addr(0, i) for i in range(32)}
        assert len(addrs) == 32

    def test_slot_addresses_distinct_per_core(self):
        assert ckpt_slot_addr(0, 0) != ckpt_slot_addr(1, 0)

    def test_slot_addresses_distinct_per_depth(self):
        assert ckpt_slot_addr(0, 0, depth=0) != ckpt_slot_addr(0, 0, depth=1)

    def test_depth_out_of_range_rejected(self):
        from repro.ir.module import MAX_CALL_DEPTH

        with pytest.raises(ValueError):
            ckpt_slot_addr(0, 0, depth=MAX_CALL_DEPTH)

    def test_slot_zero_is_base(self):
        assert ckpt_slot_addr(0, 0) == CKPT_BASE

    def test_out_of_range_register_rejected(self):
        with pytest.raises(ValueError):
            ckpt_slot_addr(0, MAX_REGS)

    def test_out_of_range_core_rejected(self):
        """A core without reserved storage must not alias program data:
        core 64 would start at ``CKPT_END``, core -1 below ``CKPT_BASE``."""
        from repro.ir.module import MAX_CORES

        assert is_ckpt_addr(ckpt_slot_addr(MAX_CORES - 1, 0))
        for core in (MAX_CORES, -1):
            with pytest.raises(ValueError, match="core"):
                ckpt_slot_addr(core, 3)

    def test_is_ckpt_addr(self):
        assert is_ckpt_addr(CKPT_BASE)
        assert is_ckpt_addr(ckpt_slot_addr(3, 7))
        assert not is_ckpt_addr(0x10000)


class TestPrinter:
    def test_format_function_contains_blocks_and_instrs(self):
        b = IRBuilder("m")
        with b.function("f", params=["a"]) as f:
            x = f.add(f.param(0), 1)
            f.ret(x)
        text = format_function(b.module.function("f"))
        assert "func f" in text
        assert "entry:" in text
        assert "add" in text

    def test_format_module_lists_symbols(self):
        b = IRBuilder("mod")
        b.module.alloc("table", 8)
        with b.function("f") as f:
            f.ret()
        text = format_module(b.module)
        assert "table" in text
        assert "func f" in text

"""Tests for the fluent IR builder and its structured control flow."""

import pytest

from repro.ir import (
    CFG,
    IRBuilder,
    Jump,
    Branch,
    Ret,
    natural_loops,
    verify_module,
)
from repro.ir.builder import FunctionBuilder
from repro.ir.module import Module
from repro.ir.values import WORD_MAX, WORD_MIN, Reg


def build(name="m"):
    return IRBuilder(name)


class TestRegistersAndParams:
    def test_params_are_low_registers(self):
        b = build()
        with b.function("f", params=["a", "b"]) as f:
            assert f.param(0) == Reg(0)
            assert f.param(1) == Reg(1)
            f.ret()
        assert b.module.function("f").num_params == 2

    def test_param_out_of_range(self):
        b = build()
        with b.function("f", params=["a"]) as f:
            with pytest.raises(IndexError):
                f.param(1)
            f.ret()

    def test_fresh_registers_increment(self):
        b = build()
        with b.function("f") as f:
            r1 = f.reg()
            r2 = f.reg()
            assert r2.index == r1.index + 1
            f.ret()

    def test_num_regs_tracks_allocation(self):
        b = build()
        with b.function("f", params=["a"]) as f:
            f.reg()
            f.reg()
            f.ret()
        assert b.module.function("f").num_regs == 3


class TestBlocks:
    def test_entry_block_exists(self):
        b = build()
        with b.function("f") as f:
            f.ret()
        assert b.module.function("f").entry.label == "entry"

    def test_fallthrough_jump_inserted(self):
        b = build()
        with b.function("f") as f:
            f.li(1)
            f.start_block("next")
            f.ret()
        func = b.module.function("f")
        assert isinstance(func.blocks["entry"].terminator, Jump)
        assert func.blocks["entry"].terminator.target == "next"

    def test_finish_seals_open_block_with_ret(self):
        b = build()
        with b.function("f") as f:
            f.li(1)
        assert isinstance(b.module.function("f").entry.terminator, Ret)

    def test_emit_after_terminator_fails(self):
        b = build()
        with b.function("f") as f:
            f.ret()
            with pytest.raises(RuntimeError):
                f.li(1)
            f.start_block("unreachable")
            f.ret()

    def test_labels_unique(self):
        b = build()
        with b.function("f") as f:
            labels = {f.label("x") for _ in range(100)}
            assert len(labels) == 100
            f.ret()


class TestStructuredControlFlow:
    def test_for_range_builds_one_loop(self):
        b = build()
        with b.function("f", params=["n"]) as f:
            with f.for_range(f.param(0)):
                f.li(1)
            f.ret()
        verify_module(b.module)
        func = b.module.function("f")
        loops = natural_loops(CFG(func))
        assert len(loops) == 1

    def test_nested_for_range(self):
        b = build()
        with b.function("f", params=["n"]) as f:
            with f.for_range(f.param(0)):
                with f.for_range(f.param(0)):
                    f.li(1)
            f.ret()
        verify_module(b.module)
        loops = natural_loops(CFG(b.module.function("f")))
        assert len(loops) == 2
        depths = sorted(l.depth for l in loops)
        assert depths == [1, 2]

    def test_for_range_negative_step(self):
        b = build()
        with b.function("f", params=["n"]) as f:
            with f.for_range(0, start=f.param(0), step=-1):
                pass
            f.ret()
        verify_module(b.module)

    def test_for_range_zero_step_rejected(self):
        b = build()
        with b.function("f") as f:
            with pytest.raises(ValueError):
                with f.for_range(10, step=0):
                    pass
            if not f.terminated:
                f.ret()
        # module may be inconsistent after the failed context; don't verify

    def test_while_loop(self):
        b = build()
        with b.function("f", params=["n"]) as f:
            i = f.li(0)
            with f.while_loop(lambda: f.cmp("slt", i, f.param(0))):
                f.add(i, 1, dst=i)
            f.ret(i)
        verify_module(b.module)
        assert len(natural_loops(CFG(b.module.function("f")))) == 1

    def test_if_then(self):
        b = build()
        with b.function("f", params=["x"]) as f:
            r = f.li(0)
            with f.if_then(f.cmp("sgt", f.param(0), 5)):
                f.move(r, 1)
            f.ret(r)
        verify_module(b.module)

    def test_if_else(self):
        b = build()
        with b.function("f", params=["x"]) as f:
            r = f.reg()
            with f.if_else(f.cmp("sgt", f.param(0), 5)) as h:
                f.move(r, 1)
                h.otherwise()
                f.move(r, 2)
            f.ret(r)
        verify_module(b.module)
        func = b.module.function("f")
        # then/else/end plus entry
        assert len(func.blocks) == 4

    def test_if_else_without_otherwise(self):
        b = build()
        with b.function("f", params=["x"]) as f:
            r = f.li(0)
            with f.if_else(f.cmp("sgt", f.param(0), 5)):
                f.move(r, 1)
            f.ret(r)
        verify_module(b.module)

    def test_otherwise_twice_fails(self):
        b = build()
        with b.function("f", params=["x"]) as f:
            with f.if_else(f.cmp("sgt", f.param(0), 5)) as h:
                h.otherwise()
                with pytest.raises(RuntimeError):
                    h.otherwise()
            f.ret()

    def test_break_via_exit_label(self):
        b = build()
        with b.function("f", params=["n"]) as f:
            i = f.li(0)
            with f.while_loop(lambda: f.li(1)) as exit_label:
                f.add(i, 1, dst=i)
                with f.if_then(f.cmp("sge", i, f.param(0))):
                    f.jump(exit_label)
            f.ret(i)
        verify_module(b.module)


class TestModuleData:
    def test_alloc_returns_aligned_addresses(self):
        m = Module()
        a = m.alloc("a", 3)
        c = m.alloc("c", 1)
        assert a % 64 == 0
        assert c % 64 == 0
        assert c > a

    def test_alloc_with_init(self):
        m = Module()
        base = m.alloc("a", 4, init=[10, 20])
        assert m.initial_data[base] == 10
        assert m.initial_data[base + 8] == 20

    def test_duplicate_symbol_rejected(self):
        m = Module()
        m.alloc("a", 1)
        with pytest.raises(ValueError):
            m.alloc("a", 1)

    def test_oversized_init_rejected(self):
        m = Module()
        with pytest.raises(ValueError):
            m.alloc("a", 1, init=[1, 2])

    def test_zero_words_rejected(self):
        m = Module()
        with pytest.raises(ValueError):
            m.alloc("a", 0)

    @pytest.mark.parametrize("value", [WORD_MAX + 1, WORD_MIN - 1, 1 << 70])
    def test_init_outside_word_range_rejected(self, value):
        m = Module()
        with pytest.raises(ValueError, match=r"'table' at index 2 is "):
            m.alloc("table", 4, init=[0, 1, value])
        # Nothing was allocated: the symbol is free and no word was set.
        assert m.symbols == {} and m.initial_data == {}
        base = m.alloc("table", 4, init=[WORD_MIN, WORD_MAX])
        assert m.initial_data == {base: WORD_MIN, base + 8: WORD_MAX}

    def test_duplicate_function_rejected(self):
        b = build()
        with b.function("f") as f:
            f.ret()
        with pytest.raises(ValueError):
            with b.function("f") as f:
                f.ret()

    def test_call_arity_checked_by_verifier(self):
        from repro.ir import VerificationError

        b = build()
        with b.function("callee", params=["a", "b"]) as f:
            f.ret()
        with b.function("caller") as f:
            f.call("callee", [1])  # wrong arity
            f.ret()
        with pytest.raises(VerificationError):
            verify_module(b.module)

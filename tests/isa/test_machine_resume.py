"""Tests for Machine.resume — the recovery protocol's re-entry point."""

import pytest

from repro.ir import IRBuilder, verify_module
from repro.isa import Machine
from repro.isa.machine import Continuation, MachineError


def build_counter():
    b = IRBuilder("m")
    out = b.module.alloc("out", 4)
    with b.function("helper", params=["x"]) as f:
        f.store(f.param(0), out, offset=8)
        f.ret(f.mul(f.param(0), 2))
    with b.function("main", params=["n"]) as f:
        acc = f.li(0)
        with f.for_range(f.param(0)) as i:
            f.add(acc, i, dst=acc)
        r = f.call("helper", [acc], returns=True)
        f.store(r, out)
        f.ret(r)
    verify_module(b.module)
    return b.module, out


class TestResume:
    def test_resume_mid_function(self):
        module, out = build_counter()
        # Resume at the loop header with i=7, acc=21, n=10: finishes the
        # remaining iterations then calls helper.
        func = module.functions["main"]
        header = [l for l in func.blocks if "for.header" in l][0]
        machine = Machine(module)
        cont = Continuation("main", header, 0, ())
        # regs: n=10, acc(r1)=21, i(r2)=7 — mirror builder allocation order.
        regs = [10, 21, 7] + [0] * (func.num_regs - 3)
        machine.resume(0, cont, regs)
        machine.run()
        expected = (21 + sum(range(7, 10))) * 2
        assert machine.read_word(out) == expected

    def test_resume_inside_callee_with_caller_frame(self):
        module, out = build_counter()
        helper = module.functions["helper"]
        main = module.functions["main"]
        # Fabricate the frame: caller suspended right after its call
        # (which sits somewhere in main); find the call instruction.
        from repro.ir.instructions import Call

        call_site = None
        for label, block in main.blocks.items():
            for i, instr in enumerate(block.instrs):
                if isinstance(instr, Call):
                    call_site = (label, i, instr.dst.index)
        assert call_site
        label, index, dst = call_site
        frame = ("main", label, index + 1, tuple([0] * main.num_regs), dst)
        cont = Continuation("helper", helper.entry.label, 0, (frame,))
        machine = Machine(module)
        machine.resume(0, cont, [21] + [0] * (helper.num_regs - 1))
        machine.run()
        assert machine.read_word(out) == 42
        assert machine.read_word(out + 8) == 21

    def test_resume_pads_missing_registers(self):
        module, _ = build_counter()
        func = module.functions["main"]
        cont = Continuation("main", func.entry.label, 0, ())
        machine = Machine(module)
        hart = machine.resume(0, cont, [5])  # only r0 supplied
        assert len(hart.regs) == func.num_regs
        machine.run()  # runs main(5) to completion

    def test_resume_wraps_out_of_range_registers(self):
        from repro.ir.values import WORD_MAX, WORD_MIN, wrap_word

        module, _ = build_counter()
        func = module.functions["main"]
        cont = Continuation("main", func.entry.label, 0, ())
        regs = [WORD_MAX + 1, WORD_MIN - 1, (1 << 70) + 12345, -(1 << 69) - 7]
        regs += [WORD_MAX, WORD_MIN, -1, 0][: func.num_regs - len(regs)]
        hart = Machine(module).resume(0, cont, regs)
        assert hart.regs[:4] == [WORD_MIN, WORD_MAX, 12345, -7]
        assert hart.regs[: len(regs)] == [wrap_word(v) for v in regs]
        assert all(WORD_MIN <= v <= WORD_MAX for v in hart.regs)

    def test_resume_pads_hart_list(self):
        module, _ = build_counter()
        func = module.functions["main"]
        cont = Continuation("main", func.entry.label, 0, ())
        machine = Machine(module)
        machine.resume(3, cont, [2])
        assert machine.harts[3] is not None
        assert machine.harts[0] is None
        machine.run()  # None slots are skipped

    def test_resumed_hart_emits_no_spawn_events(self):
        from repro.isa import CollectingObserver
        from repro.isa.trace import EV_BOUNDARY

        module, _ = build_counter()
        func = module.functions["main"]
        cont = Continuation("main", func.entry.label, 0, ())
        machine = Machine(module)
        machine.resume(0, cont, [3])
        obs = CollectingObserver()
        machine.run(obs)
        spawn_boundaries = [e for e in obs.of_kind(EV_BOUNDARY) if e[2] == -1]
        assert spawn_boundaries == []

    def test_resume_unknown_function_raises(self):
        module, _ = build_counter()
        cont = Continuation("ghost", "entry", 0, ())
        machine = Machine(module)
        with pytest.raises(KeyError):
            machine.resume(0, cont, [])

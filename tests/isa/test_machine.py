"""Tests for the functional machine: semantics, calls, events, multi-hart."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import IRBuilder, verify_module
from repro.ir.instructions import RegionBoundary
from repro.ir.module import ckpt_slot_addr
from repro.isa import (
    CollectingObserver,
    CountingObserver,
    EV_ATOMIC,
    EV_BOUNDARY,
    EV_CKPT,
    EV_FENCE,
    EV_HALT,
    EV_LOAD,
    EV_STORE,
    Machine,
    MachineError,
)


def run_main(builder, args=(), observer=None):
    verify_module(builder.module)
    m = Machine(builder.module)
    rv = m.run_function("main", args, observer=observer)
    return m, rv


class TestArithmetic:
    def test_constant_return(self):
        b = IRBuilder("m")
        with b.function("main") as f:
            f.ret(f.li(42))
        _, rv = run_main(b)
        assert rv == 42

    def test_arith_chain(self):
        b = IRBuilder("m")
        with b.function("main", params=["a", "b"]) as f:
            x = f.add(f.param(0), f.param(1))
            y = f.mul(x, 3)
            z = f.sub(y, 5)
            f.ret(z)
        _, rv = run_main(b, [10, 4])
        assert rv == (10 + 4) * 3 - 5

    def test_unop(self):
        b = IRBuilder("m")
        with b.function("main", params=["a"]) as f:
            f.ret(f.unop("neg", f.param(0)))
        _, rv = run_main(b, [17])
        assert rv == -17

    @given(st.integers(-(2**63), 2**63 - 1), st.integers(-(2**63), 2**63 - 1))
    @settings(max_examples=25, deadline=None)
    def test_add_matches_python_mod_2_64(self, a, c):
        from repro.ir.values import wrap_word

        b = IRBuilder("m")
        with b.function("main", params=["a", "b"]) as f:
            f.ret(f.add(f.param(0), f.param(1)))
        _, rv = run_main(b, [a, c])
        assert rv == wrap_word(a + c)

    def test_wraparound(self):
        b = IRBuilder("m")
        with b.function("main") as f:
            big = f.li(2**63 - 1)
            f.ret(f.add(big, 1))
        _, rv = run_main(b)
        assert rv == -(2**63)


class TestMemory:
    def test_store_then_load(self):
        b = IRBuilder("m")
        addr = b.module.alloc("x", 1)
        with b.function("main") as f:
            f.store(99, addr)
            f.ret(f.load(addr))
        m, rv = run_main(b)
        assert rv == 99
        assert m.read_word(addr) == 99

    def test_initialized_data(self):
        b = IRBuilder("m")
        addr = b.module.alloc("x", 2, init=[7, 8])
        with b.function("main") as f:
            f.ret(f.add(f.load(addr), f.load(addr, offset=8)))
        _, rv = run_main(b)
        assert rv == 15

    def test_uninitialized_memory_reads_zero(self):
        b = IRBuilder("m")
        addr = b.module.alloc("x", 1)
        with b.function("main") as f:
            f.ret(f.load(addr))
        _, rv = run_main(b)
        assert rv == 0

    def test_store_events_carry_old_value(self):
        b = IRBuilder("m")
        addr = b.module.alloc("x", 1, init=[5])
        with b.function("main") as f:
            f.store(6, addr)
            f.store(7, addr)
            f.ret()
        obs = CollectingObserver()
        run_main(b, observer=obs)
        stores = obs.of_kind(EV_STORE)
        assert stores[0][2:] == (addr, 6, 5)
        assert stores[1][2:] == (addr, 7, 6)


class TestControlFlow:
    def test_branch_taken(self):
        b = IRBuilder("m")
        with b.function("main", params=["x"]) as f:
            r = f.reg()
            with f.if_else(f.cmp("sgt", f.param(0), 10)) as h:
                f.move(r, 1)
                h.otherwise()
                f.move(r, 2)
            f.ret(r)
        _, rv = run_main(b, [20])
        assert rv == 1
        _, rv = run_main(b, [5])
        assert rv == 2

    def test_loop_sum(self):
        b = IRBuilder("m")
        with b.function("main", params=["n"]) as f:
            acc = f.li(0)
            with f.for_range(f.param(0)) as i:
                f.add(acc, i, dst=acc)
            f.ret(acc)
        _, rv = run_main(b, [10])
        assert rv == 45

    def test_while_loop(self):
        b = IRBuilder("m")
        with b.function("main", params=["n"]) as f:
            x = f.move(f.reg(), f.param(0))
            count = f.li(0)
            with f.while_loop(lambda: f.cmp("sgt", x, 1)):
                with f.if_else(f.cmp("seq", f.rem(x, 2), 0)) as h:
                    f.div(x, 2, dst=x)
                    h.otherwise()
                    f.add(f.mul(x, 3), 1, dst=x)
                f.add(count, 1, dst=count)
            f.ret(count)
        _, rv = run_main(b, [6])
        assert rv == 8  # collatz(6) = 8 steps

    def test_infinite_loop_hits_step_limit(self):
        b = IRBuilder("m")
        with b.function("main") as f:
            f.start_block("spin")
            f.jump("spin")
        verify_module(b.module)
        m = Machine(b.module)
        m.spawn("main")
        with pytest.raises(MachineError, match="max_steps"):
            m.run(max_steps=1000)


class TestCalls:
    def test_call_and_return_value(self):
        b = IRBuilder("m")
        with b.function("double", params=["x"]) as f:
            f.ret(f.mul(f.param(0), 2))
        with b.function("main", params=["x"]) as f:
            r = f.call("double", [f.param(0)], returns=True)
            f.ret(r)
        _, rv = run_main(b, [21])
        assert rv == 42

    def test_nested_calls(self):
        b = IRBuilder("m")
        with b.function("inc", params=["x"]) as f:
            f.ret(f.add(f.param(0), 1))
        with b.function("inc2", params=["x"]) as f:
            r = f.call("inc", [f.param(0)], returns=True)
            r2 = f.call("inc", [r], returns=True)
            f.ret(r2)
        with b.function("main") as f:
            f.ret(f.call("inc2", [40], returns=True))
        _, rv = run_main(b)
        assert rv == 42

    def test_recursion(self):
        b = IRBuilder("m")
        with b.function("fib", params=["n"]) as f:
            with f.if_then(f.cmp("sle", f.param(0), 1)):
                f.ret(f.param(0))
            a = f.call("fib", [f.sub(f.param(0), 1)], returns=True)
            c = f.call("fib", [f.sub(f.param(0), 2)], returns=True)
            f.ret(f.add(a, c))
        with b.function("main") as f:
            f.ret(f.call("fib", [10], returns=True))
        _, rv = run_main(b)
        assert rv == 55

    def test_caller_registers_preserved_across_call(self):
        b = IRBuilder("m")
        with b.function("clobber", params=["x"]) as f:
            # uses many registers internally
            t = f.param(0)
            for _ in range(10):
                t = f.add(t, 1)
            f.ret(t)
        with b.function("main") as f:
            keep = f.li(777)
            f.call("clobber", [1], returns=True)
            f.ret(keep)
        _, rv = run_main(b)
        assert rv == 777

    def test_stack_overflow_detected(self):
        b = IRBuilder("m")
        with b.function("spin", params=["n"]) as f:
            r = f.call("spin", [f.param(0)], returns=True)
            f.ret(r)
        with b.function("main") as f:
            f.ret(f.call("spin", [1], returns=True))
        verify_module(b.module)
        m = Machine(b.module)
        m.spawn("main")
        with pytest.raises(MachineError, match="overflow"):
            m.run()

    def test_call_emits_argument_checkpoints(self):
        b = IRBuilder("m")
        with b.function("f", params=["a", "b"]) as f:
            f.ret(f.add(f.param(0), f.param(1)))
        with b.function("main") as f:
            f.ret(f.call("f", [3, 4], returns=True))
        obs = CollectingObserver()
        run_main(b, observer=obs)
        ckpts = obs.of_kind(EV_CKPT)
        # spawn ckpts: none (main has no params); call ckpts: a and b at depth 1
        call_ckpts = [c for c in ckpts if c[4] >= ckpt_slot_addr(0, 0, 1)]
        assert [(c[2], c[3]) for c in call_ckpts] == [(0, 3), (1, 4)]


class TestEvents:
    def test_spawn_emits_boundary_and_arg_ckpts(self):
        b = IRBuilder("m")
        with b.function("main", params=["a"]) as f:
            f.ret(f.param(0))
        obs = CollectingObserver()
        run_main(b, [5], observer=obs)
        boundaries = obs.of_kind(EV_BOUNDARY)
        assert boundaries[0][2] == -1  # implicit spawn boundary
        ckpts = obs.of_kind(EV_CKPT)
        assert ckpts[0][2:4] == (0, 5)

    def test_fence_event(self):
        b = IRBuilder("m")
        with b.function("main") as f:
            f.fence()
            f.ret()
        obs = CollectingObserver()
        run_main(b, observer=obs)
        assert len(obs.of_kind(EV_FENCE)) == 1

    def test_halt_event(self):
        b = IRBuilder("m")
        with b.function("main") as f:
            f.halt()
        obs = CollectingObserver()
        run_main(b, observer=obs)
        assert len(obs.of_kind(EV_HALT)) == 1

    def test_region_boundary_continuation_points_past_boundary(self):
        b = IRBuilder("m")
        with b.function("main") as f:
            f.emit(RegionBoundary(7))
            f.ret(f.li(1))
        obs = CollectingObserver()
        run_main(b, observer=obs)
        boundaries = obs.of_kind(EV_BOUNDARY)
        explicit = [e for e in boundaries if e[2] == 7]
        assert len(explicit) == 1
        cont = explicit[0][3]
        assert cont.func_name == "main"
        assert cont.index == 1  # instruction after the boundary
        assert cont.callstack == ()

    def test_counting_observer(self):
        b = IRBuilder("m")
        addr = b.module.alloc("x", 1)
        with b.function("main") as f:
            f.store(1, addr)
            f.load(addr)
            f.fence()
            f.ret()
        obs = CountingObserver()
        run_main(b, observer=obs)
        assert obs.stores == 1
        assert obs.loads == 1
        assert obs.fences == 1
        assert obs.retired > 3


class TestAtomics:
    def test_atomic_add_returns_old(self):
        b = IRBuilder("m")
        addr = b.module.alloc("x", 1, init=[10])
        with b.function("main") as f:
            old = f.atomic("add", addr, 5)
            f.ret(old)
        m, rv = run_main(b)
        assert rv == 10
        assert m.read_word(addr) == 15

    def test_atomic_swap(self):
        b = IRBuilder("m")
        addr = b.module.alloc("lock", 1)
        with b.function("main") as f:
            old = f.atomic("swap", addr, 1)
            f.ret(old)
        m, rv = run_main(b)
        assert rv == 0
        assert m.read_word(addr) == 1

    def test_atomic_event(self):
        b = IRBuilder("m")
        addr = b.module.alloc("x", 1)
        with b.function("main") as f:
            f.atomic("add", addr, 3)
            f.ret()
        obs = CollectingObserver()
        run_main(b, observer=obs)
        atomics = obs.of_kind(EV_ATOMIC)
        assert atomics == [(EV_ATOMIC, 0, addr, 3, 0)]


class TestMultiHart:
    def _counter_module(self):
        b = IRBuilder("m")
        addr = b.module.alloc("counter", 1)
        with b.function("worker", params=["n"]) as f:
            with f.for_range(f.param(0)):
                f.atomic("add", addr, 1)
            f.ret()
        verify_module(b.module)
        return b.module, addr

    def test_two_harts_atomic_increment(self):
        module, addr = self._counter_module()
        m = Machine(module)
        m.spawn("worker", [100])
        m.spawn("worker", [100])
        m.run()
        assert m.read_word(addr) == 200

    def test_harts_round_robin_interleave(self):
        b = IRBuilder("m")
        log = b.module.alloc("log", 64)
        idx = b.module.alloc("idx", 1)
        with b.function("worker", params=["tag"]) as f:
            with f.for_range(4):
                slot = f.atomic("add", idx, 1)
                a = f.add(log, f.shl(slot, 3))
                f.store(f.param(0), a)
            f.ret()
        verify_module(b.module)
        m = Machine(b.module, quantum=8)
        m.spawn("worker", [1])
        m.spawn("worker", [2])
        m.run()
        tags = [m.read_word(log + i * 8) for i in range(8)]
        assert sorted(tags) == [1, 1, 1, 1, 2, 2, 2, 2]
        # with quantum 8 both tags appear before the end: interleaving real
        assert tags[0] != tags[-1]

    def test_determinism(self):
        module, addr = self._counter_module()
        results = []
        for _ in range(2):
            m = Machine(module, quantum=5)
            m.spawn("worker", [37])
            m.spawn("worker", [53])
            retired = m.run()
            results.append((retired, m.read_word(addr)))
        assert results[0] == results[1]

    def test_spawn_arity_checked(self):
        module, _ = self._counter_module()
        m = Machine(module)
        with pytest.raises(MachineError, match="args"):
            m.spawn("worker", [1, 2])

    def test_harts_limited_to_cores_with_checkpoint_storage(self):
        """A hart past ``MAX_CORES`` would checkpoint into program data."""
        from repro.ir.module import MAX_CORES
        from repro.isa.machine import Continuation

        module, _ = self._counter_module()
        m = Machine(module)
        for _ in range(MAX_CORES):
            m.spawn("worker", [1])
        with pytest.raises(MachineError, match="core 64"):
            m.spawn("worker", [1])
        entry = module.functions["worker"].entry.label
        cont = Continuation("worker", entry, 0, ())
        m.resume(MAX_CORES - 1, cont, [1])
        for core in (MAX_CORES, -1):
            with pytest.raises(MachineError, match="outside"):
                m.resume(core, cont, [1])

    def test_quantum_validation(self):
        module, _ = self._counter_module()
        with pytest.raises(ValueError):
            Machine(module, quantum=0)

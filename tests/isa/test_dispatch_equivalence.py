"""The block-local dispatch loop against the instruction-at-a-time loop.

:class:`ReferenceMachine` keeps the straightforward interpreter loop —
re-walk ``hart.func.blocks[hart.label].instrs[hart.index]`` for every
instruction, ``eval_binop`` for every ALU op, the validating
``ckpt_slot_addr`` for every checkpoint, and a fixed quantum even for a
lone hart — as the oracle.  The production :class:`Machine` must deliver
the same observer events in the same order, leave the same memory,
I/O log and per-hart retired counts, fail at the same step, and leave an
interrupted hart in the same place.

A run without an observer skips the callbacks only an observer consumes,
so :class:`TestUnobservedRuns` holds it to the same architectural
outcome as a counted run on either machine.
"""

from __future__ import annotations

from typing import Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CapriCompiler, OptConfig
from repro.ir import IRBuilder, verify_module
from repro.ir.function import Function
from repro.ir.instructions import (
    BINARY_OPS,
    AtomicRMW,
    BinOp,
    Branch,
    Call,
    CheckpointStore,
    Fence,
    Halt,
    IOWrite,
    Jump,
    Load,
    Move,
    Nop,
    RegionBoundary,
    Ret,
    Store,
    UnOp,
    eval_atomic,
    eval_binop,
    eval_unop,
)
from repro.ir.module import Module, ckpt_slot_addr
from repro.ir.values import WORD_MAX, WORD_MIN, Imm, Reg
from repro.isa.machine import Hart, Machine, MachineError
from repro.isa.trace import (
    CollectingObserver,
    CountingObserver,
    Observer,
    TickCountingObserver,
)
from repro.workloads import get_workload
from tests.arch.test_io import build_logger


class ReferenceMachine(Machine):
    """The interpreter loop before block-local dispatch, kept as the oracle."""

    def run(self, observer=None, max_steps=50_000_000):
        obs = observer or Observer()
        steps_left = max_steps
        live = [h for h in self.harts if h is not None and not h.halted]
        while live:
            progressed = False
            for hart in live:
                if hart.halted:
                    continue
                n = self._run_quantum(hart, obs, min(self.quantum, steps_left))
                steps_left -= n
                progressed = progressed or n > 0
                if steps_left <= 0:
                    raise MachineError(f"machine exceeded max_steps={max_steps}")
            live = [h for h in live if not h.halted]
            if live and not progressed:
                raise MachineError("no hart can make progress")
        return self.total_retired

    def _run_quantum(self, hart: Hart, obs: Observer, budget: int) -> int:
        if budget <= 0:
            return 0
        if not hart.started:
            self._start_hart(hart, obs)
        executed = 0
        memory = self.memory
        core = hart.core_id
        while executed < budget and not hart.halted:
            block = hart.func.blocks[hart.label]
            instr = block.instrs[hart.index]
            regs = hart.regs
            cls = type(instr)
            obs.on_retire(core, cls.__name__)
            executed += 1
            advance = True

            if cls is BinOp:
                lhs = instr.lhs
                rhs = instr.rhs
                a = regs[lhs.index] if type(lhs) is Reg else lhs.value
                b = regs[rhs.index] if type(rhs) is Reg else rhs.value
                regs[instr.dst.index] = eval_binop(instr.op, a, b)
            elif cls is Move:
                src = instr.src
                regs[instr.dst.index] = (
                    regs[src.index] if type(src) is Reg else src.value
                )
            elif cls is Load:
                base = instr.addr
                addr = (
                    regs[base.index] if type(base) is Reg else base.value
                ) + instr.offset
                regs[instr.dst.index] = memory.get(addr, 0)
                obs.on_load(core, addr)
            elif cls is Store:
                base = instr.addr
                addr = (
                    regs[base.index] if type(base) is Reg else base.value
                ) + instr.offset
                v = instr.value
                value = regs[v.index] if type(v) is Reg else v.value
                old = memory.get(addr, 0)
                memory[addr] = value
                obs.on_store(core, addr, value, old)
            elif cls is Branch:
                c = instr.cond
                cond = regs[c.index] if type(c) is Reg else c.value
                hart.label = instr.if_true if cond != 0 else instr.if_false
                hart.index = 0
                advance = False
            elif cls is Jump:
                hart.label = instr.target
                hart.index = 0
                advance = False
            elif cls is UnOp:
                s = instr.src
                a = regs[s.index] if type(s) is Reg else s.value
                regs[instr.dst.index] = eval_unop(instr.op, a)
            elif cls is RegionBoundary:
                hart.index += 1
                obs.on_boundary(core, instr.region_id, hart.continuation())
                advance = False
            elif cls is CheckpointStore:
                reg = instr.src.index
                value = regs[reg]
                addr = ckpt_slot_addr(core, reg, hart.depth)
                memory[addr] = value
                obs.on_ckpt(core, reg, value, addr)
            elif cls is Call:
                self._do_call(hart, instr, obs)
                advance = False
            elif cls is Ret:
                self._do_ret(hart, instr, obs)
                advance = False
            elif cls is AtomicRMW:
                base = instr.addr
                addr = (
                    regs[base.index] if type(base) is Reg else base.value
                ) + instr.offset
                v = instr.value
                value = regs[v.index] if type(v) is Reg else v.value
                old = memory.get(addr, 0)
                new = eval_atomic(instr.op, old, value)
                memory[addr] = new
                regs[instr.dst.index] = old
                obs.on_atomic(core, addr, new, old)
            elif cls is Fence:
                obs.on_fence(core)
            elif cls is IOWrite:
                v = instr.value
                value = regs[v.index] if type(v) is Reg else v.value
                self.io_log.append((core, instr.port, value))
                obs.on_io(core, instr.port, value)
            elif cls is Halt:
                hart.halted = True
                obs.on_halt(core)
                advance = False
            elif cls is Nop:
                pass
            else:
                raise MachineError(f"unknown instruction {instr!r}")

            if advance:
                hart.index += 1
        hart.retired += executed
        self.total_retired += executed
        return executed


class Fired(Exception):
    pass


class RaiseAt(CollectingObserver):
    """Collects events and raises on callback ``k`` (0-based), like a crash."""

    def __init__(self, k: int) -> None:
        super().__init__()
        self.k = k

    def _tick(self) -> None:
        if len(self.events) == self.k:
            raise Fired()

    def on_retire(self, core, kind):
        self._tick()
        super().on_retire(core, kind)

    def on_load(self, core, addr):
        self._tick()
        super().on_load(core, addr)

    def on_store(self, core, addr, value, old):
        self._tick()
        super().on_store(core, addr, value, old)

    def on_ckpt(self, core, reg, value, addr):
        self._tick()
        super().on_ckpt(core, reg, value, addr)

    def on_boundary(self, core, region_id, continuation):
        self._tick()
        super().on_boundary(core, region_id, continuation)

    def on_fence(self, core):
        self._tick()
        super().on_fence(core)

    def on_atomic(self, core, addr, value, old):
        self._tick()
        super().on_atomic(core, addr, value, old)

    def on_halt(self, core):
        self._tick()
        super().on_halt(core)

    def on_io(self, core, port, value):
        self._tick()
        super().on_io(core, port, value)


def _build(machine_cls, module: Module, spawns, quantum: int) -> Machine:
    machine = machine_cls(module, quantum=quantum)
    for name, args in spawns:
        machine.spawn(name, args)
    return machine


def _outcome(machine: Machine, obs: CollectingObserver):
    return (
        obs.events,
        machine.memory,
        machine.io_log,
        [h.retired for h in machine.harts],
        machine.total_retired,
    )


def _hart_state(hart: Hart):
    return (
        hart.func.name,
        hart.label,
        hart.index,
        list(hart.regs),
        [f.snapshot() for f in hart.callstack],
        hart.halted,
    )


def _compiled(name: str, scale: float, threshold: int = 32):
    module, spawns = get_workload(name).build(scale)
    module = CapriCompiler(OptConfig.licm().with_threshold(threshold)).compile(
        module
    ).module
    return module, spawns


@pytest.fixture(scope="module")
def genome():
    return _compiled("genome", 0.05)


@pytest.fixture(scope="module")
def ocean():
    module, spawns = _compiled("ocean", 0.05)
    assert len(spawns) > 1
    return module, spawns


def _calls_module(compiled: bool = True) -> Tuple[Module, list]:
    """A single-hart program with calls, loops, I/O and atomics.

    Compiled, every call directly follows a region boundary; the raw
    program has calls in mid-block.
    """
    b = IRBuilder("calls")
    out = b.module.alloc("out", 8)
    with b.function("helper", params=["x", "y"]) as f:
        acc = f.li(0)
        with f.for_range(f.param(0)) as i:
            f.add(acc, f.mul(i, f.param(1)), dst=acc)
            f.store(acc, out, offset=8)
        f.atomic("add", out, 1, offset=16)
        f.ret(acc)
    with b.function("main", params=["n"]) as f:
        total = f.li(0)
        with f.for_range(f.param(0)) as i:
            r = f.call("helper", [i, f.add(i, 3)], returns=True)
            f.add(total, r, dst=total)
            f.io_write(1, total)
        f.fence()
        f.store(total, out)
        f.ret(total)
    verify_module(b.module)
    module = b.module
    if compiled:
        module = CapriCompiler(OptConfig.licm().with_threshold(8)).compile(
            module
        ).module
    return module, [("main", (6,))]


class TestEventStreams:
    @pytest.mark.parametrize("quantum", [1, 7, 32])
    @pytest.mark.parametrize("workload", ["genome", "ocean"])
    def test_registry_workload(self, workload, quantum, request):
        module, spawns = request.getfixturevalue(workload)
        outcomes = []
        for cls in (ReferenceMachine, Machine):
            machine = _build(cls, module, spawns, quantum)
            obs = CollectingObserver()
            machine.run(obs)
            outcomes.append(_outcome(machine, obs))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("quantum", [1, 7, 32])
    @pytest.mark.parametrize("compiled", [False, True])
    def test_calls_program(self, compiled, quantum):
        module, spawns = _calls_module(compiled)
        outcomes = []
        for cls in (ReferenceMachine, Machine):
            machine = _build(cls, module, spawns, quantum)
            obs = CollectingObserver()
            machine.run(obs)
            outcomes.append(_outcome(machine, obs))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("quantum", [1, 7, 32])
    def test_survivor_after_early_halt(self, quantum):
        b = IRBuilder("early")
        out = b.module.alloc("out", 4)
        with b.function("short") as f:
            f.store(1, out)
            f.halt()
        with b.function("long", params=["n"]) as f:
            acc = f.li(0)
            with f.for_range(f.param(0)) as i:
                f.add(acc, i, dst=acc)
                f.store(acc, out, offset=8)
            f.ret(acc)
        verify_module(b.module)
        spawns = [("short", ()), ("long", (50,))]
        outcomes = []
        for cls in (ReferenceMachine, Machine):
            machine = _build(cls, b.module, spawns, quantum)
            obs = CollectingObserver()
            machine.run(obs)
            outcomes.append(_outcome(machine, obs))
        assert outcomes[0] == outcomes[1]
        events = outcomes[1][0]
        short_halt = events.index(("halt", 0))
        # The survivor runs alone for most of the program.
        assert sum(1 for e in events[short_halt:] if e[1] == 1) > 100


def _spin_module() -> Module:
    b = IRBuilder("spin")
    with b.function("spin") as f:
        loop = f.label("loop")
        f.start_block(loop)
        f.add(f.li(1), 2)
        f.jump(loop)
    return b.module


class _Counting(Observer):
    def __init__(self) -> None:
        self.retired = 0

    def on_retire(self, core, kind):
        self.retired += 1


class TestMaxSteps:
    @pytest.mark.parametrize("max_steps", [1, 31, 32, 33, 1000])
    @pytest.mark.parametrize("cls", [ReferenceMachine, Machine])
    def test_lone_hart_trips_at_max_steps(self, cls, max_steps):
        machine = _build(cls, _spin_module(), [("spin", ())], 32)
        obs = _Counting()
        with pytest.raises(MachineError, match=f"max_steps={max_steps}"):
            machine.run(obs, max_steps=max_steps)
        assert obs.retired == max_steps

    def test_halting_on_the_last_step_matches(self, genome):
        module, spawns = genome
        total = _build(Machine, module, spawns, 32).run()
        for cls in (ReferenceMachine, Machine):
            with pytest.raises(MachineError):
                _build(cls, module, spawns, 32).run(max_steps=total)
            assert _build(cls, module, spawns, 32).run(max_steps=total + 1) == total


class TestInterruptedHart:
    @pytest.mark.parametrize("compiled", [False, True])
    def test_raise_at_every_event_leaves_hart_like_oracle(self, compiled):
        module, spawns = _calls_module(compiled)
        obs = CollectingObserver()
        _build(Machine, module, spawns, 7).run(obs)
        mid_block = mid_call = 0
        for k in range(len(obs.events)):
            states = []
            for cls in (ReferenceMachine, Machine):
                machine = _build(cls, module, spawns, 7)
                raiser = RaiseAt(k)
                with pytest.raises(Fired):
                    machine.run(raiser)
                states.append(
                    (
                        _hart_state(machine.harts[0]),
                        raiser.events,
                        machine.memory,
                        machine.io_log,
                    )
                )
            assert states[0] == states[1], f"diverged at event {k}"
            _, _, index, _, callstack, _ = states[1][0]
            mid_block += index > 0
            mid_call += bool(callstack)
        assert mid_block > 100 and mid_call > 100

    def test_ckpt_of_out_of_storage_register(self):
        func = Function("wide", num_params=0, num_regs=513)
        entry = func.new_block("entry")
        for instr in (Move(Reg(512), Imm(7)), CheckpointStore(Reg(512)), Halt()):
            entry.append(instr)
        module = Module("wide")
        module.add_function(func)
        errors = []
        for cls in (ReferenceMachine, Machine):
            machine = _build(cls, module, [("wide", ())], 32)
            with pytest.raises(ValueError) as info:
                machine.run()
            errors.append(str(info.value))
            assert machine.harts[0].index == 1
        assert errors[0] == errors[1]
        assert "register index 512" in errors[1]


# -- unobserved runs -----------------------------------------------------------


@pytest.fixture(scope="module")
def deep_call():
    return _compiled("deep-call", 0.1)


@pytest.fixture(scope="module")
def logger():
    module, _ = build_logger(20)
    module = CapriCompiler(OptConfig.licm(64)).compile(module).module
    return module, [("main", ())]


_PROGRAMS = ["genome", "ocean", "deep_call", "logger"]


def _architectural(machine: Machine):
    """Everything a run leaves behind that does not go through an observer."""
    return (
        machine.memory,
        machine.io_log,
        machine.total_retired,
        [h.retired for h in machine.harts],
        [h.exit_value for h in machine.harts],
        [_hart_state(h) for h in machine.harts],
    )


def _three_runs(module, spawns, quantum, max_steps=50_000_000):
    """Counted reference, counted production and unobserved production runs.

    Returns each run's architectural outcome and the error it raised.
    """
    outcomes = []
    for cls, obs in (
        (ReferenceMachine, _Counting()),
        (Machine, _Counting()),
        (Machine, None),
    ):
        machine = _build(cls, module, spawns, quantum)
        error = None
        try:
            machine.run(obs, max_steps=max_steps)
        except MachineError as exc:
            error = str(exc)
        if obs is not None:
            assert obs.retired == machine.total_retired
        outcomes.append((_architectural(machine), error))
    return outcomes


class TestUnobservedRuns:
    @pytest.mark.parametrize("quantum", [1, 7, 32])
    @pytest.mark.parametrize("program", _PROGRAMS)
    def test_same_result_as_counted_run(self, program, quantum, request):
        module, spawns = request.getfixturevalue(program)
        outcomes = _three_runs(module, spawns, quantum)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[2][1] is None

    def test_logger_emits_io(self, logger):
        io_log = _three_runs(*logger, 32)[2][0][1]
        assert [v for (_, _, v) in io_log] == [7 * i + 3 for i in range(20)]

    @pytest.mark.parametrize("program", _PROGRAMS)
    def test_max_steps_trip_point(self, program, request):
        module, spawns = request.getfixturevalue(program)
        total = _build(Machine, module, spawns, 32).run()
        tripped = _three_runs(module, spawns, 32, max_steps=total)
        assert tripped[0] == tripped[1] == tripped[2]
        assert tripped[2][1] == f"machine exceeded max_steps={total}"
        finished = _three_runs(module, spawns, 32, max_steps=total + 1)
        assert finished[0] == finished[1] == finished[2]
        assert finished[2][0][2] == total and finished[2][1] is None

    @pytest.mark.parametrize("quantum", [7, 32])
    @pytest.mark.parametrize("program", _PROGRAMS)
    def test_interrupted_harts_match(self, program, quantum, request):
        module, spawns = request.getfixturevalue(program)
        total = _build(Machine, module, spawns, quantum).run()
        mid_block = 0
        for max_steps in sorted({1, 2, 3} | set(range(5, total, total // 13))):
            outcomes = _three_runs(module, spawns, quantum, max_steps)
            assert outcomes[0] == outcomes[1] == outcomes[2], max_steps
            assert outcomes[2][1] is not None
            harts = outcomes[2][0][-1]
            mid_block += any(index > 0 for (_, _, index, *_) in harts)
        assert mid_block > 5

    def test_no_progress_error(self, ocean):
        # A zero quantum is only reachable by assignment; it starves every
        # hart of a multi-hart run before any event.
        module, spawns = ocean
        errors = []
        for obs in (_Counting(), None):
            machine = _build(Machine, module, spawns, 32)
            machine.quantum = 0
            with pytest.raises(MachineError, match="no hart can make progress"):
                machine.run(obs)
            errors.append(_architectural(machine))
        assert errors[0] == errors[1]


class TestObserverDelivery:
    @pytest.mark.parametrize("program", _PROGRAMS)
    def test_continuations_only_where_delivered(self, program, request, monkeypatch):
        module, spawns = request.getfixturevalue(program)
        calls = []
        snapshot = Hart.continuation

        def counting(hart):
            calls.append(hart.core_id)
            return snapshot(hart)

        monkeypatch.setattr(Hart, "continuation", counting)
        _build(Machine, module, spawns, 32).run()
        # One per spawn prologue, none at the compiler's boundaries.
        assert sorted(calls) == list(range(len(spawns)))

        del calls[:]
        obs = CountingObserver()
        _build(Machine, module, spawns, 32).run(obs)
        assert len(calls) == obs.boundaries > len(spawns)

    @pytest.mark.parametrize("program", _PROGRAMS)
    def test_plain_observer_gets_every_event(self, program, request, monkeypatch):
        module, spawns = request.getfixturevalue(program)
        expected = TickCountingObserver()
        _build(Machine, module, spawns, 32).run(expected)

        ticks = {}
        for name in (
            "on_retire", "on_load", "on_store", "on_ckpt", "on_boundary",
            "on_fence", "on_atomic", "on_halt", "on_io",
        ):
            def tick(self, *args, _name=name):
                ticks[_name] = ticks.get(_name, 0) + 1

            monkeypatch.setattr(Observer, name, tick)
        _build(Machine, module, spawns, 32).run(Observer())
        assert sum(ticks.values()) == expected.events
        assert ticks["on_retire"] > 0

        # The null observer is the only one the machine skips.
        ticks.clear()
        machine = _build(Machine, module, spawns, 32)
        machine.run()
        assert "on_retire" not in ticks
        assert ticks["on_boundary"] == len(spawns)


# -- the one-call ALU -------------------------------------------------------

_EDGES = [
    0, 1, -1, 2, -2, 63, 64, 65, 127, 128, 255,
    WORD_MAX, WORD_MAX - 1, WORD_MIN, WORD_MIN + 1,
    1 << 62, -(1 << 62), (1 << 32) - 1, -(1 << 32),
]
_OPERANDS = st.one_of(
    st.sampled_from(_EDGES), st.integers(min_value=WORD_MIN, max_value=WORD_MAX)
)


def _alu_module(op: str) -> Module:
    """``f(a, b)`` returns ``a <op> b``."""
    b = IRBuilder(f"alu_{op}")
    with b.function("f", params=["a", "b"]) as f:
        f.ret(f.binop(op, f.param(0), f.param(1)))
    return b.module


_ALU_MODULES = {op: _alu_module(op) for op in BINARY_OPS}


@settings(max_examples=300, deadline=None)
@given(op=st.sampled_from(sorted(BINARY_OPS)), a=_OPERANDS, b=_OPERANDS)
def test_alu_matches_eval_binop(op, a, b):
    got = Machine(_ALU_MODULES[op]).run_function("f", (a, b))
    assert got == eval_binop(op, a, b)
    assert WORD_MIN <= got <= WORD_MAX


@pytest.mark.parametrize("op", sorted(BINARY_OPS))
def test_alu_edges_exhaustive(op):
    module = _ALU_MODULES[op]
    for a in _EDGES:
        for b in _EDGES:
            assert Machine(module).run_function("f", (a, b)) == eval_binop(op, a, b)

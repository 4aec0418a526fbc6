"""The block-local dispatch loop against the instruction-at-a-time loop.

:class:`ReferenceMachine` keeps the straightforward interpreter loop —
re-walk ``hart.func.blocks[hart.label].instrs[hart.index]`` for every
instruction, ``eval_binop`` for every ALU op, the validating
``ckpt_slot_addr`` for every checkpoint, and a fixed quantum even for a
lone hart — as the oracle.  The production :class:`Machine` must deliver
the same observer events in the same order, leave the same memory,
I/O log and per-hart retired counts, fail at the same step, and leave an
interrupted hart in the same place.

A run without an observer skips the callbacks only an observer consumes
and runs compiled regions, generated code that spans whole blocks, so
:class:`TestUnobservedRuns` holds it to the same architectural outcome
as a counted run on either machine, :class:`TestCompiledBlocks` does
the same for random blocks and for blocks edited between runs, and
:class:`TestCompiledRegions` for random loops with diamonds, triangles
and early exits, for edited successor blocks and for long branch
chains.

An observer that takes retire runs gets its retires buffered, so
:class:`TestRetireRuns` holds the expanded stream it sees to the
oracle's per-instruction stream, and a batching raiser to the same
interrupted hart.

Each hart runs as a stepper that keeps its state across quanta, so
:class:`TestSteppers` holds random multi-hart programs, a run after an
observer raised, a closed or collected stepper, unobserved runs and
the litmus explorer to the oracle or to recorded results.
"""

from __future__ import annotations

import gc
import hashlib
from typing import Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CapriCompiler, OptConfig
from repro.ir import IRBuilder, verify_module
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    ATOMIC_OPS,
    BINARY_OPS,
    UNARY_OPS,
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
from repro.isa import machine as machine_module
from repro.isa.machine import (
    _REGION_MAX_INSTRS,
    Continuation,
    Hart,
    Machine,
    MachineError,
)
from repro.isa.trace import (
    EV_RETIRE,
    CollectingObserver,
    CountingObserver,
    Observer,
    TickCountingObserver,
)
from repro.litmus.explore import explore_program
from repro.litmus.generate import litmus_corpus
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
                n = self._reference_quantum(hart, obs, min(self.quantum, steps_left))
                steps_left -= n
                progressed = progressed or n > 0
                if steps_left <= 0:
                    raise MachineError(f"machine exceeded max_steps={max_steps}")
            live = [h for h in live if not h.halted]
            if live and not progressed:
                raise MachineError("no hart can make progress")
        return self.total_retired

    def _reference_quantum(self, hart: Hart, obs: Observer, budget: int) -> int:
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
                value = regs[instr.dst.index] = memory.get(addr, 0)
                obs.on_load(core, addr, value)
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

    def on_load(self, core, addr, value):
        self._tick()
        super().on_load(core, addr, value)

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


def _counted(events):
    """``events`` with each retire's instruction kind dropped: what a
    stream of retire counts can be compared on."""
    return [(EV_RETIRE, e[1]) if e[0] == EV_RETIRE else e for e in events]


class RunCollector(CollectingObserver):
    """Takes retires as run counts and records them expanded, one
    ``(EV_RETIRE, core)`` tuple per retire (see :func:`_counted`)."""

    def __init__(self) -> None:
        super().__init__()
        self.runs = []

    def on_retire(self, core, kind):
        raise AssertionError("a retire reached a batching observer alone")

    def on_retire_run(self, core, n):
        assert type(n) is int and n > 0, "empty retire run"
        self.runs.append(n)
        self.events.extend([(EV_RETIRE, core)] * n)


class RunRaiseAt(RaiseAt):
    """:class:`RaiseAt` that takes retires as run counts, so it raises
    only at the other events."""

    def on_retire_run(self, core, n):
        self.events.extend([(EV_RETIRE, core)] * n)


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

    @pytest.mark.parametrize("compiled", [False, True])
    def test_batching_raiser_leaves_hart_like_oracle(self, compiled):
        module, spawns = _calls_module(compiled)
        obs = CollectingObserver()
        _build(Machine, module, spawns, 7).run(obs)
        points = [k for k, e in enumerate(obs.events) if e[0] != EV_RETIRE]
        kinds = set()
        for k in points:
            states = []
            for cls, raiser in (
                (ReferenceMachine, RaiseAt(k)),
                (Machine, RunRaiseAt(k)),
            ):
                machine = _build(cls, module, spawns, 7)
                with pytest.raises(Fired):
                    machine.run(raiser)
                states.append(
                    (
                        _hart_state(machine.harts[0]),
                        _counted(raiser.events),
                        machine.memory,
                        machine.io_log,
                    )
                )
            assert states[0] == states[1], f"diverged at event {k}"
            kinds.add(obs.events[k][0])
        assert kinds == {"ckpt", "boundary", "store", "atomic", "io", "fence", "halt"}

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

    Returns each run's architectural outcome and the error it raised, and
    the number of instructions compiled blocks retired in the unobserved
    run.
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
            assert machine.compiled_retired == 0
        outcomes.append((_architectural(machine), error))
    return outcomes, machine.compiled_retired


class TestUnobservedRuns:
    @pytest.mark.parametrize("quantum", [1, 7, 32])
    @pytest.mark.parametrize("program", _PROGRAMS)
    def test_same_result_as_counted_run(self, program, quantum, request):
        module, spawns = request.getfixturevalue(program)
        outcomes, compiled = _three_runs(module, spawns, quantum)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[2][1] is None
        # Compiled blocks ran, and ran most of the code except where
        # ocean's four harts take short quanta that few whole blocks fit.
        assert compiled > 0
        if program != "ocean" or quantum == 32:
            assert compiled > outcomes[2][0][2] // 2

    def test_logger_emits_io(self, logger):
        io_log = _three_runs(*logger, 32)[0][2][0][1]
        assert [v for (_, _, v) in io_log] == [7 * i + 3 for i in range(20)]

    @pytest.mark.parametrize("program", _PROGRAMS)
    def test_max_steps_trip_point(self, program, request):
        module, spawns = request.getfixturevalue(program)
        total = _build(Machine, module, spawns, 32).run()
        tripped, compiled = _three_runs(module, spawns, 32, max_steps=total)
        assert tripped[0] == tripped[1] == tripped[2]
        assert tripped[2][1] == f"machine exceeded max_steps={total}"
        assert compiled > 0
        finished, _ = _three_runs(module, spawns, 32, max_steps=total + 1)
        assert finished[0] == finished[1] == finished[2]
        assert finished[2][0][2] == total and finished[2][1] is None

    @pytest.mark.parametrize("quantum", [7, 32])
    @pytest.mark.parametrize("program", _PROGRAMS)
    def test_interrupted_harts_match(self, program, quantum, request):
        module, spawns = request.getfixturevalue(program)
        total = _build(Machine, module, spawns, quantum).run()
        mid_block = 0
        for max_steps in sorted({1, 2, 3} | set(range(5, total, total // 13))):
            outcomes, _ = _three_runs(module, spawns, quantum, max_steps)
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
        # None, not even for the spawn prologues' boundaries.
        assert calls == []

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

        # The null observer is the only one the machine skips, and it
        # skips every callback, the spawn prologues' included.
        ticks.clear()
        machine = _build(Machine, module, spawns, 32)
        machine.run()
        assert ticks == {}


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
    """``f(a, b)`` returns ``a <op> b``, computed in a block that compiles."""
    b = IRBuilder(f"alu_{op}")
    with b.function("f", params=["a", "b"]) as f:
        value = f.binop(op, f.param(0), f.param(1))
        out = f.label("out")
        f.jump(out)
        f.start_block(out)
        f.ret(value)
    return b.module


def _alu(op: str, a: int, b: int):
    """``a <op> b`` from an unobserved and from an observed run."""
    module = _ALU_MODULES[op]
    return (
        Machine(module).run_function("f", (a, b)),
        Machine(module).run_function("f", (a, b), observer=Observer()),
    )


_ALU_MODULES = {op: _alu_module(op) for op in BINARY_OPS}


@settings(max_examples=300, deadline=None)
@given(op=st.sampled_from(sorted(BINARY_OPS)), a=_OPERANDS, b=_OPERANDS)
def test_alu_matches_eval_binop(op, a, b):
    expected = eval_binop(op, a, b)
    assert _alu(op, a, b) == (expected, expected)
    assert WORD_MIN <= expected <= WORD_MAX


@pytest.mark.parametrize("op", sorted(BINARY_OPS))
def test_alu_edges_exhaustive(op):
    for a in _EDGES:
        for b in _EDGES:
            expected = eval_binop(op, a, b)
            assert _alu(op, a, b) == (expected, expected), (a, b)


# -- compiled blocks ----------------------------------------------------------

_NREGS = 6
_OUT = 0x1_0000
_BLOCK_IMMS = [WORD_MIN, WORD_MAX, 0, -1, 1, 63, 64, 65]
_B_REG = st.integers(0, _NREGS - 1).map(Reg)
_B_OPERAND = st.one_of(_B_REG, st.sampled_from(_BLOCK_IMMS).map(Imm))
# Few addresses, so loads see earlier stores; register bases add edges.
_B_ADDR = st.one_of(_B_REG, st.sampled_from([_OUT, _OUT + 8]).map(Imm))
_B_OFFSET = st.sampled_from([0, 8, -8])
_B_INSTR = st.one_of(
    st.builds(
        BinOp, st.sampled_from(sorted(BINARY_OPS)), _B_REG, _B_OPERAND, _B_OPERAND
    ),
    st.builds(UnOp, st.sampled_from(sorted(UNARY_OPS)), _B_REG, _B_OPERAND),
    st.builds(Move, _B_REG, _B_OPERAND),
    st.builds(Load, _B_REG, _B_ADDR, _B_OFFSET),
    st.builds(Store, _B_OPERAND, _B_ADDR, _B_OFFSET),
    st.builds(CheckpointStore, _B_REG),
    st.builds(RegionBoundary, st.integers(0, 3)),
    st.builds(Nop),
)
_B_BODY = st.lists(_B_INSTR, min_size=0, max_size=12)
_B_TERMINATOR = st.one_of(
    st.builds(Branch, _B_OPERAND, st.just("t"), st.just("f")),
    st.builds(Jump, st.sampled_from(["t", "f"])),
)
_B_ARGS = st.lists(
    st.one_of(
        st.sampled_from(_BLOCK_IMMS),
        st.integers(min_value=WORD_MIN, max_value=WORD_MAX),
    ),
    min_size=_NREGS,
    max_size=_NREGS,
)


def _random_block_module(entry, on_true, on_false, terminator) -> Module:
    """``f`` runs ``entry`` + ``terminator``, then ``on_true`` or
    ``on_false``; each of those dumps every register to its own area and
    jumps to a ``Ret`` block.  ``main`` calls ``f`` at depth 1."""
    f = Function("f", num_params=_NREGS, num_regs=_NREGS)
    f.new_block("entry").instrs = [*entry, terminator]
    for label, body, area in (("t", on_true, 0x100), ("f", on_false, 0x200)):
        dump = [Store(Reg(i), Imm(_OUT + area), 8 * i) for i in range(_NREGS)]
        f.new_block(label).instrs = [*body, *dump, Jump("done")]
    f.new_block("done").instrs = [Ret(Reg(0))]
    main = Function("main", num_params=_NREGS, num_regs=_NREGS)
    main.new_block("entry").instrs = [
        Call("f", tuple(Reg(i) for i in range(_NREGS)), Reg(0)),
        Halt(),
    ]
    module = Module("blocks")
    module.add_function(f)
    module.add_function(main)
    return module


def _edit_module() -> Module:
    """``f(x)`` stores ``x + 1`` and returns it, from one compiled block."""
    func = Function("f", num_params=1, num_regs=2)
    func.new_block("body").instrs = [
        BinOp("add", Reg(1), Reg(0), Imm(1)),
        Store(Reg(1), Imm(_OUT)),
        Jump("done"),
    ]
    func.new_block("done").instrs = [Ret(Reg(1))]
    module = Module("edit")
    module.add_function(func)
    return module


def _slice_assign(block):
    block.instrs[:] = [Move(Reg(1), Imm(42)), Store(Reg(1), Imm(_OUT)), Jump("done")]


def _insert(block):
    block.instrs.insert(1, BinOp("mul", Reg(1), Reg(1), Imm(3)))


def _replace(block):
    block.instrs = [
        BinOp("sub", Reg(1), Reg(0), Imm(5)),
        Store(Reg(1), Imm(_OUT), 8),
        Jump("done"),
    ]


class TestCompiledBlocks:
    @settings(max_examples=300, deadline=None)
    @given(
        entry=_B_BODY,
        on_true=_B_BODY,
        on_false=_B_BODY,
        terminator=_B_TERMINATOR,
        args=_B_ARGS,
        func=st.sampled_from(["f", "main"]),
        harts=st.sampled_from([1, 2]),
        quantum=st.sampled_from([1, 3, 7, 32]),
    )
    def test_random_blocks_match_reference(
        self, entry, on_true, on_false, terminator, args, func, harts, quantum
    ):
        module = _random_block_module(entry, on_true, on_false, terminator)
        spawns = [(func, tuple(args))] * harts
        outcomes = []
        for cls in (ReferenceMachine, Machine):
            machine = _build(cls, module, spawns, quantum)
            machine.run()
            outcomes.append(_architectural(machine))
        assert outcomes[0] == outcomes[1]
        if harts == 1:
            # The entry block and the branch it takes ran compiled.
            assert machine.compiled_retired > len(entry)

    @pytest.mark.parametrize("edit", [_slice_assign, _insert, _replace])
    def test_edited_block_runs_its_new_code(self, edit):
        module = _edit_module()
        block = module.functions["f"].blocks["body"]
        machine = Machine(module)
        assert machine.run_function("f", (10,)) == 11
        assert machine.compiled_retired == 3
        edit(block)

        reference = ReferenceMachine(module)
        expected = reference.run_function("f", (10,))
        assert expected != 11
        fresh = Machine(module)
        assert fresh.run_function("f", (10,)) == expected
        assert fresh.memory == reference.memory
        assert fresh.compiled_retired == len(block.instrs)
        # A second run of the first machine follows the edit too.
        assert machine.run_function("f", (10,)) == expected


# -- compiled regions ---------------------------------------------------------

#: ``f``'s loop counter and loop flag, above the random registers.
_COUNTER, _FLAG = Reg(_NREGS), Reg(_NREGS + 1)
_C_BODY = st.lists(_B_INSTR, min_size=0, max_size=6)


def _random_cfg_module(bodies, conds, trips, port) -> Module:
    """``f`` runs a counted loop, then dumps every register and returns;
    ``main`` calls ``f`` at depth 1.

    The loop's header exits it; its body holds a diamond, a triangle,
    and an arm to an interpreted ``IOWrite`` block; its latch goes back
    to the header.  Every block but ``io`` and ``done`` compiles.
    """
    entry, head, diamond, d_true, d_false, tri, tri_true, latch = bodies
    c_diamond, c_tri, c_io = conds
    f = Function("f", num_params=_NREGS, num_regs=_NREGS + 2)
    for label, instrs in (
        ("entry", [*entry, Move(_COUNTER, Imm(trips)), Jump("head")]),
        (
            "head",
            [
                *head,
                BinOp("sub", _COUNTER, _COUNTER, Imm(1)),
                BinOp("sge", _FLAG, _COUNTER, Imm(0)),
                Branch(_FLAG, "diamond", "exit"),
            ],
        ),
        ("diamond", [*diamond, Branch(c_diamond, "d_true", "d_false")]),
        ("d_true", [*d_true, Jump("tri")]),
        ("d_false", [*d_false, Jump("tri")]),
        ("tri", [*tri, Branch(c_tri, "tri_true", "latch")]),
        ("tri_true", [*tri_true, Branch(c_io, "io", "latch")]),
        ("io", [IOWrite(port, Reg(0)), Jump("latch")]),
        ("latch", [*latch, Jump("head")]),
        (
            "exit",
            [*(Store(Reg(i), Imm(_OUT + 0x300), 8 * i) for i in range(_NREGS)),
             Jump("done")],
        ),
        ("done", [Ret(Reg(0))]),
    ):
        f.new_block(label).instrs = instrs
    main = Function("main", num_params=_NREGS, num_regs=_NREGS)
    main.new_block("entry").instrs = [
        Call("f", tuple(Reg(i) for i in range(_NREGS)), Reg(0)),
        Halt(),
    ]
    module = Module("cfg")
    module.add_function(f)
    module.add_function(main)
    return module


def _region_module() -> Module:
    """``f(x)`` adds 1 in ``body``, 1 more in ``tail`` and stores and
    returns the sum; ``body``'s region inlines ``tail``."""
    func = Function("f", num_params=1, num_regs=2)
    func.new_block("body").instrs = [BinOp("add", Reg(1), Reg(0), Imm(1)), Jump("tail")]
    func.new_block("tail").instrs = [
        BinOp("add", Reg(1), Reg(1), Imm(1)),
        Store(Reg(1), Imm(_OUT)),
        Jump("done"),
    ]
    func.new_block("done").instrs = [Ret(Reg(1))]
    module = Module("region")
    module.add_function(func)
    return module


def _swap_block(block):
    """A new block object for ``block``'s label, with other
    instructions; ``block`` itself is left as it was."""
    return BasicBlock(
        block.label,
        [BinOp("mul", Reg(1), Reg(1), Imm(7)), Store(Reg(1), Imm(_OUT)), Jump("done")],
    )


def _chain_module(links: int, shape: str) -> Module:
    """``f(x)`` walks ``links`` two-instruction blocks; block ``i``
    branches on ``x >> (i % 61)``.  A side block stores the word and
    returns ``i``; ``out`` returns -1.

    No two arms of a branch meet again before ``done``: in ``exit-true``
    the true arm goes to its own side block, in ``exit-false`` the false
    arm does, and in ``skip`` a branch goes to the next block or the one
    after it.  Nested, such a chain would pass CPython's 100 levels of
    indentation well within the region's instruction bound.
    """
    f = Function("f", num_params=1, num_regs=3)
    label = lambda i: f"b{i}" if i < links else "out"  # noqa: E731
    for i in range(links):
        if shape == "skip":
            branch = Branch(Reg(2), label(i + 1), label(min(i + 2, links)))
        else:
            side = f"s{i}"
            f.new_block(side).instrs = [
                Store(Reg(2), Imm(_OUT + 8)),
                Move(Reg(1), Imm(i)),
                Jump("done"),
            ]
            arms = (side, label(i + 1))
            branch = Branch(Reg(2), *(arms if shape == "exit-true" else arms[::-1]))
        f.new_block(label(i)).instrs = [
            BinOp("shr", Reg(2), Reg(0), Imm(i % 61)),
            branch,
        ]
    f.new_block("out").instrs = [Move(Reg(1), Imm(-1)), Jump("done")]
    f.new_block("done").instrs = [Ret(Reg(1))]
    # ``b0`` first, so it is the entry.
    f.blocks = {"b0": f.blocks.pop("b0"), **f.blocks}
    module = Module("chain")
    module.add_function(f)
    return module


def _unobserved_like_reference(
    module, spawns, quantum, max_steps=50_000_000, memory=None
):
    """The reference and an unobserved production run, both started with
    ``memory`` added to the module's, leave the same architectural outcome
    and fail alike; returns the production machine."""
    outcomes = []
    for cls in (ReferenceMachine, Machine):
        machine = _build(cls, module, spawns, quantum)
        machine.memory.update(memory or {})
        error = None
        try:
            machine.run(max_steps=max_steps)
        except MachineError as exc:
            error = str(exc)
        outcomes.append((_architectural(machine), error))
    assert outcomes[0] == outcomes[1]
    return machine


#: Words the arithmetic programs load: memory may hold any int, since
#: ``Load`` does not wrap (a corrupted checkpoint slot holds one).
_A_ADDRS = [_OUT + 0x400 + 8 * i for i in range(4)]
_A_WORD = st.one_of(
    st.sampled_from([
        WORD_MAX, WORD_MIN, WORD_MAX + 1, WORD_MIN - 1, 1 << 64, -(1 << 70),
        (1 << 64) + 5, 0, -1, 255,
    ]),
    st.integers(WORD_MAX + 1, 1 << 80),
    st.integers(-(1 << 80), WORD_MIN - 1),
    st.integers(WORD_MIN, WORD_MAX),
)
#: Masks of both signs, shift amounts past 63, the hash constant of
#: genome's loop, and edge words.
_A_IMMS = [
    0, 1, -1, 3, 15, 63, 64, 65, 255, 1023, -8, -256, 2654435761,
    WORD_MAX, WORD_MIN, 1 << 62,
]
_A_OPS = [
    "mul", "shl", "and", "shr", "min", "max", "add", "sub", "xor", "or",
    "slt", "div", "rem",
]
#: Two registers, so that most values feed later instructions.
_A_REG = st.integers(0, 1).map(Reg)
_A_IMM = st.sampled_from(_A_IMMS).map(Imm)
_A_OPERAND = st.one_of(_A_REG, _A_IMM)
_A_INSTR = st.one_of(
    st.builds(BinOp, st.sampled_from(_A_OPS), _A_REG, _A_OPERAND, _A_OPERAND),
    st.builds(Load, _A_REG, st.sampled_from(_A_ADDRS).map(Imm)),
    st.builds(Store, _A_REG, st.sampled_from(_A_ADDRS).map(Imm)),
    st.builds(Move, _A_REG, _A_OPERAND),
    st.builds(UnOp, st.sampled_from(sorted(UNARY_OPS)), _A_REG, _A_REG),
)


def _make(reg: Reg):
    """``reg`` loaded, masked, moved in or negated, or left as it is."""
    return st.one_of(
        st.none(),
        st.builds(Load, st.just(reg), st.sampled_from(_A_ADDRS).map(Imm)),
        st.builds(BinOp, st.just("and"), st.just(reg), st.just(reg), _A_IMM),
        st.builds(Move, st.just(reg), _A_IMM),
        st.builds(UnOp, st.just("neg"), st.just(reg), st.just(reg)),
    )


#: ``r0`` and ``r1`` made, combined by one of the ops whose spans the
#: region tracks, and stored: a later wrap would hide a missing one, since
#: wrapping commutes with ``add``, ``mul`` and the bitwise ops.
_A_CHAIN = st.builds(
    lambda make0, make1, op, lhs, rhs, addr: [
        *(m for m in (make0, make1) if m is not None),
        BinOp(op, Reg(0), lhs, rhs),
        Store(Reg(0), Imm(addr)),
    ],
    _make(Reg(0)),
    _make(Reg(1)),
    st.sampled_from(["mul", "shl", "and", "shr", "min", "max", "add", "sub"]),
    st.one_of(st.just(Reg(0)), st.just(Reg(1)), _A_IMM),
    st.one_of(st.just(Reg(1)), st.just(Reg(0)), _A_IMM),
    st.sampled_from(_A_ADDRS),
)
_A_BODY = st.lists(st.one_of(_A_INSTR.map(lambda i: [i]), _A_CHAIN), max_size=4).map(
    lambda parts: [instr for part in parts for instr in part]
)
#: A branch arm moves immediates into registers, and the code where the
#: arms meet uses them at once, so the spans there come from both arms.
_A_ARM = st.lists(st.builds(Move, _A_REG, _A_IMM), min_size=1, max_size=2)
_A_USE = st.builds(
    lambda op, rhs, addr: [BinOp(op, Reg(0), Reg(0), rhs), Store(Reg(0), Imm(addr))],
    st.sampled_from(["mul", "shl", "add", "sub", "and", "min", "max"]),
    _A_OPERAND,
    st.sampled_from(_A_ADDRS),
)


def _arith_module(bodies, arms, uses, conds, trips) -> Module:
    """``f`` runs a loop unrolled twice, with a diamond in the first copy
    and a triangle in the second, then dumps every register and returns.

    The copies run ``head``/``body``/``d_true`` or ``d_false``/``join``
    and ``head.u1``/``body.u1``/``tri``/``latch``; ``latch`` goes back to
    ``head``.  Every block but ``done`` compiles.
    """
    entry, head, body, join, head_u1, latch = bodies
    (d_true, d_false, tri), (use_join, use_latch) = arms, uses
    c_diamond, c_tri = conds
    f = Function("f", num_params=_NREGS, num_regs=_NREGS + 2)

    def header(label, instrs, then):
        return (
            label,
            [
                *instrs,
                BinOp("sub", _COUNTER, _COUNTER, Imm(1)),
                BinOp("sge", _FLAG, _COUNTER, Imm(0)),
                Branch(_FLAG, then, "exit"),
            ],
        )

    for label, instrs in (
        ("entry", [*entry, Move(_COUNTER, Imm(trips)), Jump("head")]),
        header("head", head, "body"),
        ("body", [*body, Branch(c_diamond, "d_true", "d_false")]),
        ("d_true", [*d_true, Jump("join")]),
        ("d_false", [*d_false, Jump("join")]),
        ("join", [*use_join, *join, Jump("head.u1")]),
        header("head.u1", head_u1, "body.u1"),
        ("body.u1", [Branch(c_tri, "tri", "latch")]),
        ("tri", [*tri, Jump("latch")]),
        ("latch", [*use_latch, *latch, Jump("head")]),
        (
            "exit",
            [*(Store(Reg(i), Imm(_OUT + 0x300), 8 * i) for i in range(_NREGS)),
             Jump("done")],
        ),
        ("done", [Ret(Reg(0))]),
    ):
        f.new_block(label).instrs = instrs
    module = Module("arith")
    module.add_function(f)
    return module


class TestCompiledRegions:
    @settings(max_examples=300, deadline=None)
    @given(
        bodies=st.lists(_C_BODY, min_size=8, max_size=8),
        conds=st.lists(_B_OPERAND, min_size=3, max_size=3),
        trips=st.integers(0, 4),
        port=st.integers(0, 3),
        args=_B_ARGS,
        func=st.sampled_from(["f", "main"]),
        harts=st.sampled_from([1, 2]),
        quantum=st.sampled_from([1, 3, 7, 32]),
        max_steps=st.sampled_from([50_000_000, 1, 2, 5, 9, 17, 33, 60]),
    )
    def test_random_cfgs_match_reference(
        self, bodies, conds, trips, port, args, func, harts, quantum, max_steps
    ):
        module = _random_cfg_module(bodies, conds, trips, port)
        spawns = [(func, tuple(args))] * harts
        machine = _unobserved_like_reference(module, spawns, quantum, max_steps)
        if harts == 1 and max_steps > 100:
            assert machine.compiled_retired > 0

    @settings(max_examples=300, deadline=None)
    @given(
        bodies=st.lists(_A_BODY, min_size=6, max_size=6),
        arms=st.lists(_A_ARM, min_size=3, max_size=3),
        uses=st.lists(_A_USE, min_size=2, max_size=2),
        conds=st.lists(_A_REG, min_size=2, max_size=2),
        trips=st.integers(0, 5),
        args=_B_ARGS,
        words=st.lists(_A_WORD, min_size=len(_A_ADDRS), max_size=len(_A_ADDRS)),
        quantum=st.sampled_from([1, 7, 32]),
        max_steps=st.sampled_from([50_000_000, 3, 20, 45]),
    )
    def test_overflow_guards_match_reference(
        self, bodies, arms, uses, conds, trips, args, words, quantum, max_steps
    ):
        """Arithmetic chains over loaded non-words and edge words, across
        diamonds and an unrolled loop, wrap exactly where the reference
        does."""
        module = _arith_module(bodies, arms, uses, conds, trips)
        machine = _unobserved_like_reference(
            module, [("f", tuple(args))], quantum, max_steps,
            memory=dict(zip(_A_ADDRS, words)),
        )
        if max_steps > 100:
            assert machine.compiled_retired > 0

    def test_loop_runs_in_one_region(self):
        module = _random_cfg_module([[]] * 8, [Imm(1), Imm(0), Imm(0)], 100, 0)
        head = module.functions["f"].blocks["head"]
        machine = _unobserved_like_reference(module, [("f", (0,) * _NREGS)], 32)
        # Every block but the interpreted ``io`` and ``done`` ran compiled.
        assert machine.compiled_retired == machine.total_retired - 1
        assert [name for name, *_ in head.code[1]] == [
            "head", "diamond", "d_true", "tri", "latch", "exit"
        ]

    @pytest.mark.parametrize(
        "edit", [_slice_assign, _insert, _replace, _swap_block]
    )
    def test_edited_successor_runs_its_new_code(self, edit):
        module = _region_module()
        func = module.functions["f"]
        body, tail = func.blocks["body"], func.blocks["tail"]
        machine = Machine(module)
        assert machine.run_function("f", (10,)) == 12
        assert machine.compiled_retired == 5
        assert [name for name, *_ in body.code[1]] == ["body", "tail"]
        if edit is _swap_block:
            func.blocks["tail"] = tail = _swap_block(tail)
        else:
            edit(tail)

        reference = ReferenceMachine(module)
        expected = reference.run_function("f", (10,))
        assert expected != 12
        fresh = Machine(module)
        assert fresh.run_function("f", (10,)) == expected
        assert fresh.memory == reference.memory
        assert fresh.compiled_retired == 2 + len(tail.instrs)
        # A second run of the first machine follows the edit too.
        assert machine.run_function("f", (10,)) == expected

    def test_grown_register_count_compiles_again(self):
        # ``tail`` names r2, which ``f`` does not declare, so it is
        # interpreted, on a resumed hart whose register file has r2.
        module = _region_module()
        func = module.functions["f"]
        func.blocks["tail"].instrs.insert(0, Move(Reg(2), Imm(5)))
        resume_at = Continuation("f", "body", 0, ())
        runs = []
        for num_regs in (2, 3):
            func.num_regs = num_regs
            machine = Machine(module)
            machine.resume(0, resume_at, [10, 0, 0])
            machine.run()
            reference = ReferenceMachine(module)
            reference.resume(0, resume_at, [10, 0, 0])
            reference.run()
            assert _architectural(machine) == _architectural(reference)
            runs.append(machine.compiled_retired)
        assert runs == [2, 6]

    @pytest.mark.parametrize("shape", ["exit-true", "exit-false", "skip"])
    def test_long_branch_chain(self, shape):
        module = _chain_module(160, shape)
        for x in (0, 1, 12345, 1 << 40, -2):
            machine = _unobserved_like_reference(module, [("f", (x,))], 32)
            assert machine.compiled_retired > 0
        for block in module.functions["f"].blocks.values():
            if block.code is not None and block.code[2] is not None:
                inlined = sum(len(instrs) for _, _, instrs in block.code[1])
                assert inlined <= _REGION_MAX_INSTRS


# -- overflow guards ------------------------------------------------------------

#: ``f``'s parameter: the region's analysis knows nothing of it.
_X = Reg(0)
_LOADED = _OUT + 0x500
_BYTE = BinOp("and", Reg(1), _X, Imm(255))  # r1 in [0, 255]

#: One block each, ending in ``r2 = ...``: the wrap tests its code gets.
_GUARD_CASES = {
    "immediates are exact": (
        [Move(Reg(1), Imm(5)), BinOp("add", Reg(2), Reg(1), Imm(7))], []),
    "an entry register may be any int": (
        [BinOp("add", Reg(2), _X, Imm(0))], ["full"]),
    "a loaded word may be any int": (
        [Load(Reg(1), Imm(_LOADED)), BinOp("add", Reg(2), Reg(1), Imm(0))],
        ["full"]),
    "a Move copies its span": (
        [_BYTE, Move(Reg(3), Reg(1)), BinOp("add", Reg(2), Reg(3), Imm(1))], []),
    "a compare is 0 or 1": (
        [BinOp("slt", Reg(1), _X, Imm(5)), BinOp("add", Reg(2), Reg(1), Imm(1))],
        []),
    "and with a non-negative mask": ([BinOp("and", Reg(2), _X, Imm(255))], []),
    "and with a negative mask": ([BinOp("and", Reg(2), _X, Imm(-8))], ["full"]),
    "a negative and stays a word": (
        [BinOp("and", Reg(1), _X, Imm(-8)),
         BinOp("add", Reg(2), Reg(1), Imm(WORD_MIN))],
        ["full", "low"]),
    **{
        f"{op} of two words": (
            [UnOp("neg", Reg(1), _X), UnOp("not", Reg(3), _X),
             BinOp(op, Reg(2), Reg(1), Reg(3))],
            [])
        for op in ("and", "or", "xor", "shr", "min", "max")
    },
    "min with any int": (
        [UnOp("neg", Reg(1), _X), BinOp("min", Reg(2), Reg(1), _X)], ["full"]),
    "shl by a constant": ([_BYTE, BinOp("shl", Reg(2), Reg(1), Imm(3))], []),
    "shl by a constant past the top": (
        [_BYTE, BinOp("shl", Reg(2), Reg(1), Imm(60))], ["high"]),
    "shl by a register": (
        [_BYTE, BinOp("and", Reg(3), _X, Imm(63)),
         BinOp("shl", Reg(2), Reg(1), Reg(3))],
        ["full"]),
    "sub below the bottom": (
        [_BYTE, BinOp("sub", Reg(2), Imm(WORD_MIN), Reg(1))], ["low"]),
    "mul in range": (
        [BinOp("and", Reg(1), _X, Imm(1023)),
         BinOp("mul", Reg(2), Reg(1), Imm(2654435761))],
        []),
    "mul past the top": (
        [_BYTE, BinOp("mul", Reg(2), Reg(1), Imm(WORD_MAX))], ["high"]),
    "div keeps its wrap": (
        [Move(Reg(1), Imm(10)), BinOp("div", Reg(2), Reg(1), Imm(3))], ["full"]),
    "a UnOp result is a word": (
        [UnOp("abs", Reg(1), _X), BinOp("add", Reg(2), Reg(1), Imm(0))], []),
}


def _guarded(instrs, join_arms=None) -> Module:
    """``f(x)`` runs ``instrs``, stores ``r2`` and returns it.  With
    ``join_arms``, ``instrs`` first branches on ``x`` to arms that meet
    again before the store."""
    func = Function("f", num_params=1, num_regs=4)
    func.new_block("body").instrs = list(instrs)
    for label, arm in (join_arms or {}).items():
        func.new_block(label).instrs = [*arm, Jump("join")]
    if join_arms is not None:
        func.new_block("join").instrs = [
            BinOp("add", Reg(2), Reg(1), Imm(1)),
            Jump("store"),
        ]
    else:
        func.blocks["body"].instrs.append(Jump("store"))
    func.new_block("store").instrs = [Store(Reg(2), Imm(_OUT)), Jump("done")]
    func.new_block("done").instrs = [Ret(Reg(2))]
    module = Module("guards")
    module.add_function(func)
    return module


def _guards(module, monkeypatch):
    """The kind of each wrap test in the code made for ``f``'s regions:
    ``full``, or ``high``/``low`` for a test of one bound."""
    sources = []

    def capture(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(machine_module, "compile", capture, raising=False)
    Machine(module).run_function("f", (0,))
    monkeypatch.undo()
    tests = [
        line.strip().split(":")[0]
        for source in sources
        for line in source.splitlines()
        if " = ((" in line
    ]
    return [
        "full" if " not " in test else "high" if ">" in test else "low"
        for test in tests
    ]


_GUARD_INPUTS = [0, 1, -1, 5, 60, 63, WORD_MAX, WORD_MIN, 1 << 62]
_GUARD_LOADS = [WORD_MAX + 1, WORD_MIN - 1, 1 << 70, WORD_MAX, -1]


class TestOverflowGuards:
    """A region wraps a ``BinOp`` result only where it can leave the word
    range, and still wraps exactly where the interpreter does."""

    @pytest.mark.parametrize("case", sorted(_GUARD_CASES))
    def test_rule(self, case, monkeypatch):
        instrs, kinds = _GUARD_CASES[case]
        module = _guarded(instrs)
        assert _guards(module, monkeypatch) == kinds
        for x in _GUARD_INPUTS:
            for word in _GUARD_LOADS:
                machine = _unobserved_like_reference(
                    module, [("f", (x,))], 32, memory={_LOADED: word}
                )
                # Only the ``Ret`` was interpreted.
                assert machine.compiled_retired == machine.total_retired - 1

    @pytest.mark.parametrize("values", [(1, WORD_MAX), (WORD_MAX, 1)])
    @pytest.mark.parametrize("shape", ["diamond", "triangle-true", "triangle-false"])
    def test_arms_meet_in_their_hull(self, shape, values, monkeypatch):
        """``r1`` is one value before the branch or on one arm and another
        on the other arm; ``r1 + 1`` past the join overflows on one path
        only, so its test must cover both."""
        first, second = values
        if shape == "diamond":
            branch = Branch(_X, "t", "f")
            arms = {"t": [Move(Reg(1), Imm(first))], "f": [Move(Reg(1), Imm(second))]}
        else:
            branch = Branch(_X, *(("t", "join") if shape == "triangle-true"
                                  else ("join", "t")))
            arms = {"t": [Move(Reg(1), Imm(second))]}
        module = _guarded([Move(Reg(1), Imm(first)), branch], arms)
        assert _guards(module, monkeypatch) == ["high"]
        for x in (0, 1):
            machine = _unobserved_like_reference(module, [("f", (x,))], 32)
            assert machine.compiled_retired == machine.total_retired - 1
        assert {
            Machine(module).run_function("f", (x,)) for x in (0, 1)
        } == {2, WORD_MIN}


# -- retire runs --------------------------------------------------------------

#: Random block bodies with every other event an observed run delivers.
_R_BODY = st.lists(
    st.one_of(
        _B_INSTR,
        st.builds(
            AtomicRMW,
            st.sampled_from(sorted(ATOMIC_OPS)),
            _B_REG,
            _B_ADDR,
            _B_OPERAND,
            _B_OFFSET,
        ),
        st.builds(Fence),
        st.builds(IOWrite, st.integers(0, 3), _B_OPERAND),
    ),
    min_size=0,
    max_size=12,
)


def _batched_like_reference(module, spawns, quantum) -> RunCollector:
    """Run ``module`` per instruction on the oracle and in retire runs on
    the production machine; both must see the same stream, retires
    compared as counts between the other events, and leave the same
    memory, I/O log and retired counts."""
    reference = _build(ReferenceMachine, module, spawns, quantum)
    expected = CollectingObserver()
    reference.run(expected)
    machine = _build(Machine, module, spawns, quantum)
    got = RunCollector()
    machine.run(got)
    expected.events = _counted(expected.events)
    assert _outcome(machine, got) == _outcome(reference, expected)
    assert sum(got.runs) == machine.total_retired
    return got


class TestRetireRuns:
    @settings(max_examples=300, deadline=None)
    @given(
        entry=_R_BODY,
        on_true=_R_BODY,
        on_false=_R_BODY,
        terminator=_B_TERMINATOR,
        args=_B_ARGS,
        func=st.sampled_from(["f", "main"]),
        harts=st.sampled_from([1, 2]),
        quantum=st.sampled_from([1, 3, 7, 32]),
    )
    def test_random_blocks_match_reference(
        self, entry, on_true, on_false, terminator, args, func, harts, quantum
    ):
        module = _random_block_module(entry, on_true, on_false, terminator)
        _batched_like_reference(module, [(func, tuple(args))] * harts, quantum)

    @pytest.mark.parametrize("harts", ["as built", "first twice"])
    @pytest.mark.parametrize("quantum", [1, 3, 7, 32])
    @pytest.mark.parametrize("program", [*_PROGRAMS, "calls"])
    def test_programs_match_reference(self, program, quantum, harts, request):
        if program == "calls":
            module, spawns = _calls_module()
        else:
            module, spawns = request.getfixturevalue(program)
        if harts == "first twice":
            spawns = spawns[:1] * 2
        got = _batched_like_reference(module, spawns, quantum)
        # Retires were delivered in runs, not one at a time.
        assert quantum == 1 or max(got.runs) > 1


# -- steppers -----------------------------------------------------------------

#: Registers of a random hart function; the loop counter sits above them,
#: where the random bodies cannot reach it.
_S_COUNTER = Reg(_NREGS)


def _hart_function(name: str, head, loop, tail, iters: int, halts: bool) -> Function:
    """``head``, then ``iters`` rounds of ``loop`` + a call to ``g``, then
    ``tail``, ending in ``Halt`` or a top-level ``Ret``."""
    func = Function(name, num_params=_NREGS, num_regs=_NREGS + 1)
    func.new_block("entry").instrs = [
        *head,
        Move(_S_COUNTER, Imm(iters)),
        Jump("loop"),
    ]
    func.new_block("loop").instrs = [
        *loop,
        Call("g", (Reg(1), Reg(2)), Reg(3)),
        BinOp("sub", _S_COUNTER, _S_COUNTER, Imm(1)),
        Branch(_S_COUNTER, "loop", "done"),
    ]
    func.new_block("done").instrs = [*tail, Halt() if halts else Ret(Reg(0))]
    return func


def _harts_module(callee, harts) -> Module:
    """One function per hart (:func:`_hart_function`), each calling the
    shared ``g(a, b)``, whose body is ``callee`` and which returns ``r0``."""
    module = Module("harts")
    g = Function("g", num_params=2, num_regs=_NREGS)
    g.new_block("entry").instrs = [*callee, Ret(Reg(0))]
    module.add_function(g)
    for k, shape in enumerate(harts):
        module.add_function(_hart_function(f"h{k}", *shape))
    return module


_S_HART = st.tuples(
    _R_BODY, _R_BODY, _R_BODY, st.integers(1, 4), st.booleans()
)


class TestSteppers:
    @settings(max_examples=200, deadline=None)
    @given(
        callee=_R_BODY,
        harts=st.lists(_S_HART, min_size=2, max_size=3),
        args=_B_ARGS,
        quantum=st.sampled_from([1, 3, 4, 7, 32]),
        trip=st.floats(0, 1),
    )
    def test_random_harts_match_reference(self, callee, harts, args, quantum, trip):
        module = _harts_module(callee, harts)
        spawns = [(f"h{k}", tuple(args)) for k in range(len(harts))]
        outcomes, _ = _three_runs(module, spawns, quantum)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        total = outcomes[2][0][2]
        # A trip point anywhere in the run, mostly inside a quantum.
        max_steps = max(1, int(trip * total))
        tripped, _ = _three_runs(module, spawns, quantum, max_steps)
        assert tripped[0] == tripped[1] == tripped[2]
        assert tripped[2][1] == f"machine exceeded max_steps={max_steps}"

    @pytest.mark.parametrize("second", ["observed", "unobserved"])
    @pytest.mark.parametrize("compiled", [False, True])
    def test_run_after_a_raise_continues_like_reference(self, compiled, second):
        module, spawns = _calls_module(compiled)
        spawns = spawns * 2
        obs = CollectingObserver()
        _build(Machine, module, spawns, 7).run(obs)
        mid_quantum = 0
        for k in range(0, len(obs.events), 11):
            outcomes = []
            for cls in (ReferenceMachine, Machine):
                machine = _build(cls, module, spawns, 7)
                with pytest.raises(Fired):
                    machine.run(RaiseAt(k))
                mid_quantum += cls is Machine and any(
                    h.index > 0 for h in machine.harts
                )
                rest = CollectingObserver() if second == "observed" else None
                machine.run(rest)
                outcomes.append((_architectural(machine), rest and rest.events))
            assert outcomes[0] == outcomes[1], f"diverged after event {k}"
        assert mid_quantum > 10

    @pytest.mark.parametrize("ending", ["close", "collect"])
    def test_suspended_stepper_delivers_nothing_when_ended(self, ending):
        module, spawns = _calls_module()
        machine = _build(Machine, module, spawns, 32)
        got = RunCollector()
        step = machine.stepper(machine.harts[0], got)
        for budget in (3, 5, 2):
            assert step.send(budget) == budget
            # Each quantum's retires are delivered by its end.
            assert sum(got.runs) == machine.harts[0].retired
        # Suspend it after a quantum that ended in a retire run.
        while got.events[-1][0] != EV_RETIRE:
            step.send(1)
        delivered = list(got.events)
        if ending == "close":
            step.close()
        else:
            del step
            gc.collect()
        assert got.events == delivered
        assert machine.harts[0].index > 0

    def test_unobserved_runs_make_no_observer_call(
        self, genome, ocean, logger, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("an unobserved run called its observer")

        for name in (
            "on_retire", "on_retire_run", "on_load", "on_store", "on_ckpt",
            "on_boundary", "on_fence", "on_atomic", "on_halt", "on_io",
        ):
            monkeypatch.setattr(machine_module._NULL_OBSERVER, name, refuse)
        programs = [genome, ocean, logger, _calls_module()]
        programs += [(p.module, p.spawns) for p in litmus_corpus(range(4))]
        for module, spawns in programs:
            machine = _build(Machine, module, spawns, 4)
            assert machine.run() > 0
            assert all(h.halted for h in machine.harts)

    def test_explore_program_matches_recorded_results(self):
        # The digest of ``explore_program``'s results for corpus seeds
        # 0-15 under the default arguments, as the interpreter loop
        # produced them before harts ran as steppers.
        digest = hashlib.sha256()
        for program in litmus_corpus(range(16)):
            r = explore_program(program)
            row = (
                r.name, r.seed, r.schedule_universe, r.schedules_run,
                r.exhaustive, r.step_limit,
                sorted((addr, sorted(v)) for addr, v in r.allowed.items()),
                r.pipeline_schedules, r.pipeline_violations, r.pipeline_kinds,
            )
            digest.update(repr(row).encode())
        assert digest.hexdigest() == (
            "40f27ffec00f47cc7151a61352c2cf8b1e925be37789ca41f9310184ef0279e7"
        )

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
and runs whole blocks as generated straight-line code, so
:class:`TestUnobservedRuns` holds it to the same architectural outcome
as a counted run on either machine, and :class:`TestCompiledBlocks`
does the same for random blocks and for blocks edited between runs.

An observer that takes retire runs gets its retires buffered, so
:class:`TestRetireRuns` holds the expanded stream it sees to the
oracle's per-instruction stream, and a batching raiser to the same
interrupted hart.
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
from repro.isa.machine import Hart, Machine, MachineError
from repro.isa.trace import (
    EV_RETIRE,
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


class RunCollector(CollectingObserver):
    """Takes retires in runs and records them expanded, one tuple each."""

    def __init__(self) -> None:
        super().__init__()
        self.runs = []

    def on_retire(self, core, kind):
        raise AssertionError("a retire reached a batching observer alone")

    def on_retire_run(self, core, kinds):
        assert kinds, "empty retire run"
        self.runs.append(len(kinds))
        self.events.extend((EV_RETIRE, core, kind) for kind in kinds)


class RunRaiseAt(RaiseAt):
    """:class:`RaiseAt` that takes retires in runs, so it raises only at
    the other events."""

    def on_retire_run(self, core, kinds):
        self.events.extend((EV_RETIRE, core, kind) for kind in kinds)


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
                        raiser.events,
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
    the production machine; both must see the same expanded stream and
    leave the same memory, I/O log and retired counts."""
    reference = _build(ReferenceMachine, module, spawns, quantum)
    expected = CollectingObserver()
    reference.run(expected)
    machine = _build(Machine, module, spawns, quantum)
    got = RunCollector()
    machine.run(got)
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

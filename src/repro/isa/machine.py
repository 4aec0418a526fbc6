"""Functional execution of IR modules.

The :class:`Machine` runs one hart per core over a shared, word-granular
memory, delivering events to an :class:`~repro.isa.trace.Observer` as
instructions retire.  It is *architecturally exact*: the Capri architecture
never changes what programs compute, only how stores become persistent, so
this machine is the reference that crash-recovery tests compare against.

Calls and recovery
------------------
Functions have private register namespaces; on ``Call`` the machine
suspends the caller frame and starts the callee with arguments in
``r0..rN-1``.  Two things bridge this to the paper's recovery story:

* **Argument checkpoints.**  Real Capri checkpoints a callee's live-in
  registers on the caller side (the arg registers' last defs precede the
  call boundary).  The machine mirrors this by emitting checkpoint events
  for every argument at call time, into the *callee-depth* slots.
* **Continuations.**  At every region boundary the machine snapshots the
  resume point: (function, label, index-after-boundary) plus the suspended
  caller frames.  In a real system the caller frames live in stack memory,
  which WSP makes persistent; the continuation snapshot is our image of
  that persistent stack (see DESIGN.md).  The *interrupted* frame's
  registers are deliberately **not** in the snapshot — recovery must
  rebuild them from checkpoint storage plus recovery blocks, so the Capri
  compiler's checkpoint analyses are load-bearing in our correctness tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
    eval_unop,
)
from repro.ir.module import (
    CKPT_BASE,
    CKPT_CORE_STRIDE,
    CKPT_FRAME_STRIDE,
    MAX_CALL_DEPTH,
    MAX_CORES,
    MAX_REGS,
    Module,
    ckpt_slot_addr,
)
from repro.ir.values import WORD_BYTES, WORD_MAX, WORD_MIN, Reg, wrap_word
from repro.isa.trace import Observer


class MachineError(Exception):
    """Raised on runtime errors: step-limit overrun, stack overflow, etc."""


def _check_core_id(core_id: int) -> None:
    """Harts write checkpoints to their core's slot range; a core id
    without one would alias program memory."""
    if not 0 <= core_id < MAX_CORES:
        raise MachineError(
            f"core {core_id} outside the {MAX_CORES} cores with checkpoint storage"
        )


#: Immutable snapshot of one suspended caller frame.
#: (function name, resume label, resume index, regs tuple, ret-dst index | None)
FrameSnapshot = Tuple[str, str, int, Tuple[int, ...], Optional[int]]


@dataclass(frozen=True)
class Continuation:
    """A resume point captured at a region boundary.

    ``label``/``index`` address the first instruction of the interrupted
    region (the instruction *after* the boundary).  ``callstack`` holds the
    suspended caller frames, innermost last.
    """

    func_name: str
    label: str
    index: int
    callstack: Tuple[FrameSnapshot, ...]

    @property
    def depth(self) -> int:
        """Call depth of the interrupted frame."""
        return len(self.callstack)


class Frame:
    """A suspended caller awaiting a ``Ret``."""

    __slots__ = ("func", "label", "index", "regs", "ret_reg")

    def __init__(
        self,
        func: Function,
        label: str,
        index: int,
        regs: List[int],
        ret_reg: Optional[int],
    ) -> None:
        self.func = func
        self.label = label
        self.index = index
        self.regs = regs
        self.ret_reg = ret_reg

    def snapshot(self) -> FrameSnapshot:
        return (self.func.name, self.label, self.index, tuple(self.regs), self.ret_reg)


class Hart:
    """One hardware thread of execution (one per core)."""

    __slots__ = (
        "core_id",
        "func",
        "label",
        "index",
        "regs",
        "callstack",
        "halted",
        "started",
        "spawn_args",
        "spawn_func",
        "retired",
        "exit_value",
    )

    def __init__(self, core_id: int, func: Function, args: Sequence[int]) -> None:
        self.core_id = core_id
        self.func = func
        self.label = func.entry.label
        self.index = 0
        self.regs: List[int] = [0] * func.num_regs
        for i, a in enumerate(args):
            self.regs[i] = wrap_word(a)
        self.callstack: List[Frame] = []
        self.halted = False
        self.started = False
        self.spawn_func = func.name
        self.spawn_args = tuple(wrap_word(a) for a in args)
        self.retired = 0
        #: Value returned by the top-level ``Ret`` (0 until then).
        self.exit_value = 0

    @property
    def depth(self) -> int:
        return len(self.callstack)

    def continuation(self) -> Continuation:
        """Snapshot the current position (used at region boundaries)."""
        return Continuation(
            func_name=self.func.name,
            label=self.label,
            index=self.index,
            callstack=tuple(f.snapshot() for f in self.callstack),
        )


_NULL_OBSERVER = Observer()


class Machine:
    """Executes a module's harts over shared memory, emitting events.

    Parameters
    ----------
    module:
        The (possibly Capri-instrumented) program.
    quantum:
        Instructions executed per hart per scheduling turn.  Round-robin
        with a fixed quantum keeps multi-hart runs deterministic; a lone
        live hart runs on without yielding.
    """

    def __init__(self, module: Module, quantum: int = 32) -> None:
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.module = module
        self.quantum = quantum
        self.memory: Dict[int, int] = dict(module.initial_data)
        self.harts: List[Hart] = []
        self.total_retired = 0
        #: External-device output log: (core, port, value) in issue order.
        #: I/O effects leave the persistence domain — a crash cannot undo
        #: them (the Section 3.3 open problem); tests use this log to
        #: check at-least-once delivery across failures.
        self.io_log: List[Tuple[int, int, int]] = []

    # -- hart management -----------------------------------------------------

    def spawn(self, func_name: str, args: Sequence[int] = ()) -> Hart:
        """Create a hart running ``func_name(*args)`` on the next core id."""
        func = self.module.functions[func_name]
        if len(args) != func.num_params:
            raise MachineError(
                f"spawn {func_name!r}: {len(args)} args, expected {func.num_params}"
            )
        _check_core_id(len(self.harts))
        hart = Hart(len(self.harts), func, args)
        self.harts.append(hart)
        return hart

    def resume(
        self, core_id: int, continuation: Continuation, regs: Sequence[int]
    ) -> Hart:
        """Install a recovered hart at ``continuation`` with register file ``regs``.

        Used by the crash-recovery protocol: ``regs`` comes from the NVM
        checkpoint storage (plus recovery-block reconstruction) and the
        caller frames from the continuation snapshot.
        """
        _check_core_id(core_id)
        func = self.module.functions[continuation.func_name]
        hart = Hart(core_id, func, ())
        hart.label = continuation.label
        hart.index = continuation.index
        hart.regs = [wrap_word(v) for v in regs]
        if len(hart.regs) < func.num_regs:
            hart.regs.extend([0] * (func.num_regs - len(hart.regs)))
        hart.callstack = [
            Frame(
                self.module.functions[name],
                label,
                index,
                list(saved_regs),
                ret_reg,
            )
            for (name, label, index, saved_regs, ret_reg) in continuation.callstack
        ]
        hart.started = True  # no spawn-time events on resume
        while len(self.harts) <= core_id:
            self.harts.append(None)  # type: ignore[arg-type]
        self.harts[core_id] = hart
        return hart

    # -- memory ----------------------------------------------------------------

    def read_word(self, addr: int) -> int:
        return self.memory.get(addr, 0)

    def write_word(self, addr: int, value: int) -> None:
        self.memory[addr] = wrap_word(value)

    # -- execution ----------------------------------------------------------------

    def run(
        self,
        observer: Optional[Observer] = None,
        max_steps: int = 50_000_000,
    ) -> int:
        """Round-robin execute all harts until they halt; return retired count.

        Raises :class:`MachineError` if ``max_steps`` instructions retire
        without completion (runaway loop guard).
        """
        obs = observer or _NULL_OBSERVER
        steps_left = max_steps
        live = [h for h in self.harts if h is not None and not h.halted]
        while live:
            progressed = False
            # A lone hart has no one to yield to, and no observer sees
            # quantum boundaries: give it the whole remaining budget.
            quantum = self.quantum if len(live) > 1 else steps_left
            for hart in live:
                if hart.halted:
                    continue
                n = self._run_quantum(hart, obs, min(quantum, steps_left))
                steps_left -= n
                progressed = progressed or n > 0
                if steps_left <= 0:
                    raise MachineError(f"machine exceeded max_steps={max_steps}")
            live = [h for h in live if not h.halted]
            if live and not progressed:
                raise MachineError("no hart can make progress")
        return self.total_retired

    def _start_hart(self, hart: Hart, obs: Observer) -> None:
        """Emit spawn-time events: argument checkpoints + an implicit boundary.

        The implicit boundary (region id -1) gives crash recovery a
        committed resume point covering "crash before the first compiler
        boundary commits"; its continuation is simply the spawn point.
        """
        hart.started = True
        core = hart.core_id
        for i, value in enumerate(hart.spawn_args):
            addr = ckpt_slot_addr(core, i, 0)
            self.memory[addr] = value
            obs.on_ckpt(core, i, value, addr)
        obs.on_boundary(core, -1, hart.continuation())

    def _run_quantum(self, hart: Hart, obs: Observer, budget: int) -> int:
        """Execute up to ``budget`` instructions on ``hart``.

        The current block's instruction list, the index into it and the
        register file live in locals; they are reloaded only when control
        leaves the block (``Branch``/``Jump``/``Call``/``Ret``).
        ``hart.index`` is written back before every callback that reads
        the hart's position (``on_boundary``'s continuation, the call and
        return helpers) and, through ``finally``, on every exit, so an
        observer that raises mid-quantum leaves the hart at the
        instruction whose event it was delivering.

        An unobserved run (``obs`` is the null observer, as for every
        resumed crash point) skips the two pieces of work only an
        observer consumes: the per-instruction ``on_retire`` call and the
        boundary's continuation snapshot.  Every architectural effect is
        the same either way.
        """
        if budget <= 0:
            return 0
        if not hart.started:
            self._start_hart(hart, obs)
        if hart.halted:
            return 0
        executed = 0
        memory = self.memory
        core = hart.core_id
        observed = obs is not _NULL_OBSERVER
        on_retire = obs.on_retire
        blocks = hart.func.blocks
        instrs = blocks[hart.label].instrs
        index = hart.index
        regs = hart.regs
        core_slots = CKPT_BASE + core * CKPT_CORE_STRIDE
        slot_base = core_slots + len(hart.callstack) * CKPT_FRAME_STRIDE
        try:
            while executed < budget:
                instr = instrs[index]
                cls = type(instr)
                if observed:
                    on_retire(core, cls.__name__)
                executed += 1

                if cls is BinOp:
                    lhs = instr.lhs
                    rhs = instr.rhs
                    value = BINARY_OPS[instr.op](
                        regs[lhs.index] if type(lhs) is Reg else lhs.value,
                        regs[rhs.index] if type(rhs) is Reg else rhs.value,
                    )
                    # wrap_word is the identity on in-range words.
                    if not WORD_MIN <= value <= WORD_MAX:
                        value = wrap_word(value)
                    regs[instr.dst.index] = value
                    index += 1
                elif cls is Branch:
                    c = instr.cond
                    cond = regs[c.index] if type(c) is Reg else c.value
                    label = instr.if_true if cond != 0 else instr.if_false
                    hart.label = label
                    instrs = blocks[label].instrs
                    index = 0
                elif cls is Jump:
                    label = instr.target
                    hart.label = label
                    instrs = blocks[label].instrs
                    index = 0
                elif cls is Load:
                    base = instr.addr
                    addr = (
                        regs[base.index] if type(base) is Reg else base.value
                    ) + instr.offset
                    regs[instr.dst.index] = memory.get(addr, 0)
                    obs.on_load(core, addr)
                    index += 1
                elif cls is CheckpointStore:
                    reg = instr.src.index
                    value = regs[reg]
                    if reg >= MAX_REGS:
                        raise ValueError(
                            f"register index {reg} outside checkpoint storage"
                        )
                    addr = slot_base + reg * WORD_BYTES
                    memory[addr] = value
                    obs.on_ckpt(core, reg, value, addr)
                    index += 1
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
                    index += 1
                elif cls is Move:
                    src = instr.src
                    regs[instr.dst.index] = (
                        regs[src.index] if type(src) is Reg else src.value
                    )
                    index += 1
                elif cls is RegionBoundary:
                    # The continuation points at the *next* instruction:
                    # the first instruction of the region this boundary
                    # opens.
                    index += 1
                    if observed:
                        hart.index = index
                        obs.on_boundary(
                            core, instr.region_id, hart.continuation()
                        )
                elif cls is UnOp:
                    s = instr.src
                    a = regs[s.index] if type(s) is Reg else s.value
                    regs[instr.dst.index] = eval_unop(instr.op, a)
                    index += 1
                elif cls is Call or cls is Ret:
                    hart.index = index
                    if cls is Call:
                        self._do_call(hart, instr, obs)
                    else:
                        self._do_ret(hart, instr, obs)
                        if hart.halted:
                            break
                    blocks = hart.func.blocks
                    instrs = blocks[hart.label].instrs
                    index = hart.index
                    regs = hart.regs
                    slot_base = core_slots + len(hart.callstack) * CKPT_FRAME_STRIDE
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
                    index += 1
                elif cls is Fence:
                    obs.on_fence(core)
                    index += 1
                elif cls is IOWrite:
                    v = instr.value
                    value = regs[v.index] if type(v) is Reg else v.value
                    self.io_log.append((core, instr.port, value))
                    obs.on_io(core, instr.port, value)
                    index += 1
                elif cls is Halt:
                    hart.halted = True
                    obs.on_halt(core)
                    break
                elif cls is Nop:
                    index += 1
                else:  # pragma: no cover - defensive
                    raise MachineError(f"unknown instruction {instr!r}")
        finally:
            hart.index = index
        hart.retired += executed
        self.total_retired += executed
        return executed

    def _do_call(self, hart: Hart, instr: Call, obs: Observer) -> None:
        callee = self.module.functions.get(instr.callee)
        if callee is None:
            raise MachineError(f"call to unknown function {instr.callee!r}")
        if hart.depth + 1 >= MAX_CALL_DEPTH:
            raise MachineError(f"call stack overflow in {hart.func.name!r}")
        regs = hart.regs
        args = [
            regs[a.index] if type(a) is Reg else a.value for a in instr.args
        ]
        # Caller-side checkpoints of the callee's live-in (argument)
        # registers, written to the callee-depth slots (see module docs).
        callee_depth = hart.depth + 1
        core = hart.core_id
        for i, value in enumerate(args):
            addr = ckpt_slot_addr(core, i, callee_depth)
            self.memory[addr] = value
            obs.on_ckpt(core, i, value, addr)
        hart.callstack.append(
            Frame(
                hart.func,
                hart.label,
                hart.index + 1,
                regs,
                instr.dst.index if instr.dst is not None else None,
            )
        )
        new_regs = [0] * callee.num_regs
        new_regs[: len(args)] = args
        hart.func = callee
        hart.label = callee.entry.label
        hart.index = 0
        hart.regs = new_regs

    def _do_ret(self, hart: Hart, instr: Ret, obs: Observer) -> None:
        value = 0
        if instr.value is not None:
            v = instr.value
            value = hart.regs[v.index] if type(v) is Reg else v.value
        if not hart.callstack:
            hart.exit_value = value
            hart.halted = True
            obs.on_halt(hart.core_id)
            return
        frame = hart.callstack.pop()
        hart.func = frame.func
        hart.label = frame.label
        hart.index = frame.index
        hart.regs = frame.regs
        if frame.ret_reg is not None:
            hart.regs[frame.ret_reg] = value

    # -- conveniences for tests/harness ----------------------------------------

    def run_function(
        self,
        func_name: str,
        args: Sequence[int] = (),
        observer: Optional[Observer] = None,
        max_steps: int = 50_000_000,
    ) -> int:
        """Spawn a single hart, run to completion, return its return value.

        The value is the one the hart's top-level ``Ret`` returned (0 if it
        returned none or stopped at ``Halt``).
        """
        hart = self.spawn(func_name, args)
        self.run(observer, max_steps=max_steps)
        return hart.exit_value

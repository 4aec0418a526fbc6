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
  A suspended frame's registers cannot change before its ``Ret``, so each
  frame's snapshot is made once, at the first boundary that needs it.

Steppers
--------
Each hart runs as a *stepper*, a generator over the machine's one
interpreter loop (:meth:`Machine._steps`), made once per hart per run.
Sent a budget, it runs that quantum and yields the count retired;
between quanta it keeps the run's constants and the hart's block state
in its locals, so a quantum costs a ``send`` and not a set-up.
:meth:`Machine.run` drives the steppers round robin and rebuilds its
list of live harts only when one halts; a schedule explorer takes the
same steppers from :meth:`Machine.stepper` and sends budgets of one.
A run without an observer, such as every resumed crash point, makes no
observer call at all (contract item 5 in :mod:`repro.isa.trace`).

Retire runs
-----------
Most retired instructions produce nothing but ``on_retire``.  An
observer whose class overrides :meth:`~repro.isa.trace.Observer.on_retire_run`,
as :class:`~repro.arch.system.CapriSystem` does, gets them in runs: the
machine counts the hart's retires and hands the count over before the
hart's next other callback and at quantum end (contract item 1 in
:mod:`repro.isa.trace`).  Every other observer gets one ``on_retire``
per instruction.

Compiled regions
----------------
A run without an observer, such as every resumed crash point of a
campaign, runs most of its code as generated Python functions, one per
*region*: the code reachable from an entry block through ``Jump`` and
``Branch`` edges over blocks that compile.  A block compiles when it is
straight-line ``BinOp``/``UnOp``/``Move``/``Load``/``Store``/
``CheckpointStore``/``RegionBoundary``/``Nop`` code ending in ``Jump``
or ``Branch`` over registers the function declares; anything else
(calls, returns, atomics, fences, I/O, ``Halt``) is interpreted.  A
region keeps the registers it touches in locals across its blocks, runs
a loop back to its entry as a Python loop and a diamond as
``if``/``else``, and stops at the first block that is interpreted or
that no longer fits the hart's budget, so it stops at the same block
boundary as running its blocks one by one would.  Its code is made on
the first unobserved run that enters the region there and kept in the
entry's ``BasicBlock.code``, so every ``Machine`` over the module shares
it.  It wraps a ``BinOp`` result into a word only where the value's
span, tracked along the code's paths, can leave the word range.
Compiled code has exactly the effect of interpreting its blocks
without an observer, and it cannot raise.  Observed runs never use it:
the interpreter loop in :meth:`Machine._steps` stays the only path that
delivers events, and the reference semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
)

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
    terminator_targets,
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

if TYPE_CHECKING:
    from repro.ir.basicblock import BasicBlock


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

    __slots__ = ("func", "label", "index", "regs", "ret_reg", "_snapshot")

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
        self._snapshot: Optional[FrameSnapshot] = None

    def snapshot(self) -> FrameSnapshot:
        """The frame as a continuation holds it, made once: nothing runs
        on a suspended frame's registers until its ``Ret`` pops it."""
        if self._snapshot is None:
            self._snapshot = (
                self.func.name, self.label, self.index, tuple(self.regs), self.ret_reg
            )
        return self._snapshot


class Hart:
    """One hardware thread of execution (one per core)."""

    __slots__ = (
        "core_id",
        "func",
        "label",
        "index",
        "regs",
        "callstack",
        "_frames",
        "halted",
        "started",
        "spawn_args",
        "retired",
        "exit_value",
    )

    def __init__(
        self,
        core_id: int,
        func: Function,
        label: str,
        index: int,
        regs: List[int],
        callstack: List[Frame],
        spawn_args: Optional[Tuple[int, ...]],
    ) -> None:
        """A hart at ``func``'s ``label``/``index``.  A spawned hart has
        its ``spawn_args``, checkpointed when it first runs; a resumed
        hart has None and starts without spawn-time events."""
        self.core_id = core_id
        self.func = func
        self.label = label
        self.index = index
        self.regs = regs
        self.callstack = callstack
        #: ``callstack``'s frame snapshots, or ``None`` once a call,
        #: return or resume changed the stack (:meth:`continuation`).
        self._frames: Optional[Tuple[FrameSnapshot, ...]] = (
            None if callstack else ()
        )
        self.halted = False
        self.started = spawn_args is None
        self.spawn_args = spawn_args or ()
        self.retired = 0
        #: Value returned by the top-level ``Ret`` (0 until then).
        self.exit_value = 0

    @property
    def depth(self) -> int:
        return len(self.callstack)

    def continuation(self) -> Continuation:
        """Snapshot the current position (used at region boundaries).

        The caller-frame tuple is kept until the stack changes: only
        ``_do_call``, ``_do_ret`` and :meth:`Machine.resume` change it,
        and each clears ``_frames``.
        """
        frames = self._frames
        if frames is None:
            frames = self._frames = tuple(f.snapshot() for f in self.callstack)
        return Continuation(
            func_name=self.func.name,
            label=self.label,
            index=self.index,
            callstack=frames,
        )


_NULL_OBSERVER = Observer()

#: A hart's stepper (:meth:`Machine.stepper`): sent a budget, it yields
#: the number of instructions retired.
Stepper = Generator[int, int, None]


# -- compiled regions -----------------------------------------------------------

#: Instructions a compiled block may hold before its terminator.
_STRAIGHT_LINE = (BinOp, UnOp, Move, Load, Store, CheckpointStore, RegionBoundary, Nop)

#: Most instructions one region's code may hold, duplicated tails included.
_REGION_MAX_INSTRS = 256

#: Deepest ``if`` nesting in one region's code (CPython allows 100 levels).
_REGION_MAX_DEPTH = 24

#: A region's code: ``run(regs, memory, slot_base, budget) -> (label, n)``.
RegionRun = Callable[[List[int], Dict[int, int], int, int], Tuple[str, int]]

#: What ``BasicBlock.code`` holds: the register count, every inlined block
#: as ``(label, block, copy of its instructions)``, and the region's code.
RegionCode = Tuple[
    int, Tuple[Tuple[str, "BasicBlock", List[Any]], ...], Optional[RegionRun]
]

#: The per-run memo's mark for a block whose code the run has not checked.
_UNCHECKED: Any = object()

#: Globals of the generated functions: the machine's own helpers.
_REGION_GLOBALS: Dict[str, Any] = {
    "eval_unop": eval_unop,
    **{f"op_{name}": fn for name, fn in BINARY_OPS.items()},
}

#: ``BinOp``s the generated code writes as Python operators.
_INFIX = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^"}
_SHIFT = {"shl": "<<", "shr": ">>"}
_COMPARE = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">=", "seq": "==", "sne": "!="}

#: The values a register of a region's code can hold, ``(lo, hi)``
#: inclusive; None is any Python int (``Load`` does not wrap, and memory
#: may hold words out of range).
Span = Optional[Tuple[int, int]]

#: ``BinOp``s whose result is a word when both operands are words.
_CLOSED = frozenset(("and", "or", "xor", "shr", "min", "max"))


def _is_word(span: Span) -> bool:
    return span is not None and WORD_MIN <= span[0] and span[1] <= WORD_MAX


def _binop_span(op: str, a: Span, b: Span) -> Span:
    """The span of ``a <op> b`` before it is wrapped into a word.

    Compares give [0, 1]; ``and`` with a non-negative word operand ``m``
    gives [0, max m] whatever the other operand is; ``add``, ``sub``,
    ``mul`` and ``shl`` by a known amount follow interval arithmetic;
    the other ops of :data:`_CLOSED` give a word from two words; anything
    else (``div``, ``rem``, ``shl`` by a register, an unknown operand)
    may be any int.
    """
    if op in _COMPARE:
        return (0, 1)
    if op == "and":
        masks = [s[1] for s in (a, b) if _is_word(s) and s[0] >= 0]
        if masks:
            return (0, min(masks))
    if a is None or b is None:
        return None
    if op == "add":
        return (a[0] + b[0], a[1] + b[1])
    if op == "sub":
        return (a[0] - b[1], a[1] - b[0])
    if op == "mul":
        ends = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
        return (min(ends), max(ends))
    if op == "shl" and b[0] == b[1]:
        return (a[0] << (b[0] & 63), a[1] << (b[0] & 63))
    if op in _CLOSED and _is_word(a) and _is_word(b):
        return (WORD_MIN, WORD_MAX)
    return None


def _hull(a: Dict[int, Tuple[int, int]], b: Dict[int, Tuple[int, int]]):
    """The spans a register may have after either of two paths: a register
    with a span on only one of them may be any int."""
    return {
        r: (min(x[0], y[0]), max(x[1], y[1]))
        for r, x in a.items()
        if (y := b.get(r)) is not None
    }


def _wrap(local: str, span: Span) -> Optional[str]:
    """The statement that wraps ``local`` into a word, as the interpreter's
    ``BinOp`` does, testing only the bounds ``span`` can leave; None if
    ``span`` is a word range."""
    low = span is None or span[0] < WORD_MIN
    high = span is None or span[1] > WORD_MAX
    if low and high:
        test = f"not {WORD_MIN} <= {local} <= {WORD_MAX}"
    elif low or high:
        test = f"{local} < {WORD_MIN}" if low else f"{local} > {WORD_MAX}"
    else:
        return None
    mask, offset = WORD_MAX - WORD_MIN, -WORD_MIN
    return f"if {test}: {local} = (({local} + {offset}) & {mask}) - {offset}"


def _compilable(func: Function, instrs: List[Any]) -> bool:
    """True if ``instrs`` is a block the generated code runs exactly.

    That is straight-line code ending in ``Jump`` or ``Branch``, over
    registers below ``func.num_regs`` and checkpoint registers below
    ``MAX_REGS``.  Such code cannot raise, so it needs none of the
    interpreter's ``hart.index`` bookkeeping.
    """
    if not instrs or type(instrs[-1]) not in (Jump, Branch):
        return False
    for instr in instrs[:-1]:
        if type(instr) not in _STRAIGHT_LINE:
            return False
        if type(instr) is CheckpointStore and instr.src.index >= MAX_REGS:
            return False
    return all(
        reg.index < func.num_regs
        for instr in instrs
        for reg in (*instr.defs(), *instr.uses())
    )


def _join_points(succs: Dict[str, Tuple[Optional[str], ...]]) -> Dict[str, str]:
    """The immediate post-dominator of each block of ``succs`` that has one.

    ``succs`` maps blocks to successors, with ``None`` for every edge that
    ends a path (it leaves the region or goes back to its entry).  A
    branch's arms meet again at its immediate post-dominator, so the
    generated code goes on there after its ``if``/``else``.
    """
    pdom: Dict[Optional[str], FrozenSet[Optional[str]]] = {None: frozenset((None,))}
    order = list(reversed(succs))
    changed = True
    while changed:
        changed = False
        for label in order:
            # A successor not yet in ``pdom`` stands for every block.
            known = [pdom[s] for s in succs[label] if s in pdom]
            if known:
                new = frozenset.intersection(*known) | {label}
                if pdom.get(label) != new:
                    pdom[label] = new
                    changed = True
    joins = {}
    for label, doms in pdom.items():
        after = doms - {label, None}
        if label is not None and after:
            joins[label] = max(after, key=lambda d: len(pdom[d]))
    return joins


def _compile_region(func: Function, entry: str, block: "BasicBlock") -> RegionCode:
    """``(num_regs, inlined blocks, run)`` for the region that starts at ``entry``.

    ``run(regs, memory, slot_base, budget) -> (label, n)`` has the effect
    of interpreting, without an observer, whole blocks from the start of
    ``entry`` for as long as each fits what is left of ``budget``: it
    retires ``n`` instructions and stops at index 0 of ``label``.  It
    follows ``Jump``/``Branch`` edges through compilable blocks (see
    :func:`_compilable`) and returns at the first other block:

    * the region's body sits in a ``while True``, and an edge back to
      ``entry`` is a ``continue``;
    * every exit sets ``at`` to the label it stops at and breaks out of
      the loop to the one ``return``;
    * every register the region touches lives in a local, loaded once on
      entry and written back once before the return, and each checkpoint
      slot address (``slot_base + 8*r``) is computed once;
    * a branch arm that leaves the region, or comes back to a block on
      the path that reached it, is an early exit; arms that meet again
      become ``if``/``else`` and the code goes on where they meet; any
      other arm duplicates its tail, within :data:`_REGION_MAX_INSTRS`
      instructions and :data:`_REGION_MAX_DEPTH` nested ``if`` levels;
    * before each inlined block, a block that does not fit the budget
      exits, so the region stops where block-by-block execution would;
    * a ``BinOp`` wraps its result into a word only where it can leave
      the word range.  A forward pass over the emitted paths keeps a span
      per register (:func:`_binop_span`): registers at the entry and
      loaded registers may hold any int, an immediate is exact, a
      ``Move`` copies its source's span, and a ``BinOp`` or ``UnOp``
      result is a word once wrapped.  Each branch arm starts from a copy
      of the spans, and where arms meet the code goes on from the hull of
      those that fall through.  A result whose span is a word range gets
      no test, one that can cross only one bound gets a one-sided test,
      and any other gets the full test; the wrap itself is written inline
      (:func:`_wrap`).  ``div``, ``rem`` and ``UnOp`` keep theirs.

    ``run`` is None if ``entry`` must be interpreted.  The inlined blocks
    are ``(label, block, copy of its instructions)``, the entry first.
    """
    num_regs = func.num_regs
    if not _compilable(func, block.instrs):
        return num_regs, ((entry, block, list(block.instrs)),), None
    blocks = func.blocks
    compilable: Dict[str, bool] = {}

    def inlinable(label: str) -> bool:
        if label not in compilable:
            target = blocks.get(label)
            compilable[label] = target is not None and _compilable(
                func, target.instrs
            )
        return compilable[label]

    succs: Dict[str, Tuple[Optional[str], ...]] = {}
    todo = [entry]
    while todo:
        label = todo.pop()
        if label not in succs:
            succs[label] = tuple(
                t if t != entry and inlinable(t) else None
                for t in terminator_targets(blocks[label].instrs[-1])
            )
            todo.extend(t for t in succs[label] if t is not None)
    joins = _join_points(succs)

    lines: List[str] = []
    touched: Dict[int, None] = {}
    written: Dict[int, None] = {}
    slots: Dict[int, None] = {}
    inlined: Dict[str, "BasicBlock"] = {}
    path = {entry}
    size = 0
    loads = False
    # The span of each register at the point being emitted; a register
    # without one may be any int, as every register is at the entry.
    spans: Dict[int, Tuple[int, int]] = {}

    def span(op: Any) -> Span:
        return spans.get(op.index) if type(op) is Reg else (op.value, op.value)

    def assign(reg: Reg, value: Span) -> None:
        if value is None:
            spans.pop(reg.index, None)
        else:
            spans[reg.index] = value

    def read(op: Any) -> str:
        if type(op) is not Reg:
            return f"({op.value})"
        touched[op.index] = None
        return f"r{op.index}"

    def write(reg: Reg) -> str:
        touched[reg.index] = None
        written[reg.index] = None
        return f"r{reg.index}"

    def address(base: Any, offset: int) -> str:
        if type(base) is not Reg:
            return f"({base.value + offset})"
        return read(base) if offset == 0 else f"{read(base)} + ({offset})"

    def ends(label: str, depth: int) -> bool:
        """True if the path stops before ``label``: it goes back to the
        entry, or ``label`` is not inlined here."""
        return (
            label == entry
            or label in path
            or not inlinable(label)
            or depth > _REGION_MAX_DEPTH
            or size + len(blocks[label].instrs) > _REGION_MAX_INSTRS
        )

    def leave(label: str, pad: str) -> None:
        lines.extend([f"{pad}at = {label!r}", f"{pad}break"])

    def end(label: str, pad: str) -> None:
        if label == entry:
            lines.append(f"{pad}continue")
        else:
            leave(label, pad)

    def inline(label: str, pad: str) -> Any:
        """Emit ``label``'s budget check and body; return its terminator."""
        nonlocal size, loads
        target = inlined[label] = blocks[label]
        instrs = target.instrs
        size += len(instrs)
        lines.append(f"{pad}if left < {len(instrs)}:")
        leave(label, pad + "    ")
        lines.append(f"{pad}left -= {len(instrs)}")
        for instr in instrs[:-1]:
            cls = type(instr)
            if cls is BinOp:
                op, lhs, rhs = instr.op, read(instr.lhs), read(instr.rhs)
                dst = write(instr.dst)
                value_span = _binop_span(op, span(instr.lhs), span(instr.rhs))
                assign(
                    instr.dst,
                    value_span if _is_word(value_span) else (WORD_MIN, WORD_MAX),
                )
                if op in _COMPARE:
                    test = f"{lhs} {_COMPARE[op]} {rhs}"
                    lines.append(f"{pad}{dst} = 1 if {test} else 0")
                    continue
                if op in _INFIX:
                    value = f"{lhs} {_INFIX[op]} {rhs}"
                elif op in _SHIFT:
                    amount = (
                        f"({rhs} & 63)" if type(instr.rhs) is Reg
                        else str(instr.rhs.value & 63)
                    )
                    value = f"{lhs} {_SHIFT[op]} {amount}"
                else:
                    value = f"op_{op}({lhs}, {rhs})"
                lines.append(f"{pad}{dst} = {value}")
                wrap = _wrap(dst, value_span)
                if wrap is not None:
                    lines.append(pad + wrap)
            elif cls is UnOp:
                src = read(instr.src)
                dst = write(instr.dst)
                assign(instr.dst, (WORD_MIN, WORD_MAX))
                lines.append(f"{pad}{dst} = eval_unop({instr.op!r}, {src})")
            elif cls is Move:
                src = read(instr.src)
                assign(instr.dst, span(instr.src))
                lines.append(f"{pad}{write(instr.dst)} = {src}")
            elif cls is Load:
                loads = True
                addr = address(instr.addr, instr.offset)
                assign(instr.dst, None)
                lines.append(f"{pad}{write(instr.dst)} = get({addr}, 0)")
            elif cls is Store:
                addr = address(instr.addr, instr.offset)
                lines.append(f"{pad}memory[{addr}] = {read(instr.value)}")
            elif cls is CheckpointStore:
                slots[instr.src.index] = None
                reg = read(instr.src)
                lines.append(f"{pad}memory[c{instr.src.index}] = {reg}")
            # RegionBoundary and Nop have no effect on an unobserved run.
        return instrs[-1]

    def sequence(
        label: str, join: Optional[str], depth: int, first: bool = False
    ) -> bool:
        """Emit the code from the start of ``label`` until the path
        reaches ``join``, where it falls through, or ends; return True if
        some path falls through.  ``first`` inlines ``label`` unchecked.
        ``spans`` goes from its state at the start of ``label`` to its
        state where the code falls through."""
        nonlocal spans
        pad = "    " * (depth + 2)
        mine = []
        try:
            while label != join:
                if not first:
                    if ends(label, depth):
                        end(label, pad)
                        return False
                    path.add(label)
                    mine.append(label)
                first = False
                last = inline(label, pad)
                if type(last) is Jump:
                    label = last.target
                    continue
                cond, t, f = last.cond, last.if_true, last.if_false
                if type(cond) is not Reg or t == f:
                    label = t if type(cond) is Reg or cond.value != 0 else f
                    continue
                c = read(cond)
                if t != join and ends(t, depth):
                    lines.append(f"{pad}if {c}:")
                    end(t, pad + "    ")
                    label = f
                elif f != join and ends(f, depth):
                    lines.append(f"{pad}if not {c}:")
                    end(f, pad + "    ")
                    label = t
                else:
                    join_here = join if join in (t, f) else joins.get(label, join)
                    # Each arm starts from a copy of the spans here, and
                    # the code after the ``if`` from the hull of the arms
                    # that fall through to it.
                    before = dict(spans)
                    if f == join_here or t == join_here:
                        arm, test = (t, c) if f == join_here else (f, f"not {c}")
                        lines.append(f"{pad}if {test}:")
                        falls = sequence(arm, join_here, depth + 1)
                        spans = _hull(before, spans) if falls else before
                    else:
                        lines.append(f"{pad}if {c}:")
                        if not sequence(t, join_here, depth + 1):
                            # The true arm never falls through: the false
                            # arm goes on at this level.
                            spans = before
                            label = f
                            continue
                        after_true, spans = spans, dict(before)
                        lines.append(f"{pad}else:")
                        falls = sequence(f, join_here, depth + 1)
                        spans = _hull(after_true, spans) if falls else after_true
                    label = join_here
            return True
        finally:
            path.difference_update(mine)

    sequence(entry, None, 0, first=True)
    source = "\n".join(
        [
            "def run(regs, memory, slot_base, budget):",
            *(f"    r{i} = regs[{i}]" for i in touched),
            *(f"    c{i} = slot_base + {i * WORD_BYTES}" for i in slots),
            *(["    get = memory.get"] if loads else []),
            "    left = budget",
            "    while True:",
            *lines,
            *(f"    regs[{i}] = r{i}" for i in written),
            "    return at, budget - left",
        ]
    )
    namespace: Dict[str, Any] = {}
    code = compile(source, f"<region {func.name}:{entry}>", "exec")
    exec(code, _REGION_GLOBALS, namespace)
    deps = tuple((label, b, list(b.instrs)) for label, b in inlined.items())
    return num_regs, deps, namespace["run"]


def _region_code(
    func: Function, label: str, block: "BasicBlock"
) -> Optional[RegionRun]:
    """The code of the region that starts at ``label``, or None if the
    block is interpreted.

    The code is kept in ``block.code`` with the register count and the
    inlined blocks it was made from, and made again when the count, a
    block under one of those labels, or a block's instructions differ.
    Every ``Machine`` that runs the module shares it.
    """
    cached = block.code
    if cached is not None and cached[0] == func.num_regs:
        blocks = func.blocks
        for name, inlined, instrs in cached[1]:
            if blocks.get(name) is not inlined or inlined.instrs != instrs:
                break
        else:
            return cached[2]
    cached = block.code = _compile_region(func, label, block)
    return cached[2]


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
    memory:
        The word memory to run over, taken as is (a recovered image);
        by default a copy of the module's initial data.
    """

    def __init__(
        self,
        module: Module,
        quantum: int = 32,
        memory: Optional[Dict[int, int]] = None,
    ) -> None:
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.module = module
        self.quantum = quantum
        self.memory: Dict[int, int] = (
            dict(module.initial_data) if memory is None else memory
        )
        self.harts: List[Hart] = []
        self.total_retired = 0
        #: External-device output log: (core, port, value) in issue order.
        #: I/O effects leave the persistence domain — a crash cannot undo
        #: them (the Section 3.3 open problem); tests use this log to
        #: check at-least-once delivery across failures.
        self.io_log: List[Tuple[int, int, int]] = []
        #: Instructions retired by compiled regions (unobserved runs only).
        self.compiled_retired = 0

    # -- hart management -----------------------------------------------------

    def spawn(self, func_name: str, args: Sequence[int] = ()) -> Hart:
        """Create a hart running ``func_name(*args)`` on the next core id."""
        func = self.module.functions[func_name]
        if len(args) != func.num_params:
            raise MachineError(
                f"spawn {func_name!r}: {len(args)} args, expected {func.num_params}"
            )
        _check_core_id(len(self.harts))
        spawn_args = tuple(wrap_word(a) for a in args)
        regs = [0] * func.num_regs
        for i, a in enumerate(spawn_args):
            regs[i] = a
        hart = Hart(
            len(self.harts), func, func.entry.label, 0, regs, [], spawn_args
        )
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
        functions = self.module.functions
        func = functions[continuation.func_name]
        words = list(regs)
        # Fault models can corrupt checkpoint slots; nearly every file
        # holds only machine words already.
        if words and (min(words) < WORD_MIN or max(words) > WORD_MAX):
            words = [wrap_word(v) for v in words]
        if len(words) < func.num_regs:
            words.extend([0] * (func.num_regs - len(words)))
        callstack = (
            [
                Frame(functions[name], label, index, list(saved_regs), ret_reg)
                for (name, label, index, saved_regs, ret_reg) in continuation.callstack
            ]
            if continuation.callstack
            else []
        )
        hart = Hart(
            core_id,
            func,
            continuation.label,
            continuation.index,
            words,
            callstack,
            None,  # no spawn-time events on resume
        )
        while len(self.harts) <= core_id:
            self.harts.append(None)  # type: ignore[arg-type]
        self.harts[core_id] = hart
        return hart

    # -- memory ----------------------------------------------------------------

    def read_word(self, addr: int) -> int:
        return self.memory.get(addr, 0)

    # -- execution ----------------------------------------------------------------

    def run(
        self,
        observer: Optional[Observer] = None,
        max_steps: int = 50_000_000,
    ) -> int:
        """Round-robin execute all harts until they halt; return retired count.

        Each live hart gets a stepper (see :meth:`_steps`), made once for
        the run, and the run sends them quanta in turn.  Raises
        :class:`MachineError` if ``max_steps`` instructions retire
        without completion (runaway loop guard).
        """
        live = [
            (hart, self.stepper(hart, observer))
            for hart in self.harts
            if hart is not None and not hart.halted
        ]
        steps_left = max_steps
        while live:
            progressed = False
            halted = False
            # A lone hart has no one to yield to, and no observer sees
            # quantum boundaries: give it the whole remaining budget.
            quantum = self.quantum if len(live) > 1 else steps_left
            for hart, step in live:
                n = step.send(quantum if quantum < steps_left else steps_left)
                steps_left -= n
                if n:
                    progressed = True
                if steps_left <= 0:
                    raise MachineError(f"machine exceeded max_steps={max_steps}")
                if hart.halted:
                    halted = True
            if halted:
                live = [(hart, step) for hart, step in live if not hart.halted]
            if live and not progressed:
                raise MachineError("no hart can make progress")
        return self.total_retired

    def stepper(self, hart: Hart, observer: Optional[Observer] = None) -> Stepper:
        """A stepper for ``hart`` (see :meth:`_steps`), ready for budgets.

        ``stepper.send(budget)`` runs up to ``budget`` of the hart's
        instructions, delivering their events to ``observer``, and returns
        how many retired.  :meth:`run` drives one per live hart; a
        schedule explorer sends budgets of one in the order it chooses.
        Nothing else may change ``hart`` while its stepper is in use.
        """
        step = self._steps(hart, observer or _NULL_OBSERVER)
        next(step)
        return step

    def _start_hart(self, hart: Hart, obs: Observer) -> None:
        """Emit spawn-time events: argument checkpoints + an implicit boundary.

        The implicit boundary (region id -1) gives crash recovery a
        committed resume point covering "crash before the first compiler
        boundary commits"; its continuation is simply the spawn point.
        An unobserved run only writes the checkpoints.
        """
        hart.started = True
        core = hart.core_id
        observed = obs is not _NULL_OBSERVER
        for i, value in enumerate(hart.spawn_args):
            addr = ckpt_slot_addr(core, i, 0)
            self.memory[addr] = value
            if observed:
                obs.on_ckpt(core, i, value, addr)
        if observed:
            obs.on_boundary(core, -1, hart.continuation())

    def _steps(self, hart: Hart, obs: Observer) -> Stepper:
        """``hart``'s stepper: the machine's one interpreter loop.

        A generator, primed by one ``next``.  Each ``send(budget)`` runs
        a *quantum* of up to ``budget`` instructions, the first one
        delivering the spawn-time events of a hart that never ran, and
        yields how many retired.  A halted hart's stepper yields 0.

        The run's constants (memory, core, the observer flags, the bound
        callbacks, the core's slot base) and the block state (the
        current block's instruction list, the index into it, the
        register file and the frame's slot base) stay in the generator's
        locals across quanta.  The block state is reloaded only when
        control leaves the block (``Branch``/``Jump``/``Call``/``Ret``).
        ``hart.index`` is written back before every callback that reads
        the hart's position (``on_boundary``'s continuation, the call and
        return helpers) and, through ``finally``, on every exit from a
        quantum, so an observer that raises mid-quantum leaves the hart
        at the instruction whose event it was delivering, and a later
        :meth:`run` starts a new stepper there.  The ``yield`` stands
        outside the quantum's ``try``: a stepper closed or collected while
        suspended delivers nothing.

        An unobserved run (``obs`` is the null observer, as for every
        resumed crash point) makes no observer call at all: no
        ``on_retire``, no load, store or checkpoint event, no boundary
        continuation, and a ``Store`` does not read the word it
        overwrites.  Every architectural effect is the same either way.

        An observer whose class overrides ``on_retire_run`` gets its
        retires in runs: nothing per instruction, and the count retired
        since the last run, ``executed - flushed``, before every other
        callback (load, store, checkpoint, boundary, the call-argument
        checkpoints and halt of ``Call``/``Ret``, atomic, fence, I/O,
        halt) and, in the ``finally``, at quantum end or before an error
        leaves the quantum.  Each retire is counted once, and every run
        before an event holds at least that event's own instruction.
        Such an observer pays no test per event beyond ``runs``; any
        other observer gets ``on_retire`` per instruction, and pays the
        ``runs`` and ``observed`` tests per other event.

        An unobserved stepper also keeps ``codes``, its memo of compiled
        regions.  Then every time the hart stands at index 0 of a block,
        at quantum start, after a ``Branch`` or ``Jump`` and on a call's
        entry, :meth:`_run_compiled` runs compiled regions for as long as
        each next whole block compiles and fits the remaining budget.
        The rest is interpreted here, so quanta, ``max_steps`` trip
        points and mid-block resumes are unchanged.  An observed run
        pays one ``codes is not None`` test per block entry.
        """
        memory = self.memory
        core = hart.core_id
        observed = obs is not _NULL_OBSERVER
        # Region code this stepper has checked against its blocks (see
        # ``_run_compiled``); an observed run interprets every block.
        codes: Optional[Dict["BasicBlock", Optional[RegionRun]]] = (
            None if observed else {}
        )
        # An observer that takes retire runs is owed ``executed - flushed``
        # retires; any other observer gets ``on_retire`` per instruction.
        runs = type(obs).on_retire_run is not Observer.on_retire_run
        per_instr = observed and not runs
        on_run = obs.on_retire_run
        on_retire = obs.on_retire
        on_load = obs.on_load
        on_store = obs.on_store
        on_ckpt = obs.on_ckpt
        core_slots = CKPT_BASE + core * CKPT_CORE_STRIDE
        blocks = hart.func.blocks
        instrs = blocks[hart.label].instrs
        index = hart.index
        regs = hart.regs
        slot_base = core_slots + len(hart.callstack) * CKPT_FRAME_STRIDE
        executed = 0
        while True:
            budget = yield executed
            executed = 0
            if budget <= 0:
                continue
            if not hart.started:
                self._start_hart(hart, obs)
            if hart.halted:
                continue
            flushed = 0
            if codes is not None and index == 0:
                label, executed = self._run_compiled(
                    codes, hart.func, hart.label, regs, slot_base, budget
                )
                hart.label = label
                instrs = blocks[label].instrs
            try:
                while executed < budget:
                    instr = instrs[index]
                    cls = type(instr)
                    if per_instr:
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
                        if codes is not None:
                            label, n = self._run_compiled(
                                codes, hart.func, label, regs, slot_base,
                                budget - executed,
                            )
                            executed += n
                        hart.label = label
                        instrs = blocks[label].instrs
                        index = 0
                    elif cls is Jump:
                        label = instr.target
                        if codes is not None:
                            label, n = self._run_compiled(
                                codes, hart.func, label, regs, slot_base,
                                budget - executed,
                            )
                            executed += n
                        hart.label = label
                        instrs = blocks[label].instrs
                        index = 0
                    elif cls is Load:
                        base = instr.addr
                        addr = (
                            regs[base.index] if type(base) is Reg else base.value
                        ) + instr.offset
                        value = regs[instr.dst.index] = memory.get(addr, 0)
                        if runs:
                            on_run(core, executed - flushed)
                            flushed = executed
                            on_load(core, addr, value)
                        elif observed:
                            on_load(core, addr, value)
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
                        if runs:
                            on_run(core, executed - flushed)
                            flushed = executed
                            on_ckpt(core, reg, value, addr)
                        elif observed:
                            on_ckpt(core, reg, value, addr)
                        index += 1
                    elif cls is Store:
                        base = instr.addr
                        addr = (
                            regs[base.index] if type(base) is Reg else base.value
                        ) + instr.offset
                        v = instr.value
                        value = regs[v.index] if type(v) is Reg else v.value
                        if runs:
                            old = memory.get(addr, 0)
                            memory[addr] = value
                            on_run(core, executed - flushed)
                            flushed = executed
                            on_store(core, addr, value, old)
                        elif observed:
                            old = memory.get(addr, 0)
                            memory[addr] = value
                            on_store(core, addr, value, old)
                        else:
                            memory[addr] = value
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
                            if runs:
                                on_run(core, executed - flushed)
                                flushed = executed
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
                        if runs:
                            on_run(core, executed - flushed)
                            flushed = executed
                        if cls is Call:
                            self._do_call(hart, instr, obs)
                        else:
                            self._do_ret(hart, instr, obs)
                            if hart.halted:
                                break
                        blocks = hart.func.blocks
                        index = hart.index
                        regs = hart.regs
                        slot_base = (
                            core_slots + len(hart.callstack) * CKPT_FRAME_STRIDE
                        )
                        if codes is not None and index == 0:
                            hart.label, n = self._run_compiled(
                                codes, hart.func, hart.label, regs, slot_base,
                                budget - executed,
                            )
                            executed += n
                        instrs = blocks[hart.label].instrs
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
                        if runs:
                            on_run(core, executed - flushed)
                            flushed = executed
                            obs.on_atomic(core, addr, new, old)
                        elif observed:
                            obs.on_atomic(core, addr, new, old)
                        index += 1
                    elif cls is Fence:
                        if runs:
                            on_run(core, executed - flushed)
                            flushed = executed
                            obs.on_fence(core)
                        elif observed:
                            obs.on_fence(core)
                        index += 1
                    elif cls is IOWrite:
                        v = instr.value
                        value = regs[v.index] if type(v) is Reg else v.value
                        self.io_log.append((core, instr.port, value))
                        if runs:
                            on_run(core, executed - flushed)
                            flushed = executed
                            obs.on_io(core, instr.port, value)
                        elif observed:
                            obs.on_io(core, instr.port, value)
                        index += 1
                    elif cls is Halt:
                        hart.halted = True
                        if runs:
                            on_run(core, executed - flushed)
                            flushed = executed
                            obs.on_halt(core)
                        elif observed:
                            obs.on_halt(core)
                        break
                    elif cls is Nop:
                        index += 1
                    else:  # pragma: no cover - defensive
                        raise MachineError(f"unknown instruction {instr!r}")
            finally:
                hart.index = index
                # The quantum's last retires; after a machine error, the
                # retires before it.
                if runs and executed != flushed:
                    on_run(core, executed - flushed)
            hart.retired += executed
            self.total_retired += executed

    def _run_compiled(
        self,
        codes: Dict["BasicBlock", Optional[RegionRun]],
        func: Function,
        label: str,
        regs: List[int],
        slot_base: int,
        budget: int,
    ) -> Tuple[str, int]:
        """Run compiled regions of ``func`` from the start of ``label``.

        Stops at the first block that is interpreted or longer than what
        is left of ``budget``, and returns its label, where the caller
        goes on at index 0, with the number of instructions retired.
        ``codes`` holds each entry block's code once the stepper has
        checked it against the blocks it inlines; nothing can edit them
        while an unobserved run is in progress.
        """
        memory = self.memory
        blocks = func.blocks
        executed = 0
        while True:
            block = blocks[label]
            run = codes.get(block, _UNCHECKED)
            if run is _UNCHECKED:
                run = codes[block] = _region_code(func, label, block)
            if run is None:
                break
            label, n = run(regs, memory, slot_base, budget - executed)
            if not n:
                break
            executed += n
        self.compiled_retired += executed
        return label, executed

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
        observed = obs is not _NULL_OBSERVER
        for i, value in enumerate(args):
            addr = ckpt_slot_addr(core, i, callee_depth)
            self.memory[addr] = value
            if observed:
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
        hart._frames = None
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
            if obs is not _NULL_OBSERVER:
                obs.on_halt(hart.core_id)
            return
        frame = hart.callstack.pop()
        hart._frames = None
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

"""Instruction set of the reproduction IR.

The instruction set is deliberately small but complete enough to express
the paper's workloads: ALU arithmetic, loads/stores with base+offset
addressing, conditional and unconditional branches, calls/returns, memory
fences and atomic read-modify-write operations (which the Capri compiler
treats as region boundaries, Section 4.1), plus the two instruction kinds
the Capri compiler *inserts*:

* :class:`RegionBoundary` — delimits recoverable regions (Section 3.2).
* :class:`CheckpointStore` — a register-checkpointing store that persists a
  live-out register to its fixed checkpoint-array slot (Section 4.2).  It is
  "a regular store instruction with the register value as operand" and is
  counted against the region store threshold, but the architecture routes it
  to dedicated register-file storage in the front-end proxy rather than a
  data proxy entry (Section 5.2.1).

Every instruction reports its defined and used registers (``defs()`` /
``uses()``) so the dataflow analyses stay instruction-agnostic, and a
``store_count`` so the region-formation pass can budget regions uniformly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.ir.values import Imm, Operand, Reg, wrap_word

# ---------------------------------------------------------------------------
# Operator tables
# ---------------------------------------------------------------------------


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        return 0  # ARM-style: integer divide by zero yields 0
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _srem(a: int, b: int) -> int:
    if b == 0:
        return 0
    return a - _sdiv(a, b) * b


BINARY_OPS: Dict[str, Callable[[int, int], int]] = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": _sdiv,
    "rem": _srem,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "shl": lambda a, b: a << (b & 63),
    "shr": lambda a, b: a >> (b & 63),
    "slt": lambda a, b: int(a < b),
    "sle": lambda a, b: int(a <= b),
    "sgt": lambda a, b: int(a > b),
    "sge": lambda a, b: int(a >= b),
    "seq": lambda a, b: int(a == b),
    "sne": lambda a, b: int(a != b),
    "min": min,
    "max": max,
}

UNARY_OPS: Dict[str, Callable[[int], int]] = {
    "neg": lambda a: -a,
    "not": lambda a: ~a,
    "abs": abs,
}

# Atomic read-modify-write operators.  ``swap`` ignores the old value.
ATOMIC_OPS: Dict[str, Callable[[int, int], int]] = {
    "add": lambda old, v: old + v,
    "and": lambda old, v: old & v,
    "or": lambda old, v: old | v,
    "xor": lambda old, v: old ^ v,
    "swap": lambda old, v: v,
    "max": max,
    "min": min,
}


def eval_binop(op: str, a: int, b: int) -> int:
    """Evaluate a binary ALU operator on machine words."""
    return wrap_word(BINARY_OPS[op](a, b))


def eval_unop(op: str, a: int) -> int:
    """Evaluate a unary ALU operator on a machine word."""
    return wrap_word(UNARY_OPS[op](a))


def eval_atomic(op: str, old: int, value: int) -> int:
    """Evaluate an atomic RMW operator, returning the new memory value."""
    return wrap_word(ATOMIC_OPS[op](old, value))


# ---------------------------------------------------------------------------
# Instruction classes
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Instr:
    """Base class for all IR instructions."""

    # Subclasses override these class-level traits.
    def defs(self) -> Tuple[Reg, ...]:
        """Registers written by this instruction."""
        return ()

    def uses(self) -> Tuple[Reg, ...]:
        """Registers read by this instruction."""
        return ()

    @property
    def is_terminator(self) -> bool:
        """True if this instruction ends a basic block."""
        return False

    @property
    def store_count(self) -> int:
        """Dynamic stores contributed per execution (for region budgeting).

        Checkpoint stores count as regular stores for the region threshold
        (Section 3.2: "including both regular and checkpointing stores").
        """
        return 0

    @property
    def is_region_boundary_point(self) -> bool:
        """True if the Capri compiler must place a region boundary here.

        Fences and atomics force boundaries because they are critical for
        multi-threaded correctness (Section 4.1).
        """
        return False

    def _operand_uses(self, *operands: Operand) -> Tuple[Reg, ...]:
        return tuple([op for op in operands if isinstance(op, Reg)])


@dataclass(slots=True)
class Nop(Instr):
    """No operation; used as a placeholder by rewriting passes."""

    def __repr__(self) -> str:
        return "nop"


@dataclass(slots=True)
class BinOp(Instr):
    """``dst = lhs <op> rhs`` for ``op`` in :data:`BINARY_OPS`."""

    op: str
    dst: Reg
    lhs: Operand
    rhs: Operand

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {self.op!r}")

    def defs(self) -> Tuple[Reg, ...]:
        return (self.dst,)

    def uses(self) -> Tuple[Reg, ...]:
        return self._operand_uses(self.lhs, self.rhs)

    def __repr__(self) -> str:
        return f"{self.dst} = {self.op} {self.lhs}, {self.rhs}"


@dataclass(slots=True)
class UnOp(Instr):
    """``dst = <op> src`` for ``op`` in :data:`UNARY_OPS`."""

    op: str
    dst: Reg
    src: Operand

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {self.op!r}")

    def defs(self) -> Tuple[Reg, ...]:
        return (self.dst,)

    def uses(self) -> Tuple[Reg, ...]:
        return self._operand_uses(self.src)

    def __repr__(self) -> str:
        return f"{self.dst} = {self.op} {self.src}"


@dataclass(slots=True)
class Move(Instr):
    """``dst = src`` (register copy or immediate load)."""

    dst: Reg
    src: Operand

    def defs(self) -> Tuple[Reg, ...]:
        return (self.dst,)

    def uses(self) -> Tuple[Reg, ...]:
        return self._operand_uses(self.src)

    def __repr__(self) -> str:
        return f"{self.dst} = {self.src}"


@dataclass(slots=True)
class Load(Instr):
    """``dst = mem[addr + offset]`` — a word load."""

    dst: Reg
    addr: Operand
    offset: int = 0

    def defs(self) -> Tuple[Reg, ...]:
        return (self.dst,)

    def uses(self) -> Tuple[Reg, ...]:
        return self._operand_uses(self.addr)

    def __repr__(self) -> str:
        return f"{self.dst} = load [{self.addr}+{self.offset}]"


@dataclass(slots=True)
class Store(Instr):
    """``mem[addr + offset] = value`` — a word store."""

    value: Operand
    addr: Operand
    offset: int = 0

    def uses(self) -> Tuple[Reg, ...]:
        return self._operand_uses(self.value, self.addr)

    @property
    def store_count(self) -> int:
        return 1

    def __repr__(self) -> str:
        return f"store [{self.addr}+{self.offset}] = {self.value}"


@dataclass(slots=True)
class Jump(Instr):
    """Unconditional branch to a block label."""

    target: str

    @property
    def is_terminator(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"jump {self.target}"


@dataclass(slots=True)
class Branch(Instr):
    """Conditional branch: go to ``if_true`` when ``cond != 0``."""

    cond: Operand
    if_true: str
    if_false: str

    def uses(self) -> Tuple[Reg, ...]:
        return self._operand_uses(self.cond)

    @property
    def is_terminator(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"branch {self.cond} ? {self.if_true} : {self.if_false}"


@dataclass(slots=True)
class Call(Instr):
    """Call ``callee`` with argument operands; optional return register.

    Arguments are copied into the callee's parameter registers (r0..rN-1)
    by the machine; the callee's return value (if any) lands in ``dst``.
    Function entry/exit are region-boundary points in the Capri compiler
    (Section 4.1), so calls always begin a fresh region in the caller.
    """

    callee: str
    args: Tuple[Operand, ...] = ()
    dst: Optional[Reg] = None

    def defs(self) -> Tuple[Reg, ...]:
        return (self.dst,) if self.dst is not None else ()

    def uses(self) -> Tuple[Reg, ...]:
        return self._operand_uses(*self.args)

    @property
    def is_region_boundary_point(self) -> bool:
        return True

    def __repr__(self) -> str:
        args = ", ".join(map(repr, self.args))
        dst = f"{self.dst} = " if self.dst is not None else ""
        return f"{dst}call {self.callee}({args})"


@dataclass(slots=True)
class Ret(Instr):
    """Return from the current function with an optional value."""

    value: Optional[Operand] = None

    def uses(self) -> Tuple[Reg, ...]:
        if self.value is None:
            return ()
        return self._operand_uses(self.value)

    @property
    def is_terminator(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"ret {self.value}" if self.value is not None else "ret"


@dataclass(slots=True)
class Halt(Instr):
    """Stop the executing hart (used by top-level workload code)."""

    @property
    def is_terminator(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "halt"


@dataclass(slots=True)
class Fence(Instr):
    """Full memory fence; a mandatory region boundary point (Section 4.1)."""

    @property
    def is_region_boundary_point(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "fence"


@dataclass(slots=True)
class AtomicRMW(Instr):
    """Atomic read-modify-write: ``dst = mem[addr+offset]; mem[..] op= value``.

    Atomics are mandatory region boundary points (Section 4.1) and count as
    one store against the region threshold.
    """

    op: str
    dst: Reg
    addr: Operand
    value: Operand
    offset: int = 0

    def __post_init__(self) -> None:
        if self.op not in ATOMIC_OPS:
            raise ValueError(f"unknown atomic op {self.op!r}")

    def defs(self) -> Tuple[Reg, ...]:
        return (self.dst,)

    def uses(self) -> Tuple[Reg, ...]:
        return self._operand_uses(self.addr, self.value)

    @property
    def store_count(self) -> int:
        return 1

    @property
    def is_region_boundary_point(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"{self.dst} = atomic_{self.op} [{self.addr}+{self.offset}], {self.value}"


# ---------------------------------------------------------------------------
# Capri-inserted instructions
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class RegionBoundary(Instr):
    """Region boundary marker inserted by the Capri compiler.

    At runtime the boundary commits the current region: the architecture
    appends a boundary delimiter entry to the front-end proxy buffer (if the
    region produced any data proxy entries — Section 5.2.1's traffic
    optimization) and the machine records the recovery continuation.

    ``region_id`` is assigned by the region-formation pass and is unique
    within a function.
    """

    region_id: int = -1

    def __repr__(self) -> str:
        return f"region_boundary #{self.region_id}"


@dataclass(slots=True)
class CheckpointStore(Instr):
    """Persist register ``src`` to its checkpoint-array slot.

    Semantically a store of ``src`` to ``CKPT_BASE + src.index * 8`` for the
    executing core; it counts against the region store threshold but is
    routed to the front-end proxy's dedicated register-file storage rather
    than a data proxy entry (Section 5.2.1).

    ``pruned_recovery`` marks checkpoints that the optimal-pruning pass
    (Section 4.4.1) replaced with recovery code; such instructions are
    removed from the instruction stream and only survive as metadata.
    """

    src: Reg

    def uses(self) -> Tuple[Reg, ...]:
        return (self.src,)

    @property
    def store_count(self) -> int:
        return 1

    def __repr__(self) -> str:
        return f"ckpt {self.src}"


@dataclass(slots=True)
class IOWrite(Instr):
    """Emit ``value`` to external device ``port`` (console, NIC, disk).

    I/O is the non-recoverable operation the paper leaves open
    (Section 3.3): its effect leaves the persistence domain.  Following
    the paper's sketch, the compiler isolates each I/O in its own region
    (boundary point before it, and region formation also closes the
    region right after), so on crash recovery at most the single
    interrupted I/O is reissued — at-least-once delivery, with the
    machine's I/O log making duplicates observable to tests.
    """

    port: int
    value: Operand

    def uses(self) -> Tuple[Reg, ...]:
        return self._operand_uses(self.value)

    @property
    def is_region_boundary_point(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"io[{self.port}] = {self.value}"


def is_memory_access(instr: Instr) -> bool:
    """True for instructions that touch data memory."""
    return isinstance(instr, (Load, Store, AtomicRMW, CheckpointStore))


def terminator_targets(instr: Instr) -> Sequence[str]:
    """Successor block labels of a terminator instruction."""
    if isinstance(instr, Jump):
        return (instr.target,)
    if isinstance(instr, Branch):
        return (instr.if_true, instr.if_false)
    if isinstance(instr, (Ret, Halt)):
        return ()
    raise TypeError(f"{instr!r} is not a terminator")

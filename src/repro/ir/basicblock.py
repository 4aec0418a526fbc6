"""Basic blocks: straight-line instruction sequences ending in a terminator."""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.ir.instructions import Instr, terminator_targets


class BasicBlock:
    """A labelled straight-line sequence of instructions.

    The final instruction must be a terminator (``Jump``/``Branch``/``Ret``/
    ``Halt``); the verifier enforces this.  Blocks are mutable — Capri's
    passes split, merge, clone and rewrite them in place.

    ``code`` belongs to the functional machine (:mod:`repro.isa.machine`):
    the straight-line Python it generated for this block, or its verdict
    that the block is interpreted, together with the instruction list it
    was made from.  A run checks that list against ``instrs`` before it
    uses the code, so replacing, inserting or removing instructions is
    always safe.  Editing the fields of an ``Instr`` object is not: it is
    done only by compiler passes, on the clone
    :meth:`~repro.compiler.CapriCompiler.compile` makes before any
    machine runs it.  Keep it that way.
    """

    __slots__ = ("label", "instrs", "code")

    def __init__(self, label: str, instrs: Optional[List[Instr]] = None) -> None:
        self.label = label
        self.instrs: List[Instr] = instrs if instrs is not None else []
        self.code: Optional[Tuple[int, List[Instr], Any]] = None

    @property
    def terminator(self) -> Instr:
        """The block's final (terminator) instruction."""
        if not self.instrs:
            raise ValueError(f"block {self.label!r} is empty")
        return self.instrs[-1]

    def successors(self) -> List[str]:
        """Labels of successor blocks, from the terminator."""
        return list(terminator_targets(self.terminator))

    def append(self, instr: Instr) -> None:
        self.instrs.append(instr)

    def __iter__(self) -> Iterator[Instr]:
        return iter(self.instrs)

    def __len__(self) -> int:
        return len(self.instrs)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.label} ({len(self.instrs)} instrs)>"

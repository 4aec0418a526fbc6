"""Functions: named CFGs with a declared architectural register count."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Instr


class RecoveryBlock:
    """Reconstruction code attached to a region by the pruning pass.

    When optimal checkpoint pruning (Section 4.4.1) removes a checkpoint
    store for register ``target``, the value must be rebuilt at recovery
    time from *other* checkpointed registers.  The recovery block holds the
    backward slice that recomputes ``target``; the crash-recovery protocol
    executes it after reloading the surviving checkpoints.
    """

    __slots__ = ("target", "instrs")

    def __init__(self, target: "int", instrs: List[Instr]) -> None:
        self.target = target  # register index being reconstructed
        self.instrs = instrs

    def __repr__(self) -> str:
        return f"<RecoveryBlock r{self.target} ({len(self.instrs)} instrs)>"


class Function:
    """A function: an ordered mapping of labelled basic blocks.

    Attributes
    ----------
    name:
        Globally unique function name.
    num_params:
        Number of parameters; arguments arrive in registers ``r0..rN-1``.
    num_regs:
        Number of architectural registers the function uses.  Register
        indices in all instructions must be below this bound.
    blocks:
        Label -> :class:`BasicBlock`, in layout order (insertion order).
        The first inserted block is the entry block.
    recovery_blocks:
        region_id -> list of :class:`RecoveryBlock`, populated by the
        checkpoint-pruning pass.  Executed only during crash recovery.
    """

    __slots__ = (
        "name",
        "num_params",
        "num_regs",
        "blocks",
        "recovery_blocks",
        "meta",
    )

    def __init__(self, name: str, num_params: int = 0, num_regs: int = 8) -> None:
        if num_params > num_regs:
            raise ValueError("num_params cannot exceed num_regs")
        self.name = name
        self.num_params = num_params
        self.num_regs = num_regs
        self.blocks: Dict[str, BasicBlock] = {}
        self.recovery_blocks: Dict[int, List[RecoveryBlock]] = {}
        #: Free-form pass metadata (region table, live-in sets, stats).
        self.meta: Dict[str, object] = {}

    @property
    def entry(self) -> BasicBlock:
        """The entry basic block (first block added)."""
        if not self.blocks:
            raise ValueError(f"function {self.name!r} has no blocks")
        return next(iter(self.blocks.values()))

    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.label in self.blocks:
            raise ValueError(f"duplicate block label {block.label!r} in {self.name!r}")
        self.blocks[block.label] = block
        return block

    def new_block(self, label: str) -> BasicBlock:
        return self.add_block(BasicBlock(label))

    def block(self, label: str) -> BasicBlock:
        return self.blocks[label]

    def fresh_label(self, hint: str) -> str:
        """Return an unused block label derived from ``hint``."""
        if hint not in self.blocks:
            return hint
        i = 1
        while f"{hint}.{i}" in self.blocks:
            i += 1
        return f"{hint}.{i}"

    def instructions(self) -> Iterator[Instr]:
        """Iterate over every instruction in layout order."""
        for block in self.blocks.values():
            yield from block.instrs

    @property
    def num_instrs(self) -> int:
        return sum(len(b) for b in self.blocks.values())

    def __repr__(self) -> str:
        return (
            f"<Function {self.name}({self.num_params} params, "
            f"{self.num_regs} regs, {len(self.blocks)} blocks)>"
        )

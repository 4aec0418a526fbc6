"""Register liveness analysis.

The Capri compiler checkpoints the *live-in* register set at region
boundaries: "the compiler performs static analysis over the control flow
graph to identify live-in registers to the next region" (Section 3.2).
This module provides block-level live-in/live-out sets plus an
instruction-level refinement used when boundaries fall mid-block.

Facts are bitsets: bit *r* is register *r*.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from repro.ir.cfg import CFG
from repro.ir.dataflow import DecodedMasks, bit_indices, solve_backward
from repro.ir.function import Function


class LivenessInfo:
    """Per-block liveness facts for one function.

    ``in_mask``/``out_mask`` hold the solved bitsets; ``live_in`` and
    ``live_out`` are read-only frozenset views of them.  ``use_mask`` and
    ``def_mask`` hold each block's upward-exposed reads and written
    registers, the solver's gen and kill sets.
    """

    def __init__(
        self,
        in_mask: Dict[str, int],
        out_mask: Dict[str, int],
        use_mask: Dict[str, int],
        def_mask: Dict[str, int],
    ) -> None:
        self.in_mask = in_mask
        self.out_mask = out_mask
        self.use_mask = use_mask
        self.def_mask = def_mask
        self.live_in = DecodedMasks(in_mask, int)
        self.live_out = DecodedMasks(out_mask, int)

    def live_before_index(self, func: Function, label: str, index: int) -> FrozenSet[int]:
        """Registers live immediately before ``block.instrs[index]``.

        Computed by walking the block backwards from its live-out set.
        ``index == len(instrs)`` gives the live-out set itself.
        """
        block = func.blocks[label]
        if not 0 <= index <= len(block.instrs):
            raise IndexError(index)
        live = self.out_mask[label]
        for instr in reversed(block.instrs[index:]):
            for d in instr.defs():
                live &= ~(1 << d.index)
            for u in instr.uses():
                live |= 1 << u.index
        return frozenset(bit_indices(live))


def block_use_def(func: Function, label: str) -> tuple[int, int]:
    """(use, def) masks: use = upward-exposed reads, def = any write."""
    uses = defs = 0
    for instr in func.blocks[label].instrs:
        for u in instr.uses():
            uses |= (1 << u.index) & ~defs
        for d in instr.defs():
            defs |= 1 << d.index
    return uses, defs


def compute_liveness(func: Function, cfg: CFG | None = None) -> LivenessInfo:
    """Compute live-in/live-out register-index sets for every reachable block."""
    cfg = cfg or CFG(func)
    use: Dict[str, int] = {}
    defs: Dict[str, int] = {}
    for label in cfg.rpo:
        use[label], defs[label] = block_use_def(func, label)
    out_mask, in_mask = solve_backward(cfg, use, defs)
    return LivenessInfo(in_mask, out_mask, use, defs)

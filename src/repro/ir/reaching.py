"""Reaching-definitions analysis.

A *definition* is a (block label, instruction index) pair whose instruction
writes some register.  The checkpoint-pruning pass (Section 4.4.1) uses
reaching definitions to build the backward slice that reconstructs a pruned
register value at recovery time.

Facts are bitsets: bit *i* is the *i*-th definition site, numbered in
(reverse postorder, instruction index) order.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.ir.cfg import CFG
from repro.ir.dataflow import DecodedMasks, bit_indices, solve_forward
from repro.ir.function import Function

#: A definition site: (block label, instruction index, register index).
DefSite = Tuple[str, int, int]


class ReachingDefs:
    """Reaching-definition facts for one function.

    The ``*_mask`` dicts hold the solved bitsets; ``reach_in``,
    ``reach_out`` and ``defs_of`` are read-only frozenset views of them.
    """

    def __init__(
        self,
        sites: Tuple[DefSite, ...],
        in_mask: Dict[str, int],
        out_mask: Dict[str, int],
        reg_mask: Dict[int, int],
    ) -> None:
        #: Every definition site of a reachable block, in bit order.
        self.sites = sites
        self.in_mask = in_mask
        self.out_mask = out_mask
        #: Bits of each register's definition sites.
        self.reg_mask = reg_mask
        site = sites.__getitem__
        #: Definitions reaching the *entry* of each block.
        self.reach_in = DecodedMasks(in_mask, site)
        #: Definitions reaching the *exit* of each block.
        self.reach_out = DecodedMasks(out_mask, site)
        #: All definition sites of each register index.
        self.defs_of = DecodedMasks(reg_mask, site)

    def reaching_defs_of(
        self, func: Function, label: str, index: int, reg_index: int
    ) -> FrozenSet[DefSite]:
        """Definition sites of ``reg_index`` reaching before instruction ``index``."""
        instrs = func.blocks[label].instrs
        if not 0 <= index <= len(instrs):
            raise IndexError(index)
        reach = self.in_mask[label]
        for i in range(index - 1, -1, -1):
            for d in instrs[i].defs():
                if d.index == reg_index:
                    return frozenset(((label, i, reg_index),))
        sites = self.sites
        mask = reach & self.reg_mask.get(reg_index, 0)
        return frozenset(sites[i] for i in bit_indices(mask))


def compute_reaching_defs(func: Function, cfg: CFG | None = None) -> ReachingDefs:
    """Compute reaching definitions for every reachable block."""
    cfg = cfg or CFG(func)

    sites: List[DefSite] = []
    reg_mask: Dict[int, int] = {}
    gen: Dict[str, int] = {}
    block_regs: Dict[str, List[int]] = {}
    for label in cfg.rpo:
        last_def: Dict[int, int] = {}
        for i, instr in enumerate(func.blocks[label].instrs):
            for d in instr.defs():
                reg = d.index
                bit = 1 << len(sites)
                sites.append((label, i, reg))
                reg_mask[reg] = reg_mask.get(reg, 0) | bit
                last_def[reg] = bit
        mask = 0
        for bit in last_def.values():
            mask |= bit
        gen[label] = mask
        block_regs[label] = list(last_def)

    kill: Dict[str, int] = {}
    for label, regs in block_regs.items():
        mask = 0
        for reg in regs:
            mask |= reg_mask[reg]
        kill[label] = mask

    in_mask, out_mask = solve_forward(cfg, gen, kill)
    return ReachingDefs(tuple(sites), in_mask, out_mask, reg_mask)

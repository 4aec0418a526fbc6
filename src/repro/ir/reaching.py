"""Reaching-definitions analysis.

A *definition* is a (block label, instruction index) pair whose instruction
writes some register.  The checkpoint-pruning pass (Section 4.4.1) uses
reaching definitions to build the backward slice that reconstructs a pruned
register value at recovery time.

Facts are bitsets: bit *i* is the *i*-th definition site, numbered in
(reverse postorder, instruction index) order.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

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
        self._bit_of: Dict[DefSite, int] | None = None
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
        local = _def_before(func, label, index, reg_index)
        if local is not None:
            return frozenset((local,))
        sites = self.sites
        mask = self.in_mask[label] & self.reg_mask.get(reg_index, 0)
        return frozenset(sites[i] for i in bit_indices(mask))

    def unique_def(
        self, func: Function, label: str, index: int, reg_index: int
    ) -> Optional[DefSite]:
        """The one site :meth:`reaching_defs_of` would return, or ``None``
        when it would return none or several."""
        local = _def_before(func, label, index, reg_index)
        if local is not None:
            return local
        mask = self.in_mask[label] & self.reg_mask.get(reg_index, 0)
        if not mask or mask & (mask - 1):
            return None
        return self.sites[mask.bit_length() - 1]

    @property
    def bit_of(self) -> Dict[DefSite, int]:
        """Bit number of each definition site (built on first use)."""
        if self._bit_of is None:
            self._bit_of = {site: i for i, site in enumerate(self.sites)}
        return self._bit_of

    def reindexed(self, func: Function, labels: Iterable[str]) -> "ReachingDefs":
        """These facts after instructions that write no register were
        inserted into or deleted from the blocks ``labels``.

        Such edits keep every block's definitions, in order, so the solved
        masks and the bit numbering hold; only the instruction index of
        each moved site is re-read from ``func``.
        """
        moved = {
            label: iter([
                (label, i, d.index)
                for i, instr in enumerate(func.blocks[label].instrs)
                for d in instr.defs()
            ])
            for label in labels
        }
        sites = tuple(
            next(moved[site[0]]) if site[0] in moved else site
            for site in self.sites
        )
        return ReachingDefs(sites, self.in_mask, self.out_mask, self.reg_mask)


def _def_before(
    func: Function, label: str, index: int, reg_index: int
) -> Optional[DefSite]:
    """The last definition of ``reg_index`` before ``instrs[index]`` in its
    own block, if any."""
    instrs = func.blocks[label].instrs
    if not 0 <= index <= len(instrs):
        raise IndexError(index)
    for i in range(index - 1, -1, -1):
        for d in instrs[i].defs():
            if d.index == reg_index:
                return (label, i, reg_index)
    return None


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

"""Register-checkpointing store insertion (paper Sections 3.2 and 4.2).

For every region boundary the compiler determines the registers that are
live into the region and makes sure each one's value is in checkpoint
storage before the boundary commits.  Following the paper, the pass looks
at *definition sites*: a register definition whose value reaches a boundary
where the register is live gets a :class:`CheckpointStore` inserted
immediately after it ("the compiler is interested in the last instructions
that update the same registers … it inserts checkpoint stores immediately
following them").

Parameters have no defining instruction; their checkpoint happens on the
caller side — the machine emits argument checkpoints at call/spawn time
(see :mod:`repro.isa.machine`), mirroring how the paper's caller checkpoints
the argument registers before the call boundary.

The pass records each region's live-in set in the region table
(``func.meta["regions"]``); the crash-recovery protocol and the tests use
it to validate restored register files.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.compiler.facts import FunctionFacts
from repro.ir.cfg import CFG
from repro.ir.dataflow import bit_indices
from repro.ir.function import Function
from repro.ir.instructions import CheckpointStore
from repro.ir.values import Reg

#: A definition site pending a checkpoint: (block label, instr index, reg).
_Site = Tuple[str, int, int]


def insert_checkpoints(func: Function, facts: Optional[FunctionFacts] = None) -> int:
    """Insert checkpoint stores after defs that feed region live-ins.

    Must run after :func:`repro.compiler.regions.form_regions`.  Returns the
    number of checkpoint stores inserted.  ``facts`` are the function's
    analyses when the caller already holds them.
    """
    regions = func.meta.get("regions")
    if regions is None:
        raise ValueError(f"{func.name}: run form_regions before insert_checkpoints")

    facts = facts or FunctionFacts(func)
    live_in_mask = facts.liveness.in_mask
    rdefs = facts.rdefs
    reg_mask = rdefs.reg_mask

    # Sites of a live-in register reaching its region's boundary.
    needed = 0
    for region in regions:
        label = region.entry_block
        live = live_in_mask[label]
        regs = list(bit_indices(live))
        region.live_in = frozenset(regs)
        defs_of_live = 0
        for reg in regs:
            defs_of_live |= reg_mask.get(reg, 0)
        needed |= rdefs.in_mask[label] & defs_of_live

    # Insert per block in descending index order so indices stay valid.
    by_block: Dict[str, List[_Site]] = {}
    for bit in bit_indices(needed):
        site = rdefs.sites[bit]
        by_block.setdefault(site[0], []).append(site)
    inserted = 0
    for label, sites in by_block.items():
        block = func.blocks[label]
        for (_, index, reg) in sorted(sites, key=lambda s: -s[1]):
            block.instrs.insert(index + 1, CheckpointStore(Reg(reg)))
            inserted += 1
    facts.edited(by_block)
    func.meta["checkpoints_inserted"] = inserted
    return inserted


def checkpoint_sites(func: Function) -> List[Tuple[str, int]]:
    """All (block label, index) positions of checkpoint stores."""
    out: List[Tuple[str, int]] = []
    for label, block in func.blocks.items():
        for i, instr in enumerate(block.instrs):
            if isinstance(instr, CheckpointStore):
                out.append((label, i))
    return out


def boundaries_served(
    func: Function,
    cfg: CFG,
    liveness,
    rdefs,
    label: str,
    ckpt_index: int,
) -> FrozenSet[str]:
    """Boundary blocks that the checkpoint at (label, ckpt_index) serves.

    A checkpoint of register ``r`` placed after def ``d`` serves boundary
    ``β`` when ``d`` reaches ``β`` and ``r`` is live into ``β``.  Used by
    the pruning and LICM passes to decide whether removal/motion is safe.
    """
    instrs = func.blocks[label].instrs
    instr = instrs[ckpt_index]
    if not isinstance(instr, CheckpointStore):
        raise ValueError(f"{label}[{ckpt_index}] is not a checkpoint store")
    reg = instr.src.index
    live_bit = 1 << reg
    live_in = liveness.in_mask
    entries = [r.entry_block for r in func.meta.get("regions", [])]

    # The def guarded by this checkpoint is the nearest preceding def of
    # ``reg`` in the same block (argument checkpoints are machine-emitted
    # and never appear as instructions).
    for i in range(ckpt_index - 1, -1, -1):
        if any(d.index == reg for d in instrs[i].defs()):
            bit = rdefs.bit_of.get((label, i, reg))
            if bit is None:
                return frozenset()  # unreachable block: its def reaches nothing
            reach_in = rdefs.in_mask
            return frozenset(
                b for b in entries
                if live_in[b] & live_bit and reach_in[b] >> bit & 1
            )
    # No def of ``reg`` precedes the checkpoint in its block (e.g. one
    # moved by LICM): conservatively report every boundary where ``reg``
    # is live, with no reach check.
    return frozenset(b for b in entries if live_in[b] & live_bit)

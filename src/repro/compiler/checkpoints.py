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

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.ir.instructions import CheckpointStore, RegionBoundary
from repro.ir.liveness import compute_liveness
from repro.ir.reaching import compute_reaching_defs
from repro.ir.values import Reg

#: A definition site pending a checkpoint: (block label, instr index, reg).
_Site = Tuple[str, int, int]


def insert_checkpoints(func: Function) -> int:
    """Insert checkpoint stores after defs that feed region live-ins.

    Must run after :func:`repro.compiler.regions.form_regions`.  Returns the
    number of checkpoint stores inserted.
    """
    regions = func.meta.get("regions")
    if regions is None:
        raise ValueError(f"{func.name}: run form_regions before insert_checkpoints")

    cfg = CFG(func)
    liveness = compute_liveness(func, cfg)
    rdefs = compute_reaching_defs(func, cfg)

    needed: Set[_Site] = set()
    for region in regions:
        label = region.entry_block
        live_in = liveness.live_in[label]
        region.live_in = frozenset(live_in)
        reach = rdefs.reach_in[label]
        for (d_label, d_index, d_reg) in reach:
            if d_reg in live_in:
                needed.add((d_label, d_index, d_reg))

    # Insert per block in descending index order so indices stay valid.
    by_block: Dict[str, List[_Site]] = {}
    for site in needed:
        by_block.setdefault(site[0], []).append(site)
    inserted = 0
    for label, sites in by_block.items():
        block = func.blocks[label]
        for (_, index, reg) in sorted(sites, key=lambda s: -s[1]):
            block.instrs.insert(index + 1, CheckpointStore(Reg(reg)))
            inserted += 1
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
    instr = func.blocks[label].instrs[ckpt_index]
    if not isinstance(instr, CheckpointStore):
        raise ValueError(f"{label}[{ckpt_index}] is not a checkpoint store")
    reg = instr.src.index

    # The def guarded by this checkpoint is the nearest preceding def of
    # ``reg`` in the same block (argument checkpoints are machine-emitted
    # and never appear as instructions).
    block = func.blocks[label]
    def_index = None
    for i in range(ckpt_index - 1, -1, -1):
        if any(d.index == reg for d in block.instrs[i].defs()):
            def_index = i
            break

    served: Set[str] = set()
    for region in func.meta.get("regions", []):
        b_label = region.entry_block
        if reg not in liveness.live_in[b_label]:
            continue
        reach = rdefs.reach_in[b_label]
        if def_index is not None:
            if (label, def_index, reg) in reach:
                served.add(b_label)
        else:
            # Checkpoint with no preceding in-block def (e.g. moved by
            # LICM): conservatively report all boundaries where reg is
            # live and some def in this block's predecessors reaches.
            served.add(b_label)
    return frozenset(served)

"""Moving checkpoints out of loops (paper Section 4.4.2).

A checkpoint store may be delayed from its original position (immediately
after the defining instruction) to any point before the first region
boundary it serves.  When the definition sits inside a loop but every
boundary served lies *outside* the loop — a value produced per-iteration
but only consumed after the loop — the per-iteration checkpoint is wasted
work: only the final iteration's value matters.  The pass moves such
checkpoints onto the loop's exit edges, executing them once instead of
once per iteration (cf. the paper's Figure 4).

Loop-carried registers (live at the header boundary) are never moved: the
header region needs their value every iteration.

The pass also performs the redundant-duplicate cleanup the paper mentions:
two checkpoints of the same register in one block with no intervening
redefinition — the earlier one can serve no boundary (boundaries sit at
block starts) and is deleted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import CFG, Loop
from repro.ir.function import Function
from repro.ir.instructions import CheckpointStore, Jump
from repro.compiler.checkpoints import boundaries_served
from repro.compiler.facts import FunctionFacts


def move_checkpoints_out_of_loops(
    func: Function, facts: Optional[FunctionFacts] = None
) -> int:
    """Apply checkpoint LICM in place; returns checkpoints moved + deduped.

    Must run after checkpoint insertion (and, in the standard pipeline,
    after pruning).  ``facts`` are the function's analyses when the caller
    already holds them; the edge splitting at the end invalidates them.
    """
    moved = 0
    deduped: List[str] = []
    for label, block in func.blocks.items():
        removed = _dedupe_block(block)
        if removed:
            moved += removed
            deduped.append(label)
    if facts is None:
        facts = FunctionFacts(func)
    else:
        facts.edited(deduped)

    loops = facts.loops
    if not loops:
        func.meta["checkpoints_licm"] = moved
        return moved
    cfg, liveness, rdefs = facts.cfg, facts.liveness, facts.rdefs
    region_entries = {
        r.entry_block for r in func.meta.get("regions", [])
    }
    scan = _LoopScan(func, cfg, liveness.in_mask, liveness.def_mask, region_entries)

    # Innermost-first so a checkpoint can hop out loop by loop.
    loops_by_depth = sorted(loops, key=lambda l: -l.depth)

    removals: Dict[str, List[int]] = {}
    exit_ckpts: Dict[Tuple[str, str], List[int]] = {}  # (from, to) edge -> regs

    claimed: Set[Tuple[str, int]] = set()
    serves_any: Dict[Tuple[str, int], bool] = {}
    for loop in loops_by_depth:
        exits = None
        for label in sorted(loop.body):
            for index, reg, redefined_later in scan.checkpoints(label):
                site = (label, index)
                if site in claimed:
                    continue
                served = serves_any.get(site)
                if served is None:
                    served = serves_any[site] = bool(boundaries_served(
                        func, cfg, liveness, rdefs, label, index
                    ))
                if not served:
                    continue  # pruning handles dead checkpoints
                # Delaying to the exit edges is safe unless some boundary
                # is reached from the def on a path that stays inside the
                # loop (the back-edge service of a loop-carried value);
                # boundaries served only via exit-and-re-enter paths are
                # still covered by the relocated checkpoint.  A value
                # redefined later in its own block never leaves it.
                if not redefined_later and scan.serves_inside(loop, label, reg):
                    continue
                claimed.add(site)
                removals.setdefault(label, []).append(index)
                if exits is None:
                    exits = loop.exits(cfg)
                for edge in exits:
                    exit_ckpts.setdefault(edge, []).append(reg)
                moved += 1

    for label, indices in removals.items():
        block = func.blocks[label]
        for index in sorted(indices, reverse=True):
            del block.instrs[index]

    # Split each exit edge with a block holding the relocated checkpoints.
    for (src, dst), regs in sorted(exit_ckpts.items()):
        _insert_on_edge(func, src, dst, regs)

    func.meta["checkpoints_licm"] = moved
    return moved


class _LoopScan:
    """Per-pass block facts for the LICM candidate scan, each block's
    computed once: its checkpoints, and its written registers as a mask."""

    def __init__(
        self,
        func: Function,
        cfg: CFG,
        live_in: Dict[str, int],
        def_mask: Dict[str, int],
        region_entries: Set[str],
    ) -> None:
        self.func = func
        self.succs = cfg.succs
        self.def_mask = def_mask
        #: live-in mask of each boundary block.
        self.boundary_live = {b: live_in[b] for b in region_entries}
        self._ckpts: Dict[str, List[Tuple[int, int, bool]]] = {}

    def checkpoints(self, label: str) -> List[Tuple[int, int, bool]]:
        """``(index, reg, redefined later in the block)`` of each checkpoint
        store of block ``label``, in instruction order."""
        found = self._ckpts.get(label)
        if found is None:
            found = []
            later = 0  # registers written after the current position
            instrs = self.func.blocks[label].instrs
            for index in range(len(instrs) - 1, -1, -1):
                instr = instrs[index]
                if isinstance(instr, CheckpointStore):
                    reg = instr.src.index
                    found.append((index, reg, bool(later >> reg & 1)))
                for d in instr.defs():
                    later |= 1 << d.index
            found.reverse()
            self._ckpts[label] = found
        return found

    def serves_inside(self, loop: Loop, label: str, reg: int) -> bool:
        """True if a boundary needing ``reg`` is reachable from the end of
        block ``label`` along a path that stays inside ``loop`` and never
        redefines ``reg``."""
        bit = 1 << reg
        body = loop.body
        boundary_live = self.boundary_live
        def_mask = self.def_mask
        seen: Set[str] = set()
        work = [s for s in self.succs[label] if s in body]
        while work:
            b = work.pop()
            if b in seen:
                continue
            seen.add(b)
            if boundary_live.get(b, 0) & bit:
                return True
            if def_mask[b] & bit:
                continue  # paths through this block no longer carry our value
            work.extend(s for s in self.succs[b] if s in body)
        return False


def _dedupe_block(block: BasicBlock) -> int:
    """Drop earlier duplicate checkpoints of a register within ``block``."""
    last_ckpt: Dict[int, int] = {}
    dead: List[int] = []
    for i, instr in enumerate(block.instrs):
        if isinstance(instr, CheckpointStore):
            reg = instr.src.index
            if reg in last_ckpt:
                dead.append(last_ckpt[reg])
            last_ckpt[reg] = i
        else:
            for d in instr.defs():
                last_ckpt.pop(d.index, None)
    for i in sorted(dead, reverse=True):
        del block.instrs[i]
    return len(dead)


def _insert_on_edge(func: Function, src: str, dst: str, regs: List[int]) -> None:
    """Split edge src->dst with a block of checkpoint stores for ``regs``."""
    from repro.ir.instructions import Branch
    from repro.ir.values import Reg

    label = func.fresh_label(f"{src}.exit_ckpt")
    seen: Set[int] = set()
    instrs = []
    for reg in regs:
        if reg not in seen:
            seen.add(reg)
            instrs.append(CheckpointStore(Reg(reg)))
    instrs.append(Jump(dst))
    func.add_block(BasicBlock(label, instrs))
    term = func.blocks[src].terminator
    if isinstance(term, Jump):
        if term.target == dst:
            term.target = label
    elif isinstance(term, Branch):
        if term.if_true == dst:
            term.if_true = label
        if term.if_false == dst:
            term.if_false = label

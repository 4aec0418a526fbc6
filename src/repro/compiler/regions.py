"""Region formation (paper Section 4.1).

Partitions each function into recoverable regions whose *dynamic* store
count never exceeds the given threshold — the contract that sizes the
back-end proxy buffer (Section 5.2.2).  The pass follows the paper's
heuristic to break the circular dependence between boundary placement and
checkpoint counting:

1. **Mandatory boundary points** are materialised first: function entry,
   every call and return (function entry/exit points), every memory fence
   and atomic operation, and the beginning of every natural-loop header.
   Blocks are split so every boundary sits at a block start.
2. Every remaining block start is an **optional** boundary — i.e. all
   basic blocks are initial regions.
3. Each block gets a conservative **store weight**: its real store count
   plus the checkpoint estimate ``|defs(block) ∩ live_out(block)|`` (each
   such register gets at most one checkpoint store in the block) plus the
   argument-checkpoint count of calls.
4. Optional boundaries are **greedily removed** (regions merged) in
   reverse-postorder as long as no region's worst-case path store weight
   exceeds the threshold.

Because every loop header keeps a boundary, the subgraph of any region is
acyclic and the worst-case store weight is a longest-path computation.

The pass inserts a :class:`~repro.ir.instructions.RegionBoundary` with a
unique ``region_id`` as the first instruction of each boundary block and
records a region table in ``func.meta["regions"]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.compiler.facts import FunctionFacts
from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import CFG, DomTree, natural_loops
from repro.ir.function import Function
from repro.ir.instructions import (
    AtomicRMW,
    Call,
    CheckpointStore,
    Fence,
    Halt,
    Instr,
    IOWrite,
    Jump,
    RegionBoundary,
    Ret,
    Store,
)
from repro.ir.liveness import LivenessInfo, compute_liveness
from repro.ir.module import Module

#: Smallest supported region threshold; below this single instructions
#: plus their checkpoint estimates cannot be guaranteed to fit a region.
MIN_THRESHOLD = 8


class RegionFormationError(Exception):
    """Raised when regions cannot satisfy the store-count threshold."""


@dataclass
class RegionInfo:
    """One region in the final formation (stored in ``func.meta``)."""

    region_id: int
    entry_block: str
    mandatory: bool
    #: Worst-case dynamic stores (including checkpoint estimates).
    max_store_weight: int = 0
    #: Live-in register indices (filled in by the checkpoint pass).
    live_in: frozenset = frozenset()


def _is_mandatory_pre_point(instr: Instr) -> bool:
    """Instructions that must begin a fresh region (boundary placed before)."""
    return instr.is_region_boundary_point or isinstance(instr, (Ret, Halt))


def _is_mandatory_post_point(instr: Instr) -> bool:
    """Instructions after which a fresh region must begin.

    I/O leaves the persistence domain (Section 3.3): isolating each I/O
    in a single-instruction region bounds re-execution after a crash to
    at most that one operation.
    """
    return isinstance(instr, IOWrite)


def _instr_store_weight(instr: Instr, count_ckpt_estimates: bool) -> int:
    """Dynamic stores contributed by one instruction for region budgeting.

    Calls contribute their argument-checkpoint stores (the machine emits
    one checkpoint per argument at call time; see repro.isa.machine).
    """
    weight = instr.store_count
    if count_ckpt_estimates and isinstance(instr, Call):
        weight += len(instr.args)
    return weight


def split_blocks(func: Function) -> Set[str]:
    """Split blocks so every mandatory boundary point starts a block.

    Returns the set of labels whose block start is a mandatory boundary.
    Loop headers are *not* handled here (they are block starts already);
    callers union them in after recomputing the CFG.
    """
    mandatory: Set[str] = {func.entry.label}
    # Iterate over a snapshot: splitting appends new blocks.
    for label in list(func.blocks.keys()):
        block = func.blocks[label]
        current_label = label
        while True:
            instrs = func.blocks[current_label].instrs
            split_at = None
            for i, instr in enumerate(instrs):
                pre_point = _is_mandatory_pre_point(instr)
                if pre_point and i > 0:
                    split_at = i
                    break
                if pre_point:
                    # A leading Call/Fence/Atomic/IO is a boundary at this
                    # block; later points in the block still need their
                    # own split, so keep scanning.
                    mandatory.add(current_label)
                if _is_mandatory_post_point(instr) and i + 1 < len(instrs):
                    split_at = i + 1
                    break
            if split_at is None:
                break
            new_label = func.fresh_label(f"{current_label}.split")
            tail = instrs[split_at:]
            del instrs[split_at:]
            instrs.append(Jump(new_label))
            func.add_block(BasicBlock(new_label, tail))
            mandatory.add(new_label)
            current_label = new_label
    return mandatory


def _block_store_weights(
    func: Function, cfg: CFG, liveness: Optional[LivenessInfo]
) -> Dict[str, int]:
    """Conservative per-block store weight (stores + checkpoint estimate).

    ``liveness`` is ``None`` when checkpoint estimates are not counted.
    """
    count_ckpt_estimates = liveness is not None
    weights: Dict[str, int] = {}
    for label in cfg.rpo:
        weight = sum(
            _instr_store_weight(i, count_ckpt_estimates)
            for i in func.blocks[label].instrs
        )
        if liveness is not None:
            weight += (liveness.def_mask[label] & liveness.out_mask[label]).bit_count()
        weights[label] = weight
    return weights


def _merge_regions(
    cfg: CFG, weights: Dict[str, int], mandatory: Set[str], threshold: int
) -> Tuple[Set[str], Dict[str, int]]:
    """Greedy merging: drop optional boundaries in RPO while budgets hold.

    ``g[b] = w(b) + max(0, max g(s))`` over the successors ``s`` of ``b``
    that come later in RPO and are not boundaries: region paths end at
    boundaries, function exits and retreating edges, so ``g`` of a
    boundary is its region's worst-case store weight (acyclic because
    every loop header is a boundary).  Dropping boundary ``x`` can only
    raise ``g`` of the blocks that reach ``x`` along such edges through
    non-boundary blocks; only those are updated, and restored when a
    boundary's ``g`` then exceeds ``threshold``.  Returns the kept
    boundaries and ``g`` of every reachable block.
    """
    rpo_index = cfg.rpo_index
    fwd_preds = {
        label: [
            p for p in cfg.preds[label]
            if p in rpo_index and rpo_index[p] < rpo_index[label]
        ]
        for label in cfg.rpo
    }
    boundaries: Set[str] = set(cfg.rpo)  # every block an initial region
    g = dict(weights)
    for label in cfg.rpo:
        if label in mandatory:
            continue
        boundaries.discard(label)
        undo: List[Tuple[str, int]] = []
        work = [label]
        fits = True
        while work and fits:
            s = work.pop()
            g_s = g[s]
            for p in fwd_preds[s]:
                new = weights[p] + g_s
                if new <= g[p]:
                    continue
                undo.append((p, g[p]))
                g[p] = new
                if p not in boundaries:
                    work.append(p)
                elif new > threshold:
                    fits = False
                    break
        if not fits:
            for p, old in reversed(undo):
                g[p] = old
            boundaries.add(label)
    return boundaries, g


def _check_acyclic_regions(cfg: CFG, boundaries: Set[str]) -> None:
    """Verify no cycle avoids every boundary (irreducible-CFG guard)."""
    color: Dict[str, int] = {}
    for start in cfg.rpo:
        if start in boundaries or color.get(start):
            continue
        stack: List[Tuple[str, int]] = [(start, 0)]
        color[start] = 1
        while stack:
            node, idx = stack[-1]
            succs = [s for s in cfg.succs[node] if s not in boundaries and s in cfg.rpo_index]
            if idx < len(succs):
                stack[-1] = (node, idx + 1)
                child = succs[idx]
                state = color.get(child, 0)
                if state == 1:
                    raise RegionFormationError(
                        "cycle without a region boundary detected "
                        f"(irreducible control flow near {child!r})"
                    )
                if state == 0:
                    color[child] = 1
                    stack.append((child, 0))
            else:
                color[node] = 2
                stack.pop()


def form_regions(
    func: Function,
    threshold: int = 256,
    count_ckpt_estimates: bool = True,
) -> List[RegionInfo]:
    """Run region formation on ``func`` in place; returns the region table.

    Raises :class:`RegionFormationError` if the threshold is too small for
    some basic block even after block-level splitting.
    """
    return form_regions_with_facts(func, threshold, count_ckpt_estimates)[0]


def form_regions_with_facts(
    func: Function, threshold: int, count_ckpt_estimates: bool
) -> Tuple[List[RegionInfo], FunctionFacts]:
    """:func:`form_regions`, also returning the analyses of the formed
    function for the checkpoint passes that follow it (see
    :mod:`repro.compiler.facts`)."""
    if threshold < MIN_THRESHOLD:
        raise RegionFormationError(
            f"threshold {threshold} below minimum {MIN_THRESHOLD}"
        )

    mandatory = split_blocks(func)
    facts, weights = _analyse(func, mandatory, count_ckpt_estimates)

    # Split any single block whose own weight exceeds the threshold: chop
    # its straight-line store runs into chunks that fit.
    oversized = [l for l in facts.cfg.rpo if weights[l] > threshold]
    if oversized:
        for label in oversized:
            _split_oversized_block(func, label, threshold, count_ckpt_estimates)
        facts, weights = _analyse(func, mandatory, count_ckpt_estimates)
        still = [l for l in facts.cfg.rpo if weights[l] > threshold]
        if still:
            raise RegionFormationError(
                f"{func.name}: block {still[0]!r} cannot fit threshold "
                f"{threshold} even after splitting"
            )

    cfg = facts.cfg
    _check_acyclic_regions(cfg, mandatory)
    boundaries, g = _merge_regions(cfg, weights, mandatory, threshold)

    # Materialise boundary instructions and the region table.
    regions: List[RegionInfo] = []
    for region_id, label in enumerate(l for l in cfg.rpo if l in boundaries):
        block = func.blocks[label]
        block.instrs.insert(0, RegionBoundary(region_id))
        regions.append(
            RegionInfo(
                region_id=region_id,
                entry_block=label,
                mandatory=label in mandatory,
                max_store_weight=g[label],
            )
        )
    func.meta["regions"] = regions
    func.meta["region_threshold"] = threshold
    return regions, facts


def _analyse(
    func: Function, mandatory: Set[str], count_ckpt_estimates: bool
) -> Tuple[FunctionFacts, Dict[str, int]]:
    """Analyse the split function: adds every loop header to ``mandatory``
    and keeps only reachable blocks there; returns the facts and the
    per-block store weights."""
    cfg = CFG(func)
    dom = DomTree(cfg)
    loops = natural_loops(cfg, dom)
    mandatory.update(loop.header for loop in loops)
    mandatory &= cfg.reachable
    liveness = compute_liveness(func, cfg) if count_ckpt_estimates else None
    facts = FunctionFacts(func, cfg, dom, loops, liveness)
    return facts, _block_store_weights(func, cfg, liveness)


def _split_oversized_block(
    func: Function, label: str, threshold: int, count_ckpt_estimates: bool
) -> None:
    """Split a block whose store weight exceeds the threshold into chunks.

    Chunks target half the threshold in raw store weight, leaving headroom
    for checkpoint estimates of the chunk's defs.
    """
    target = max(1, threshold // 2)
    current = label
    while True:
        instrs = func.blocks[current].instrs
        acc = 0
        split_at = None
        for i, instr in enumerate(instrs[:-1]):  # never split the terminator off
            acc += _instr_store_weight(instr, count_ckpt_estimates)
            if acc >= target and i + 1 < len(instrs) - 1:
                split_at = i + 1
                break
        if split_at is None:
            return
        new_label = func.fresh_label(f"{current}.chunk")
        tail = instrs[split_at:]
        del instrs[split_at:]
        instrs.append(Jump(new_label))
        func.add_block(BasicBlock(new_label, tail))
        current = new_label


def region_of_block(func: Function) -> Dict[str, int]:
    """Map each reachable block to the region id covering it.

    A block belongs to the region of the nearest boundary block on any path
    from the entry; by construction all paths into a non-boundary block come
    from a single region's subgraph, so the mapping is well defined.
    """
    cfg = CFG(func)
    boundary_ids: Dict[str, int] = {}
    for region in func.meta.get("regions", []):
        boundary_ids[region.entry_block] = region.region_id
    mapping: Dict[str, int] = {}
    for label in cfg.rpo:
        if label in boundary_ids:
            mapping[label] = boundary_ids[label]
        else:
            preds = [p for p in cfg.preds[label] if p in mapping]
            if preds:
                mapping[label] = mapping[preds[0]]
    return mapping

"""Static verification of Capri instrumentation invariants.

The crash tests prove recovery works on executions we run; this verifier
proves the *static* obligations hold on every path of the instrumented
program, independently of the passes that established them:

1. **Region budget** — no path between consecutive boundaries exceeds the
   store threshold (the back-end proxy sizing contract, Section 5.2.2).
2. **Checkpoint coverage** — for every region and every live-in register,
   each reaching definition is either followed by a surviving checkpoint
   store (before any redefinition), is a never-redefined parameter
   (covered by caller argument checkpoints), or the region has a recovery
   block reconstructing the register (Section 4.4.1).  This is the
   invariant that makes register restore correct at any crash point.
3. **Recovery block purity** — recovery blocks replay at recovery time
   over the restored register file, so they must be pure ALU/move code
   and their inputs must themselves be covered (not pruned).

Run via :func:`verify_capri_module` after compilation; the pipeline's
tests and the randomized property suite call it on every configuration.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir.cfg import CFG
from repro.ir.dataflow import bit_indices, solve_forward
from repro.ir.function import Function
from repro.ir.instructions import (
    BinOp,
    Call,
    CheckpointStore,
    Move,
    RegionBoundary,
    UnOp,
)
from repro.ir.liveness import compute_liveness
from repro.ir.module import Module

_PURE = (BinOp, UnOp, Move)


class CapriInvariantError(Exception):
    """An instrumented module violates a whole-system-persistence invariant."""


def _boundary_blocks(func: Function) -> Dict[str, int]:
    """Blocks whose first instruction is a region boundary -> region id."""
    out: Dict[str, int] = {}
    for label, block in func.blocks.items():
        if block.instrs and isinstance(block.instrs[0], RegionBoundary):
            out[label] = block.instrs[0].region_id
    return out


def check_region_budget(func: Function, threshold: int) -> None:
    """Invariant 1: worst-case stores between boundaries <= threshold.

    Longest-path over the boundary-free subgraph, counting real stores,
    checkpoint stores, and call argument checkpoints (machine-emitted).
    """
    cfg = CFG(func)
    boundaries = set(_boundary_blocks(func))
    weights: Dict[str, int] = {}
    for label in cfg.rpo:
        w = 0
        for instr in func.blocks[label].instrs:
            w += instr.store_count
            if isinstance(instr, Call):
                w += len(instr.args)
        weights[label] = w

    # g(b) = stores from b's start until the next boundary (or exit).
    g: Dict[str, int] = {}
    on_stack: Set[str] = set()

    order = list(reversed(cfg.rpo))
    for label in order:
        succ_max = 0
        for s in cfg.succs[label]:
            if s in boundaries:
                continue
            if s not in g:
                # Back edge to a non-boundary block would mean a cycle
                # without a boundary: unbounded stores.
                raise CapriInvariantError(
                    f"{func.name}: cycle through {s!r} with no region boundary"
                )
            succ_max = max(succ_max, g[s])
        g[label] = weights[label] + succ_max

    for label in boundaries:
        if label in g and g[label] > threshold:
            raise CapriInvariantError(
                f"{func.name}: region at {label!r} may execute {g[label]} "
                f"stores (> threshold {threshold})"
            )


def check_checkpoint_coverage(func: Function) -> None:
    """Invariant 2: every region live-in register is restorable.

    One forward gen/kill problem on :func:`solve_forward`.  Bit *i* is the
    *i*-th definition site, in (RPO, instruction) order.  A definition of
    r is generated where it occurs, and a later definition of r or a
    ``ckpt r`` kills it.  A definition still in ``IN`` of a boundary block
    where r is live, and no recovery block of that region rebuilds r,
    reaches the boundary with no checkpoint on some path.  A
    never-redefined parameter has no site: the caller's argument
    checkpoints cover it.

    The report names the first uncovered definition in bit order and the
    first boundary in RPO that it reaches, whatever the hash seed.
    """
    regions = func.meta.get("regions")
    if regions is None:
        raise CapriInvariantError(
            f"{func.name}: no region metadata (was the module compiled?)"
        )
    cfg = CFG(func)
    sites: List[Tuple[str, int, int]] = []
    reg_mask: Dict[int, int] = {}
    gen: Dict[str, int] = {}
    block_kills: Dict[str, Set[int]] = {}
    for label in cfg.rpo:
        uncovered: Dict[int, int] = {}
        killed: Set[int] = set()
        for i, instr in enumerate(func.blocks[label].instrs):
            if isinstance(instr, CheckpointStore):
                uncovered.pop(instr.src.index, None)
                killed.add(instr.src.index)
            for d in instr.defs():
                bit = 1 << len(sites)
                sites.append((label, i, d.index))
                reg_mask[d.index] = reg_mask.get(d.index, 0) | bit
                uncovered[d.index] = bit
                killed.add(d.index)
        gen[label] = sum(uncovered.values())
        block_kills[label] = killed
    # Masks of distinct bits, or of distinct registers' sites, are
    # disjoint, so each ``sum`` here and below is their union.
    kill = {
        label: sum(reg_mask.get(reg, 0) for reg in regs)
        for label, regs in block_kills.items()
    }
    reach_in, _ = solve_forward(cfg, gen, kill)

    live_in = compute_liveness(func, cfg).in_mask
    recovered: Dict[str, int] = {
        r.entry_block: sum({
            1 << rb.target for rb in func.recovery_blocks.get(r.region_id, [])
        })
        for r in regions
    }
    boundaries = _boundary_blocks(func)
    violations: List[Tuple[str, int]] = []
    for label in cfg.rpo:
        if label not in boundaries:
            continue
        exposed = 0
        for reg in bit_indices(live_in[label] & ~recovered.get(label, 0)):
            exposed |= reg_mask.get(reg, 0)
        exposed &= reach_in[label]
        if exposed:
            violations.append((label, exposed))
    if violations:
        first = min(mask & -mask for _, mask in violations)
        boundary = next(label for label, mask in violations if mask & first)
        d_label, d_index, reg = sites[first.bit_length() - 1]
        raise CapriInvariantError(
            f"{func.name}: def of r{reg} at {d_label}[{d_index}] "
            f"reaches boundary block {boundary!r} (r{reg} live) "
            "with no checkpoint or recovery block on the path"
        )


def check_recovery_blocks(func: Function) -> None:
    """Invariant 3: recovery blocks are pure and their inputs covered."""
    regions = {r.region_id: r for r in func.meta.get("regions", [])}
    cfg = CFG(func)
    liveness = compute_liveness(func, cfg)
    for region_id, blocks in func.recovery_blocks.items():
        region = regions.get(region_id)
        recovered_targets = {rb.target for rb in blocks}
        for rb in blocks:
            defined: Set[int] = set()
            for instr in rb.instrs:
                if not isinstance(instr, _PURE):
                    raise CapriInvariantError(
                        f"{func.name}: impure instruction {instr!r} in "
                        f"recovery block of region #{region_id}"
                    )
                for use in instr.uses():
                    if use.index in defined:
                        continue
                    if use.index in recovered_targets - {rb.target}:
                        raise CapriInvariantError(
                            f"{func.name}: recovery block for r{rb.target} "
                            f"reads pruned register r{use.index}"
                        )
                for d in instr.defs():
                    defined.add(d.index)
            if rb.target not in defined:
                raise CapriInvariantError(
                    f"{func.name}: recovery block for r{rb.target} never "
                    "defines its target"
                )
            # Intermediates must not clobber other live-in registers.
            if region is not None and region.entry_block in liveness.live_in:
                live = liveness.live_in[region.entry_block]
                for d in defined - {rb.target}:
                    if d in live:
                        raise CapriInvariantError(
                            f"{func.name}: recovery block for r{rb.target} "
                            f"clobbers live-in r{d}"
                        )


def verify_capri_function(func: Function, threshold: int) -> None:
    """All three invariants for one instrumented function."""
    check_region_budget(func, threshold)
    check_checkpoint_coverage(func)
    check_recovery_blocks(func)


def verify_capri_module(module: Module, threshold: int) -> None:
    """All invariants for every function of an instrumented module."""
    for func in module.functions.values():
        verify_capri_function(func, threshold)

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

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.cfg import CFG
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
from repro.ir.reaching import compute_reaching_defs

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


def _find_uncovered_boundary(
    func: Function,
    cfg: CFG,
    liveness,
    recovered: Dict[str, Set[int]],
    d_label: str,
    d_index: int,
    reg: int,
) -> Optional[str]:
    """Path-sensitive coverage check for one definition of ``reg``.

    Walks every path from just after the def, stopping a path when the
    register is checkpointed (slot now correct) or redefined (a later
    def takes responsibility).  Reaching a region boundary where ``reg``
    is live *without* a checkpoint is a violation — unless the region
    carries a recovery block for ``reg`` (pruning's replacement); the
    walk then continues, because later boundaries need their own cover.

    Returns the violating boundary block label, or ``None``.
    """

    def scan_block(label: str, start: int) -> Tuple[str, Optional[List[str]]]:
        """('covered'|'killed'|'fallthrough', successors) for one block."""
        instrs = func.blocks[label].instrs
        for i in range(start, len(instrs)):
            instr = instrs[i]
            if isinstance(instr, CheckpointStore) and instr.src.index == reg:
                return "covered", None
            if any(d.index == reg for d in instr.defs()):
                return "killed", None
            if isinstance(instr, RegionBoundary) and i == 0:
                pass  # handled by the caller on block entry
        return "fallthrough", cfg.succs.get(label, [])

    # Seed: the remainder of the defining block.
    state, succs = scan_block(d_label, d_index + 1)
    if state != "fallthrough":
        return None
    work: List[str] = list(succs or [])
    seen: Set[str] = set()
    while work:
        label = work.pop()
        if label in seen or label not in func.blocks:
            continue
        seen.add(label)
        block = func.blocks[label]
        if block.instrs and isinstance(block.instrs[0], RegionBoundary):
            if reg in liveness.live_in.get(label, frozenset()):
                if reg not in recovered.get(label, set()):
                    return label
        state, succs = scan_block(label, 0)
        if state == "fallthrough":
            work.extend(succs or [])
    return None


def check_checkpoint_coverage(func: Function) -> None:
    """Invariant 2: every region live-in register is restorable.

    For every definition of every register, every redefinition-free path
    to a boundary where the register is live must pass a checkpoint (or
    the region must carry a recovery block).
    """
    regions = func.meta.get("regions")
    if regions is None:
        raise CapriInvariantError(
            f"{func.name}: no region metadata (was the module compiled?)"
        )
    cfg = CFG(func)
    liveness = compute_liveness(func, cfg)
    rdefs = compute_reaching_defs(func, cfg)
    recovered: Dict[str, Set[int]] = {
        r.entry_block: {
            rb.target for rb in func.recovery_blocks.get(r.region_id, [])
        }
        for r in regions
    }
    # Sites in (RPO, instruction) order, so the violation reported is the
    # first in program order, whatever the hash seed.
    for (d_label, d_index, reg) in rdefs.sites:
        violation = _find_uncovered_boundary(
            func, cfg, liveness, recovered, d_label, d_index, reg
        )
        if violation is not None:
            raise CapriInvariantError(
                f"{func.name}: def of r{reg} at {d_label}[{d_index}] "
                f"reaches boundary block {violation!r} (r{reg} live) "
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

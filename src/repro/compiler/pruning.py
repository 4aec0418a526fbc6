"""Optimal checkpoint pruning (paper Section 4.4.1).

A checkpoint store can be removed when the register's value at every region
boundary it serves is *reconstructible* from other values available in
checkpoint storage at recovery time.  The pruned checkpoint is replaced by
a recovery block — the backward slice that recomputes the value — attached
to each served region; the crash-recovery protocol executes recovery
blocks after reloading checkpoint storage (Section 5.4.1).

A register ``q`` is *available* at boundary ``β`` when its slot is
guaranteed to hold the value ``q`` has on entry to ``β``'s region:

* ``q`` is a parameter never redefined in the function (the caller's
  argument checkpoints populate its slot), or
* ``q`` is live into ``β`` and still covered by a checkpoint store
  (not pruned), or
* ``q``'s unique reaching definition at ``β`` is followed in its block by
  a surviving checkpoint of ``q`` before any redefinition.

Safety conditions (conservative relative to the paper's optimal algorithm,
which also slices across control dependences):

* the slice contains only pure, re-executable instructions (ALU/moves),
* every slice instruction sits in a block *dominating* the boundary, with
  a unique reaching definition at each step — the reconstruction therefore
  executes unconditionally on every path and is deterministic,
* executing the slice at recovery clobbers no live-in register other than
  the target,
* registers used as recovery inputs are pinned: none of their checkpoints
  may be pruned afterwards.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.function import Function, RecoveryBlock
from repro.ir.instructions import BinOp, CheckpointStore, Instr, Move, UnOp
from repro.compiler.clone import clone_instr
from repro.compiler.facts import FunctionFacts
from repro.compiler.checkpoints import boundaries_served, checkpoint_sites

_PURE = (BinOp, UnOp, Move)

#: Maximum instructions allowed in one recovery slice.
MAX_SLICE = 16


class _Pruner:
    def __init__(self, func: Function, facts: FunctionFacts) -> None:
        self.func = func
        self.facts = facts
        self.cfg = facts.cfg
        self.dom = facts.dom
        self.liveness = facts.liveness
        self.rdefs = facts.rdefs
        regions = func.meta["regions"]
        self.region_by_block = {r.entry_block: r for r in regions}
        #: live-in registers still covered by a checkpoint, per boundary.
        self.covered: Dict[str, Set[int]] = {
            r.entry_block: set(r.live_in) for r in regions
        }
        #: parameters with no redefinition: slots always valid (arg ckpts).
        self.stable_params = frozenset(
            r for r in range(func.num_params) if not self.rdefs.defs_of.get(r)
        )
        #: registers used as recovery inputs — their ckpts must survive.
        self.pinned: Set[int] = set()
        #: checkpoint sites already scheduled for removal.
        self.removed: Set[Tuple[str, int]] = set()

    # -- availability -------------------------------------------------------

    def _ckpt_after_unique_def(self, b_label: str, reg: int) -> Optional[Tuple[str, int]]:
        """Surviving checkpoint site guarding reg's unique dominating def."""
        site = self.rdefs.unique_def(self.func, b_label, 0, reg)
        if site is None:
            return None
        d_label, d_index, _ = site
        if not self.dom.dominates(d_label, b_label):
            return None
        block = self.func.blocks[d_label]
        for i in range(d_index + 1, len(block.instrs)):
            instr = block.instrs[i]
            if isinstance(instr, CheckpointStore) and instr.src.index == reg:
                if (d_label, i) in self.removed:
                    return None
                return (d_label, i)
            if any(d.index == reg for d in instr.defs()):
                return None
        return None

    def _is_available(self, b_label: str, reg: int) -> bool:
        if reg in self.stable_params:
            return True
        if reg in self.covered[b_label]:
            return True
        return self._ckpt_after_unique_def(b_label, reg) is not None

    # -- slicing -------------------------------------------------------------

    def trace_slice(
        self, b_label: str, reg: int
    ) -> Optional[Tuple[List[Tuple[str, int]], Set[int]]]:
        """Backward slice of ``reg`` at ``b_label`` stopping at available regs.

        Returns (slice sites producers-first, input registers), or ``None``
        if any safety condition fails.
        """
        func, rdefs, dom = self.func, self.rdefs, self.dom
        ordered: List[Tuple[str, int]] = []
        seen: Set[Tuple[str, int]] = set()
        inputs: Set[int] = set()

        def visit(lbl: str, idx: int, r: int) -> bool:
            site = rdefs.unique_def(func, lbl, idx, r)
            if site is None:
                return False
            d_label, d_index, _ = site
            if (d_label, d_index) in seen:
                return True
            if not dom.dominates(d_label, b_label):
                return False
            instr = func.blocks[d_label].instrs[d_index]
            if not isinstance(instr, _PURE):
                return False
            if len(seen) >= MAX_SLICE:
                return False
            seen.add((d_label, d_index))
            for use in instr.uses():
                u = use.index
                if u != reg and self._is_available(b_label, u):
                    inputs.add(u)
                    continue
                if not visit(d_label, d_index, u):
                    return False
            ordered.append((d_label, d_index))
            return True

        if not visit(b_label, 0, reg):
            return None
        return ordered, inputs

    # -- main loop --------------------------------------------------------------

    def run(self) -> int:
        func = self.func
        pruned = 0
        to_remove: List[Tuple[str, int]] = []

        for (label, index) in checkpoint_sites(func):
            instr = func.blocks[label].instrs[index]
            assert isinstance(instr, CheckpointStore)
            reg = instr.src.index
            served = boundaries_served(
                func, self.cfg, self.liveness, self.rdefs, label, index
            )
            if not served:
                # Serves no boundary (possible after region merging): the
                # checkpoint is dead weight; drop it with no recovery code.
                to_remove.append((label, index))
                self.removed.add((label, index))
                pruned += 1
                continue
            if reg in self.pinned:
                continue
            plans: List[Tuple[str, List[Tuple[str, int]], Set[int]]] = []
            ok = True
            for b_label in sorted(served):
                traced = self.trace_slice(b_label, reg)
                if traced is None or not traced[0]:
                    ok = False
                    break
                slice_sites, inputs = traced
                # Clobber check: intermediates must not overwrite other
                # live-in registers of the boundary.
                live_in = self.liveness.live_in[b_label]
                for (s_label, s_index) in slice_sites:
                    for d in func.blocks[s_label].instrs[s_index].defs():
                        if d.index != reg and d.index in live_in:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
                plans.append((b_label, slice_sites, inputs))
            if not ok:
                continue

            # Commit this prune: recovery blocks + bookkeeping.
            for (b_label, slice_sites, inputs) in plans:
                region = self.region_by_block[b_label]
                instrs: List[Instr] = [
                    clone_instr(func.blocks[s].instrs[i])
                    for (s, i) in slice_sites
                ]
                func.recovery_blocks.setdefault(region.region_id, []).append(
                    RecoveryBlock(reg, instrs)
                )
                self.covered[b_label].discard(reg)
                self.pinned |= inputs
            to_remove.append((label, index))
            self.removed.add((label, index))
            pruned += 1

        # Physically delete pruned checkpoints, highest index first.
        by_block: Dict[str, List[int]] = {}
        for (label, index) in to_remove:
            by_block.setdefault(label, []).append(index)
        for label, indices in by_block.items():
            block = func.blocks[label]
            for index in sorted(indices, reverse=True):
                assert isinstance(block.instrs[index], CheckpointStore)
                del block.instrs[index]
        self.facts.edited(by_block)
        return pruned


def prune_checkpoints(func: Function, facts: Optional[FunctionFacts] = None) -> int:
    """Prune reconstructible checkpoints; returns the number removed.

    Must run after checkpoint insertion.  Attaches
    :class:`~repro.ir.function.RecoveryBlock` entries to
    ``func.recovery_blocks`` keyed by region id.  ``facts`` are the
    function's analyses when the caller already holds them.
    """
    if func.meta.get("regions") is None:
        raise ValueError(f"{func.name}: run form_regions/insert_checkpoints first")
    pruned = _Pruner(func, facts or FunctionFacts(func)).run()
    func.meta["checkpoints_pruned"] = pruned
    return pruned

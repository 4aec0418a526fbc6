"""Analyses of one function, shared by the passes after region formation.

Region formation computes the CFG, dominators, natural loops and liveness
of the function it has just split.  The checkpoint passes that follow it
keep those facts:

* boundaries and checkpoint stores add no block and no branch, so the CFG,
  dominators and loops hold;
* a boundary reads and writes no register, and a checkpoint store the
  pipeline inserts directly follows a definition of the register it reads,
  so no block gains or loses an upward-exposed use or a definition, and
  liveness holds;
* reaching definitions keep their masks and bit numbering for the same
  reason; only the instruction index of a site moves when a store is
  inserted or deleted before it.

A pass that inserts or deletes checkpoint stores reports the blocks it
edited to :meth:`FunctionFacts.edited`, which re-reads exactly those
blocks.  LICM's edge splitting, which adds blocks, is the last edit of
the pipeline, so nothing reads the facts after it.  A pass run on its own
builds a fresh :class:`FunctionFacts`, computing each analysis on first
use as before.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, List, Optional

from repro.ir.cfg import CFG, DomTree, Loop, natural_loops
from repro.ir.function import Function
from repro.ir.liveness import LivenessInfo, block_use_def, compute_liveness
from repro.ir.reaching import ReachingDefs, compute_reaching_defs


class FunctionFacts:
    """CFG, dominators, loops, liveness and reaching definitions of
    ``func``, each computed on first use unless handed in."""

    def __init__(
        self,
        func: Function,
        cfg: Optional[CFG] = None,
        dom: Optional[DomTree] = None,
        loops: Optional[List[Loop]] = None,
        liveness: Optional[LivenessInfo] = None,
    ) -> None:
        self.func = func
        self.cfg = cfg if cfg is not None else CFG(func)
        for name, value in (("dom", dom), ("loops", loops), ("liveness", liveness)):
            if value is not None:
                self.__dict__[name] = value

    @cached_property
    def dom(self) -> DomTree:
        return DomTree(self.cfg)

    @cached_property
    def loops(self) -> List[Loop]:
        return natural_loops(self.cfg, self.dom)

    @cached_property
    def liveness(self) -> LivenessInfo:
        return compute_liveness(self.func, self.cfg)

    @cached_property
    def rdefs(self) -> ReachingDefs:
        return compute_reaching_defs(self.func, self.cfg)

    def edited(self, labels: Iterable[str]) -> None:
        """Checkpoint stores were inserted into or deleted from the blocks
        ``labels``; no block or branch was added.

        Reaching definitions are re-keyed to the moved instruction
        indices.  Should an edited block's upward-exposed uses or
        definitions have changed (a deleted store with no definition
        before it), or liveness be unknown, the affected analyses are
        dropped and recomputed on next use instead.
        """
        labels = [l for l in labels if l in self.cfg.rpo_index]
        known = self.__dict__
        liveness = known.get("liveness")
        if liveness is not None:
            for label in labels:
                masks = (liveness.use_mask[label], liveness.def_mask[label])
                if block_use_def(self.func, label) != masks:
                    del known["liveness"]
                    liveness = None
                    break
        if liveness is None:
            known.pop("rdefs", None)
        elif "rdefs" in known:
            self.rdefs = self.rdefs.reindexed(self.func, labels)

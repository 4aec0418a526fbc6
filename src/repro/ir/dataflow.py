"""Iterative bit-vector dataflow over block-level gen/kill masks.

Both liveness (backward, union) and reaching definitions (forward, union)
are instances of this worklist solver.  A fact is a Python ``int`` used as
a bitset — bit *i* is the analysis' *i*-th item — so the meet is ``|`` and
every block's transfer function is ``gen | (x & ~kill)``.
:class:`DecodedMasks` turns the solved masks back into frozensets for
callers that want them.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable, Dict, FrozenSet, Iterator, List, Mapping, Sequence, Tuple, TypeVar,
)

from repro.ir.cfg import CFG

K = TypeVar("K")
T = TypeVar("T")


def _solve(
    order: Sequence[str],
    inputs: Dict[str, List[str]],
    dependents: Dict[str, List[str]],
    gen: Dict[str, int],
    kill: Dict[str, int],
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Least fixpoint of ``after[b] = gen[b] | (before[b] & ~kill[b])``
    with ``before[b] = OR of after[i] for i in inputs[b]``.

    For every block in ``order``, ``inputs`` and ``dependents`` list only
    blocks in ``order``.  Returns ``(before, after)``.
    """
    keep = {label: ~kill[label] for label in order}
    after: Dict[str, int] = dict.fromkeys(order, 0)
    worklist = deque(order)
    queued = set(order)
    while worklist:
        label = worklist.popleft()
        queued.discard(label)
        fact = 0
        for i in inputs[label]:
            fact |= after[i]
        new = gen[label] | (fact & keep[label])
        if new != after[label]:
            after[label] = new
            for d in dependents[label]:
                if d not in queued:
                    worklist.append(d)
                    queued.add(d)
    before: Dict[str, int] = {}
    for label in order:
        fact = 0
        for i in inputs[label]:
            fact |= after[i]
        before[label] = fact
    return before, after


def _reachable_preds(cfg: CFG) -> Dict[str, List[str]]:
    rpo_index = cfg.rpo_index
    return {
        label: [p for p in cfg.preds[label] if p in rpo_index]
        for label in cfg.rpo
    }


def solve_forward(
    cfg: CFG, gen: Dict[str, int], kill: Dict[str, int]
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Forward may-analysis: ``(IN, OUT)`` masks of every reachable block,
    where ``OUT[b] = gen[b] | (IN[b] & ~kill[b])`` and ``IN[b]`` is the
    union of the reachable predecessors' OUT (empty when there are none)."""
    return _solve(cfg.rpo, _reachable_preds(cfg), cfg.succs, gen, kill)


def solve_backward(
    cfg: CFG, gen: Dict[str, int], kill: Dict[str, int]
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Backward may-analysis: ``(OUT, IN)`` masks of every reachable
    block, where ``IN[b] = gen[b] | (OUT[b] & ~kill[b])`` and ``OUT[b]``
    is the union of the successors' IN (empty at exits)."""
    return _solve(cfg.rpo[::-1], cfg.succs, _reachable_preds(cfg), gen, kill)


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    bits = bin(mask)[:1:-1]
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


class DecodedMasks(Mapping[K, FrozenSet[T]]):
    """Read-only ``key -> frozenset`` view of ``key -> mask``; each value
    is decoded with ``item(bit)`` on first access and then kept."""

    __slots__ = ("_masks", "_item", "_decoded")

    def __init__(self, masks: Dict[K, int], item: Callable[[int], T]) -> None:
        self._masks = masks
        self._item = item
        self._decoded: Dict[K, FrozenSet[T]] = {}

    def __getitem__(self, key: K) -> FrozenSet[T]:
        value = self._decoded.get(key)
        if value is None:
            item = self._item
            value = frozenset(item(i) for i in bit_indices(self._masks[key]))
            self._decoded[key] = value
        return value

    def __contains__(self, key: object) -> bool:
        return key in self._masks

    def __iter__(self) -> Iterator[K]:
        return iter(self._masks)

    def __len__(self) -> int:
        return len(self._masks)

"""The allowed-outcome oracle for region-level strict persistency.

Given a prefix of the architectural event stream, which post-crash NVM
values may recovery legally produce for each address?  Per address the
answer is the set of **per-core contributions**: recovery processes one
core at a time — committed redo in region order, then rollback of the
uncommitted tail via intact undo — so the surviving value is the
contribution of whichever core recovery happens to process last among
those touching the address.  Cross-core processing order is the
ambiguity; the *per-address linearisation* set is exactly:

* a core with an **open (uncommitted) store** to the address
  contributes the undo word of its first open store — its own redo (if
  any) is overwritten by its own rollback,
* a core with only **committed** stores contributes its last committed
  redo value,
* an address no core has touched stays at the **baseline** (pre-first
  -store) value.

The oracle does not restate that rule: it drives the reference
automaton (:class:`repro.check.model.PersistencyModel`, itself a
machine observer) with the trace and reads the answer back —
:meth:`~repro.check.model.PersistencyModel.allowed_values` per touched
address and :meth:`~repro.check.model.CoreModel.last_committed` per
core.  The model needs no load values and no machine, so a captured
:class:`repro.trace.record.ExecTrace` drives it standalone — the matrix
builds one snapshot per crash index from a single delivery pass.

This is deliberately *per-address*: cross-address correlations (core A
recovered-before-core-B for one word but after for another) are allowed
by the set, matching the per-address independence of the drain/recovery
pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

if TYPE_CHECKING:  # repro.check is heavy to import; loaded on first use
    from repro.check.model import PersistencyModel


@dataclass
class OutcomeSnapshot:
    """Allowed post-crash outcomes after one event prefix."""

    #: addr -> the set of values recovery may leave in NVM.
    allowed: Dict[int, FrozenSet[int]]
    #: core -> region id of its last committed boundary (``None`` until
    #: the core's implicit spawn boundary has retired — only then is a
    #: cold restart a legal resume).
    committed_region: Dict[int, Optional[int]]

    def allows(self, addr: int, value: int, baseline: int = 0) -> bool:
        return value in self.allowed.get(addr, frozenset((baseline,)))


def outcome_snapshot(model: PersistencyModel) -> OutcomeSnapshot:
    """Project ``model``'s contribution rule onto every touched address."""
    committed_region: Dict[int, Optional[int]] = {}
    for core, cm in model.cores.items():
        last = cm.last_committed()
        committed_region[core] = None if last is None else last.region_id
    return OutcomeSnapshot(
        allowed={
            addr: frozenset(model.allowed_values(addr)) for addr in model.writers
        },
        committed_region=committed_region,
    )


def oracle_snapshots(trace) -> List[OutcomeSnapshot]:
    """One :class:`OutcomeSnapshot` per crash index of ``trace``.

    The crash injector fires *before* delegating event ``k``, so a crash
    at index ``k`` reflects events ``[0, k)`` — ``snapshots[k]`` is the
    allowed set for that crash point, and ``snapshots[len(trace)]`` is
    the end-of-run set.
    """
    from repro.check.model import PersistencyModel
    from repro.deps import touch

    touch("litmus")
    model = PersistencyModel()
    out = [outcome_snapshot(model)]
    for i in range(len(trace)):
        trace.deliver(model, start=i, stop=i + 1)
        out.append(outcome_snapshot(model))
    return out


def per_core_last_writes(trace) -> Dict[int, Dict[int, int]]:
    """``addr -> {core -> last value that core ever stores to addr}``.

    Straight-line litmus programs make the golden trace's per-core store
    order the program order, so these are the values each hart's *final*
    store to the address writes — the candidate winners of the
    post-resume race on a multi-writer word.
    """
    from repro.trace.record import K_ATOMIC, K_STORE

    last: Dict[int, Dict[int, int]] = {}
    kinds, cores = trace.kinds, trace.cores
    col_a, col_b = trace.a, trace.b
    for i in range(len(kinds)):
        k = kinds[i]
        if k == K_STORE or k == K_ATOMIC:
            last.setdefault(col_a[i], {})[cores[i]] = col_b[i]
    return last


def multi_writer_addrs(trace) -> Tuple[int, ...]:
    """Addresses stored by more than one core in ``trace``."""
    return tuple(
        sorted(
            addr
            for addr, per_core in per_core_last_writes(trace).items()
            if len(per_core) > 1
        )
    )

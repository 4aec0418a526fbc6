"""The usage probe: which subsystems did this run actually exercise?

Two complementary mechanisms, both cheap enough for the hot path:

* **Declared touch points.**  The handful of chokepoints every
  simulation funnels through call :func:`touch` with their subsystem
  name — ``Workload.build`` -> ``workloads``, ``CapriCompiler.compile``
  -> ``compiler``, ``build_system`` and ``build_replay_system`` ->
  ``arch``, ``PersistencyChecker.attach`` -> ``check``.  With no probe
  active a touch is a dict lookup and a return — nothing to allocate,
  nothing to lock.
* **Import scan.**  On exit the probe diffs ``sys.modules`` against its
  entry snapshot and maps any newly imported ``repro.*`` module to its
  subsystem — belt and braces for code paths that slip past the declared
  points (a fresh worker process importing ``repro.check`` lazily, say).

Probes nest (``execute_spec`` inside a campaign inside a sweep): every
touch is broadcast to *all* active probes, so an outer probe sees the
union of its children.  ``core`` is always included — shared plumbing
(api, isa, deps itself) is everybody's dependency.
"""

from __future__ import annotations

import sys
from typing import List, Set, Tuple

from repro.deps.fingerprint import SUBSYSTEMS, subsystem_for_module

#: Active probes, innermost last.  Module-global by design: the touch
#: points must not thread a probe argument through every call signature.
_STACK: List["UsageProbe"] = []

_KNOWN = frozenset(SUBSYSTEMS)


def touch(*names: str) -> None:
    """Record that the calling code exercised ``names`` subsystems.

    No-op (and near-free) when no probe is active.  Unknown names are
    ignored rather than raised: a touch point must never be able to
    break a simulation.
    """
    if not _STACK:
        return
    for probe in _STACK:
        probe._seen.update(name for name in names if name in _KNOWN)


class UsageProbe:
    """Context manager collecting the subsystems used inside its window."""

    __slots__ = ("_seen", "_modules_before")

    def __init__(self) -> None:
        self._seen: Set[str] = {"core"}
        self._modules_before: Set[str] = set()

    def __enter__(self) -> "UsageProbe":
        self._modules_before = set(sys.modules)
        _STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Remove *this* probe wherever it sits (exceptions can unwind
        # nested probes out of order without corrupting the stack).
        try:
            _STACK.remove(self)
        except ValueError:
            pass
        for name in set(sys.modules) - self._modules_before:
            sub = subsystem_for_module(name)
            if sub is not None:
                self._seen.add(sub)
        return None

    def subsystems(self) -> Tuple[str, ...]:
        """The recorded dependency set, sorted, always including core."""
        return tuple(sorted(self._seen))


def active() -> bool:
    """Is any probe currently recording?  (Introspection for tests.)"""
    return bool(_STACK)

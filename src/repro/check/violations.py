"""Violation taxonomy and structured reports for the persistency checker.

Every divergence the checker can detect maps to one of eight taxonomy
classes, chosen so each class names the *protocol rule* that broke
rather than the symptom:

==========================  ==================================================
class                       the broken rule
==========================  ==================================================
``premature-persist``       data of an uncommitted region reached NVM, or a
                            committed region was retroactively edited
``lost-redo``               a committed region's redo word will never become
                            durable (skipped, dropped, or wrong value)
``out-of-order-drain``      phase-2 drain violated region order (Section
                            5.2.2's boundary-ordered drain)
``stale-boundary-pc``       the durable PC checkpoint does not name the last
                            drained boundary (DESIGN.md finding #1 as an
                            axiom)
``uncovered-ckpt-slot``     a committed region's staged register checkpoint
                            was not flushed at boundary drain
``corrupt-undo``            a data entry's undo word differs from the
                            architectural pre-store value
``stale-redo-overwrite``    a redo word invalidated by a regular-path
                            writeback drained anyway (Section 5.3.2's
                            valid-bit axiom)
``phantom-persist``         persistent state appeared that no architectural
                            event explains
==========================  ==================================================

Reports carry the observer event index at detection time and a
*minimized witness window* — the recent-event ring filtered down to the
violating core/address, the same greedy drop-what-is-irrelevant style
:func:`repro.fault.oracle.minimize_failure` uses for failing sweep
points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

PREMATURE_PERSIST = "premature-persist"
LOST_REDO = "lost-redo"
OUT_OF_ORDER_DRAIN = "out-of-order-drain"
STALE_BOUNDARY_PC = "stale-boundary-pc"
UNCOVERED_CKPT_SLOT = "uncovered-ckpt-slot"
CORRUPT_UNDO = "corrupt-undo"
STALE_REDO_OVERWRITE = "stale-redo-overwrite"
PHANTOM_PERSIST = "phantom-persist"

ALL_KINDS = (
    PREMATURE_PERSIST,
    LOST_REDO,
    OUT_OF_ORDER_DRAIN,
    STALE_BOUNDARY_PC,
    UNCOVERED_CKPT_SLOT,
    CORRUPT_UNDO,
    STALE_REDO_OVERWRITE,
    PHANTOM_PERSIST,
)

#: A witness event: (tag, core, *payload) — tags are the machine-event
#: names plus the proxy-hook names ("entry", "merge", "drain", "skip",
#: "boundary-drain", "writeback").
WitnessEvent = Tuple


@dataclass
class Violation:
    """One detected persistency-model violation."""

    kind: str
    core: int
    detail: str
    event_index: int
    addr: Optional[int] = None
    seq: Optional[int] = None
    witness: List[WitnessEvent] = field(default_factory=list)

    def format(self) -> str:
        loc = f"core {self.core}"
        if self.seq is not None:
            loc += f" seq {self.seq}"
        if self.addr is not None:
            loc += f" addr {self.addr:#x}"
        lines = [
            f"[{self.kind}] event {self.event_index} ({loc}): {self.detail}"
        ]
        if self.witness:
            lines.append(f"  witness ({len(self.witness)} events):")
            for ev in self.witness:
                lines.append(f"    {ev!r}")
        return "\n".join(lines)


class PersistencyViolationError(Exception):
    """A run (or crash state) violated the region-persistency model."""

    def __init__(self, report: "CheckReport") -> None:
        super().__init__(report.summary())
        self.report = report


#: Hard cap on recorded violations — a badly mutated run can violate on
#: every drain; the first few witnesses carry all the signal.
_MAX_VIOLATIONS = 64


@dataclass
class CheckReport:
    """Everything one checked run produced."""

    violations: List[Violation] = field(default_factory=list)
    #: observer events seen (the crash-index universe).
    events: int = 0
    #: individual model comparisons performed.
    checks: int = 0
    #: violations dropped past the cap.
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.suppressed

    def kinds(self) -> List[str]:
        seen: List[str] = []
        for v in self.violations:
            if v.kind not in seen:
                seen.append(v.kind)
        return seen

    def add(self, violation: Violation) -> None:
        if len(self.violations) >= _MAX_VIOLATIONS:
            self.suppressed += 1
            return
        self.violations.append(violation)

    def merge(self, violations: Iterable[Violation], suppressed: int = 0) -> None:
        """Fold another report's violations in under this report's cap."""
        for v in violations:
            self.add(v)
        self.suppressed += suppressed

    def raise_if_violated(self) -> None:
        if not self.ok:
            raise PersistencyViolationError(self)

    def summary(self) -> str:
        if self.ok:
            return (
                f"persistency check OK — {self.events} events, "
                f"{self.checks} checks, 0 violations"
            )
        counts: dict = {}
        for v in self.violations:
            counts[v.kind] = counts.get(v.kind, 0) + 1
        parts = [f"{k}×{n}" for k, n in sorted(counts.items())]
        extra = f" (+{self.suppressed} suppressed)" if self.suppressed else ""
        text = (
            f"persistency check FAILED — {len(self.violations)} violations"
            f"{extra}"
        )
        if not self.violations:  # every one of them past the cap
            return text
        first = self.violations[0]
        return (
            f"{text} [{', '.join(parts)}]; first: [{first.kind}] "
            f"event {first.event_index}: {first.detail}"
        )

    def format(self, limit: int = 8) -> str:
        lines = [self.summary()]
        for v in self.violations[:limit]:
            lines.append(v.format())
        if len(self.violations) > limit:
            lines.append(f"  … {len(self.violations) - limit} more")
        return "\n".join(lines)


def minimize_witness(
    window: Iterable[WitnessEvent],
    core: Optional[int] = None,
    addr: Optional[int] = None,
    max_events: int = 12,
) -> List[WitnessEvent]:
    """Shrink a recent-event window to a minimal witness.

    Greedy relevance filter in the spirit of the fault campaign's
    :func:`~repro.fault.oracle.minimize_failure`: drop everything that
    names neither the violating core nor the violating address; if that
    kills the whole window (the violation is global), fall back to the
    most recent events.  Always bounded by ``max_events`` (newest kept).
    """
    window = list(window)

    def relevant(ev: WitnessEvent) -> bool:
        if core is not None and len(ev) > 1 and ev[1] == core:
            return True
        if addr is not None and addr in ev[2:]:
            return True
        return core is None and addr is None

    kept = [ev for ev in window if relevant(ev)]
    if not kept:
        kept = window
    return kept[-max_events:]

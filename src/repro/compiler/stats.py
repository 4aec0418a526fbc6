"""Region statistics for Figures 10 and 11.

The paper reports the *average number of instructions* per region
(Figure 10) and the *average number of stores including checkpoints* per
region (Figure 11).  Both are dynamic quantities: a loop region executing
a thousand times counts a thousand samples.  The
:class:`RegionStatsObserver` measures them directly from the machine's
event stream; :func:`region_means` derives the same two means from a
finished run's counters, which is how the figures get them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.isa.trace import Observer


@dataclass
class RegionDynStats:
    """Aggregated dynamic region statistics."""

    regions_executed: int = 0
    total_instructions: int = 0
    total_stores: int = 0

    def record(self, instructions: int, stores: int) -> None:
        self.regions_executed += 1
        self.total_instructions += instructions
        self.total_stores += stores

    @property
    def avg_instructions(self) -> float:
        """Average dynamic instructions per executed region (Figure 10)."""
        if self.regions_executed == 0:
            return 0.0
        return self.total_instructions / self.regions_executed

    @property
    def avg_stores(self) -> float:
        """Average dynamic stores incl. checkpoints per region (Figure 11)."""
        if self.regions_executed == 0:
            return 0.0
        return self.total_stores / self.regions_executed


class RegionStatsObserver(Observer):
    """Counts per-region instruction and store totals from the event stream.

    A region's dynamic extent runs from one boundary event to the next on
    the same core.  Boundary instructions themselves are not counted inside
    the region (they delimit it), matching the paper's methodology of
    excluding boundary instructions from the simulated instruction budget.
    Spawn-prologue events belong to no region: the argument checkpoints a
    hart emits before its implicit first boundary are counted nowhere.
    """

    def __init__(self) -> None:
        self.stats = RegionDynStats()
        # per-core in-flight counters: [instructions, stores, in_region]
        self._counts: Dict[int, List[int]] = {}

    def _core(self, core: int) -> List[int]:
        counters = self._counts.get(core)
        if counters is None:
            counters = [0, 0, 0]
            self._counts[core] = counters
        return counters

    def on_retire(self, core: int, kind: str) -> None:
        if kind != "RegionBoundary":
            self._core(core)[0] += 1

    def on_store(self, core: int, addr: int, value: int, old: int) -> None:
        self._core(core)[1] += 1

    def on_ckpt(self, core: int, reg: int, value: int, addr: int) -> None:
        self._core(core)[1] += 1

    def on_atomic(self, core: int, addr: int, value: int, old: int) -> None:
        self._core(core)[1] += 1

    def on_boundary(self, core: int, region_id: int, continuation) -> None:
        counters = self._core(core)
        if counters[2]:  # close the previous region
            self.stats.record(counters[0], counters[1])
        counters[0] = 0
        counters[1] = 0
        counters[2] = 1

    def on_halt(self, core: int) -> None:
        counters = self._core(core)
        if counters[2]:
            self.stats.record(counters[0], counters[1])
            counters[2] = 0
        counters[0] = 0
        counters[1] = 0


def region_means(
    metrics, spawns: Sequence[Tuple[str, Sequence[int]]]
) -> Tuple[float, float]:
    """Figures 10 and 11's means from a run's ``SystemMetrics`` counters.

    Returns ``(avg_instructions, avg_stores)``, equal to what
    :class:`RegionStatsObserver` reports for the same run.  Every boundary
    event opens a region, so ``boundaries`` counts regions; each hart's
    implicit spawn boundary retires no instruction, hence ``+ harts``.
    The spawn prologue's argument checkpoints belong to no region, so
    they come off the store count.
    """
    regions = metrics.boundaries
    if regions == 0:
        return 0.0, 0.0
    harts = len(spawns)
    prologue_ckpts = sum(len(args) for _, args in spawns)
    return (
        (metrics.retired - regions + harts) / regions,
        (metrics.stores + metrics.ckpt_stores - prologue_ckpts) / regions,
    )


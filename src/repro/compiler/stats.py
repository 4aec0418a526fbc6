"""Region statistics for Figures 10 and 11.

The paper reports the *average number of instructions* per region
(Figure 10) and the *average number of stores including checkpoints* per
region (Figure 11).  Both are dynamic quantities: a loop region executing
a thousand times counts a thousand samples.  The
:class:`RegionStatsObserver` measures them directly from the machine's
event stream, with the length distributions ``repro profile`` reports;
:func:`region_means` derives the two means from a finished run's
counters, which is how the figures get them; :func:`static_region_stats`
offers the cheaper static approximation used for quick sanity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.ir.instructions import CheckpointStore, RegionBoundary
from repro.isa.trace import Observer


#: Cap on retained per-region samples (uniform reservoir) so long runs
#: keep bounded memory while percentiles stay representative.
_RESERVOIR = 4096


@dataclass
class RegionDynStats:
    """Aggregated dynamic region statistics, with length distributions.

    The paper's Figures 10/11 report means; the *distribution* is what
    motivates speculative unrolling (Section 4.3): most regions are much
    shorter than the threshold allows because of short loops.  Samples
    are kept in a uniform reservoir so percentiles are available without
    unbounded memory.
    """

    regions_executed: int = 0
    total_instructions: int = 0
    total_stores: int = 0
    #: Instructions retired outside any committed region tail (final stub).
    tail_instructions: int = 0
    #: Reservoir samples of (instructions, stores) per executed region.
    samples: List[tuple] = field(default_factory=list)

    def record(self, instructions: int, stores: int) -> None:
        self.regions_executed += 1
        self.total_instructions += instructions
        self.total_stores += stores
        if len(self.samples) < _RESERVOIR:
            self.samples.append((instructions, stores))
        else:
            # Deterministic systematic reservoir: replace a rotating slot
            # with decreasing probability (index-hash based, no RNG so
            # runs stay reproducible).
            slot = (self.regions_executed * 2654435761) % self.regions_executed
            if slot < _RESERVOIR:
                self.samples[slot] = (instructions, stores)

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

    def percentile_instructions(self, q: float) -> float:
        """q-quantile (0..1) of region instruction counts."""
        return self._percentile(0, q)

    def percentile_stores(self, q: float) -> float:
        """q-quantile (0..1) of region store counts."""
        return self._percentile(1, q)

    def _percentile(self, idx: int, q: float) -> float:
        if not self.samples:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        values = sorted(s[idx] for s in self.samples)
        pos = q * (len(values) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(values) - 1)
        frac = pos - lo
        # lerp via lo + frac*(hi-lo): exact at frac==0/1 and never escapes
        # [values[lo], values[hi]] to float error, unlike the two-product
        # form values[lo]*(1-frac) + values[hi]*frac.
        return values[lo] + (values[hi] - values[lo]) * frac

    def histogram_instructions(self, bins: Sequence[int]) -> Dict[str, int]:
        """Counts of sampled regions per length bucket.

        ``bins`` are ascending upper bounds; a final unbounded bucket is
        added automatically.
        """
        labels = []
        lower = 0
        for b in bins:
            labels.append((f"{lower}-{b}", lower, b))
            lower = b + 1
        labels.append((f">{bins[-1]}", lower, None))
        out = {label: 0 for (label, _, _) in labels}
        for instructions, _ in self.samples:
            for label, lo, hi in labels:
                if hi is None or lo <= instructions <= hi:
                    if hi is None:
                        out[label] += 1
                        break
                    if instructions <= hi:
                        out[label] += 1
                        break
        return out


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
        else:
            self.stats.tail_instructions += counters[0]
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


@dataclass
class StaticRegionStats:
    """Static per-function region statistics."""

    num_regions: int
    num_checkpoints: int
    num_boundaries: int
    avg_static_instrs: float


def static_region_stats(func: Function) -> StaticRegionStats:
    """Static approximation: instructions per region entry block's subgraph.

    Used by unit tests; the figures use the dynamic observer.
    """
    regions = func.meta.get("regions", [])
    boundaries = sum(
        1
        for block in func.blocks.values()
        for i in block.instrs
        if isinstance(i, RegionBoundary)
    )
    ckpts = sum(
        1
        for block in func.blocks.values()
        for i in block.instrs
        if isinstance(i, CheckpointStore)
    )
    total_instrs = func.num_instrs - boundaries
    avg = total_instrs / max(1, len(regions))
    return StaticRegionStats(
        num_regions=len(regions),
        num_checkpoints=ckpts,
        num_boundaries=boundaries,
        avg_static_instrs=avg,
    )

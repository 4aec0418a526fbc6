"""Tests for the dynamic region-statistics aggregate."""

import pytest

from repro.compiler import CapriCompiler, OptConfig
from repro.compiler.stats import RegionDynStats, RegionStatsObserver
from repro.isa import Machine

from tests.compiler.conftest import build_loop_kernel


class TestRegionDynStats:
    def test_record_aggregates(self):
        s = RegionDynStats()
        s.record(10, 2)
        s.record(20, 4)
        assert s.regions_executed == 2
        assert s.avg_instructions == 15
        assert s.avg_stores == 3

    def test_empty_stats(self):
        s = RegionDynStats()
        assert s.avg_instructions == 0.0
        assert s.avg_stores == 0.0


class _SampledStats(RegionDynStats):
    """Keeps every region's instruction count, for quantiles in tests."""

    def __init__(self) -> None:
        super().__init__()
        self.lengths = []

    def record(self, instructions: int, stores: int) -> None:
        super().record(instructions, stores)
        self.lengths.append(instructions)

    def quantile(self, q: float) -> float:
        values = sorted(self.lengths)
        pos = q * (len(values) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(values) - 1)
        return values[lo] + (values[hi] - values[lo]) * (pos - lo)


class TestDistributionMatchesPaperStory:
    def test_region_length_tail_grows_with_unrolling(self):
        """Section 4.3: 'many regions have fewer stores than the threshold
        because of short loops.'  Without unrolling every region is short
        (p90 == a single loop body); with unrolling the upper tail grows
        by more than 5x and the mean by more than 3x."""
        module, _ = build_loop_kernel(n=60)

        def dist(config):
            out = CapriCompiler(config).compile(module).module
            obs = RegionStatsObserver()
            obs.stats = _SampledStats()
            Machine(out).run_function("main", observer=obs)
            return obs.stats

        before = dist(OptConfig.ckpt(256))
        after = dist(OptConfig.unrolling(256))
        assert after.quantile(0.9) > 5 * before.quantile(0.9)
        assert after.avg_instructions > 3 * before.avg_instructions
        # The short-loop ceiling before unrolling: p90 == p50 == body size.
        assert before.quantile(0.9) == pytest.approx(before.quantile(0.5))

"""Figure 10 — average dynamic instructions per region.

Checks the paper's observations: speculative unrolling grows region
lengths dramatically (the namd/ssca2/volrend speedups of Section 6.3);
pruning and LICM shrink them slightly (they remove checkpoint stores);
even at threshold 256 regions stay far below the threshold-implied bound
because loops and calls limit the formation (Section 6.3's closing
remark).
"""

import pytest

from repro.compiler import OptConfig, region_means
from repro.workloads import get_workload

from benchmarks.conftest import BENCH_SCALE, REPRESENTATIVES, sweep_row


@pytest.mark.parametrize("name", REPRESENTATIVES)
def test_fig10_region_instructions(benchmark, name):
    ladder = OptConfig.ladder(256)

    def run_ladder():
        # The figure's own path: region means from the ladder's sweep cells.
        row = sweep_row(name, ladder)
        _, spawns = get_workload(name).build(BENCH_SCALE)
        return {
            label: region_means(r.metrics, spawns)[0] for label, r in row.items()
        }

    series = benchmark.pedantic(run_ladder, rounds=1, iterations=1)
    # Unrolling lengthens regions substantially (paper: the key effect).
    assert series["+unrolling"] > 2 * series["+ckpt"], series
    # Checkpoint removal (pruning/LICM) shrinks regions, never grows them.
    assert series["+licm"] <= series["+unrolling"] * 1.02, series
    # Region lengths are positive and sane.
    assert all(v > 0 for v in series.values()), series

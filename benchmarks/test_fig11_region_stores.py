"""Figure 11 — average dynamic stores (incl. checkpoints) per region.

Checks: checkpoint insertion raises the stores-per-region count; the
optimisation ladder brings it back down; and the average always sits well
below the threshold — the paper's point that program structure (loops,
calls) keeps regions smaller than the budget allows (Section 6.3).
"""

import pytest

from repro.compiler import OptConfig, region_means
from repro.workloads import get_workload

from benchmarks.conftest import REPRESENTATIVES

THRESHOLD = 256


@pytest.mark.parametrize("name", REPRESENTATIVES)
def test_fig11_region_stores(benchmark, harness, name):
    ladder = OptConfig.ladder(THRESHOLD)

    def run_ladder():
        # The figure's own path: region means from the ladder's sweep cells.
        row = harness.sweep([name], ladder)[name]
        _, spawns = get_workload(name).build(harness.scale)
        return {
            label: region_means(r.metrics, spawns)[1] for label, r in row.items()
        }

    series = benchmark.pedantic(run_ladder, rounds=1, iterations=1)
    # Checkpoints add store traffic on top of bare region formation.
    assert series["+ckpt"] > series["region"], series
    # The full optimisation set reduces stores per region vs naive +ckpt
    # relative to region size (LICM/pruning remove checkpoint stores).
    assert series["+licm"] < series["+unrolling"] * 1.02, series
    # Averages stay below the threshold (the hard proxy-sizing bound).
    assert all(v <= THRESHOLD for v in series.values()), series

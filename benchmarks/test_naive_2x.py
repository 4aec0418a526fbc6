"""Section 1.4's naive comparison — "a naive approach may slow down the
benchmark up to 2x, [but] our novel architecture and compiler interaction
achieves very low performance overheads."

The naive design: synchronous persistence (the core stalls at every
region boundary until the region is durable) with unoptimised checkpoint
insertion.  Capri: asynchronous two-phase atomic stores with the full
compiler pipeline.
"""

import pytest

from repro.arch.params import PersistMode, SimParams
from repro.compiler import OptConfig

from benchmarks.conftest import sweep_row

SYNC = SimParams.scaled().with_(persist_mode=PersistMode.SYNC)


@pytest.mark.parametrize("name", ["519.lbm_r", "508.namd_r", "radix"])
def test_naive_sync_vs_capri(benchmark, name):
    def run_pair():
        capri = sweep_row(name, {"capri": OptConfig.licm(256)})
        naive = sweep_row(name, {"naive": OptConfig.ckpt(256)}, SYNC)
        return (
            capri["capri"].normalized_cycles,
            naive["naive"].normalized_cycles,
        )

    capri, naive = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    # Capri is strictly cheaper than the naive synchronous design.
    assert capri < naive, (capri, naive)
    # The naive design shows a substantial slowdown; Capri stays light.
    assert naive > 1.10, f"naive suspiciously cheap: {naive}"
    assert capri < 1.25, f"capri suspiciously expensive: {capri}"

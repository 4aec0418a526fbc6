"""Figure 9 — normalised cycles under the accumulative optimisation ladder.

Checks the paper's qualitative result: naive checkpointing (+ckpt) is the
most expensive configuration; speculative unrolling recovers a large part
of it; the fully optimised compiler (+licm) lands lowest.
"""

import pytest

from repro.compiler import OptConfig

from benchmarks.conftest import REPRESENTATIVES, sweep_row


@pytest.mark.parametrize("name", REPRESENTATIVES)
def test_fig9_opt_ladder(benchmark, name):
    ladder = OptConfig.ladder(256)

    def run_ladder():
        row = sweep_row(name, ladder)
        return {label: r.normalized_cycles for label, r in row.items()}

    series = benchmark.pedantic(run_ladder, rounds=1, iterations=1)
    # +ckpt (checkpoints without any optimisation) is the worst case.
    assert series["+ckpt"] == max(series.values()), series
    # Speculative unrolling recovers a substantial part of the ckpt cost.
    ckpt_over = series["+ckpt"] - 1.0
    unroll_over = series["+unrolling"] - 1.0
    assert unroll_over < ckpt_over, series
    # The fully optimised compiler is the cheapest failure-atomic config.
    failure_atomic = {k: v for k, v in series.items() if k != "region"}
    assert series["+licm"] == min(failure_atomic.values()), series
    # Region-only instrumentation (not failure atomic) is cheap.
    assert series["region"] - 1.0 < ckpt_over, series

"""Figure 8 — normalised execution cycles vs region store threshold.

Regenerates the threshold series for representative benchmarks and checks
the paper's shape: overhead falls monotonically (within tolerance) as the
threshold grows, with the largest drop between the smallest thresholds
("increasing the threshold to 64 halves the slowdown", Section 6.2), and
saturates by 256-1024.
"""

import pytest

from repro.compiler import OptConfig
from repro.eval.figures import FIG8_THRESHOLDS

from benchmarks.conftest import REPRESENTATIVES, sweep_row

SHORT_SERIES = [32, 64, 256, 1024]


@pytest.mark.parametrize("name", REPRESENTATIVES)
def test_fig8_threshold_series(benchmark, name):
    def run_series():
        configs = {f"t{t}": OptConfig.licm(t) for t in SHORT_SERIES}
        row = sweep_row(name, configs)
        return {t: row[f"t{t}"].normalized_cycles for t in SHORT_SERIES}

    series = benchmark.pedantic(run_series, rounds=1, iterations=1)
    # Paper shape: monotone non-increasing overhead with threshold.
    values = [series[t] for t in SHORT_SERIES]
    for smaller, larger in zip(values, values[1:]):
        assert larger <= smaller * 1.02, f"{name}: overhead grew with threshold {series}"
    # Everything is an overhead (>= baseline) and reasonable (< 2x).
    assert all(1.0 <= v < 2.0 for v in values), series
    # The small-threshold penalty is visible for short-loop benchmarks.
    assert series[32] > series[1024], f"{name}: no threshold sensitivity"


def test_fig8_full_threshold_list_matches_paper():
    # The series we sweep covers the paper's plotted thresholds
    # (128..1024) plus the 32/64 points discussed in the text.
    assert set(FIG8_THRESHOLDS) >= {128, 256, 512, 1024}
    assert {32, 64} <= set(FIG8_THRESHOLDS)

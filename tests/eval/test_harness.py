"""Tests for the spec grids behind the figures and the figure entry points.

Figure functions run at a tiny scale here — these tests check wiring and
invariants (normalisation, caching, labels), not the published numbers;
the shape assertions live in benchmarks/.
"""

import pytest

from repro.compiler import OptConfig
from repro.eval.figures import (
    ALL_BENCHMARKS,
    FIG8_THRESHOLDS,
    FIGURE_SUITES,
    fig8,
    fig9,
    fig10,
    fig11,
    grid,
    headline,
    main,
    render_figure,
)
from repro.sweep import run_specs

TINY = 0.1


def sweep(configs):
    """ssca2 × ``configs`` at TINY through the default result cache."""
    return run_specs(grid(["ssca2"], configs, TINY), cache="default")


class TestHarness:
    def test_baseline_cached(self):
        first = sweep({"full": OptConfig.licm(64)}).table()
        report = sweep({"full": OptConfig.licm(64)})
        again = report.table()
        assert report.simulations == 0
        assert (
            again["ssca2"]["full"].baseline_cycles
            == first["ssca2"]["full"].baseline_cycles
        )

    def test_run_produces_normalized_cycles(self):
        table = sweep({"full": OptConfig.licm(64)}).table()
        result = table["ssca2"]["full"]
        assert result.normalized_cycles >= 1.0
        assert result.normalized_cycles == (
            result.metrics.exec_cycles / result.baseline_cycles
        )
        assert result.overhead_pct == pytest.approx(
            (result.normalized_cycles - 1) * 100
        )
        assert result.spec.label == "full"
        assert result.spec.workload == "ssca2"

    def test_volatile_config_normalizes_to_one(self):
        table = sweep({"volatile": OptConfig.volatile()}).table()
        assert table["ssca2"]["volatile"].normalized_cycles == 1.0


class TestFigureFunctions:
    def test_figure_suites_exclude_os(self):
        assert "os" not in FIGURE_SUITES
        assert len(ALL_BENCHMARKS) == 19

    def test_fig8_structure(self):
        cells = fig8(scale=TINY, suite="cpu2017", thresholds=[32, 256])
        assert set(cells) == set(FIGURE_SUITES["cpu2017"])
        for row in cells.values():
            assert set(row) == {"32", "256"}
            assert all(v > 0 for v in row.values())

    def test_fig9_structure(self):
        cells = fig9(scale=TINY, suite="cpu2017")
        ladder = list(OptConfig.ladder().keys())
        for row in cells.values():
            assert list(row.keys()) == ladder

    def test_fig10_fig11_positive(self):
        for fn in (fig10, fig11):
            cells = fn(scale=TINY, suite="cpu2017")
            for row in cells.values():
                assert all(v >= 0 for v in row.values())

    def test_headline_keys(self):
        out = headline(scale=TINY)
        assert set(out) == {"cpu2017", "stamp", "splash3", "overall"}

    def test_fig8_threshold_constant(self):
        assert FIG8_THRESHOLDS == [32, 64, 128, 256, 512, 1024]


class TestCLI:
    def test_render_figure_produces_table(self):
        text = render_figure("fig8", scale=TINY, suite="cpu2017")
        assert "Figure 8" in text
        assert "cpu2017_gmean" in text
        assert "overall_gmean" in text

    def test_main_fig9(self, capsys):
        rc = main(["fig9", "--scale", str(TINY), "--suite", "stamp"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "+licm" in out

    def test_main_headline(self, capsys):
        rc = main(["headline", "--scale", str(TINY)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overall" in out

    def test_main_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

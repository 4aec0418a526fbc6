"""Tests for the evaluation harness and the figure entry points.

Figure functions run at a tiny scale here — these tests check wiring and
invariants (normalisation, caching, labels), not the published numbers;
the shape assertions live in benchmarks/.
"""

import pytest

from repro.arch.params import SimParams
from repro.compiler import OptConfig
from repro.eval.figures import (
    ALL_BENCHMARKS,
    FIG8_THRESHOLDS,
    FIGURE_SUITES,
    fig8,
    fig9,
    fig10,
    fig11,
    headline,
    main,
    render_figure,
)
from repro.eval.harness import EvalHarness

TINY = 0.1


@pytest.fixture(scope="module")
def harness():
    return EvalHarness(params=SimParams.scaled(), scale=TINY)


class TestHarness:
    def test_baseline_cached(self, harness):
        first = harness.sweep(["ssca2"], {"full": OptConfig.licm(64)})
        again = harness.sweep(["ssca2"], {"full": OptConfig.licm(64)})
        assert harness.last_sweep_report.simulations == 0
        assert (
            again["ssca2"]["full"].baseline_cycles
            == first["ssca2"]["full"].baseline_cycles
        )

    def test_baseline_cache_not_stale_after_mutation(self):
        """The footgun: name-keyed caching served stale cycles after a
        live harness's scale/params/quantum changed.  Fingerprint keying
        gets a fresh baseline per combination."""
        h = EvalHarness(params=SimParams.scaled(), scale=TINY)
        configs = {"full": OptConfig.licm(64)}

        def baseline() -> float:
            return h.sweep(["ssca2"], configs)["ssca2"]["full"].baseline_cycles

        small = baseline()
        h.scale = TINY * 4
        large = baseline()
        assert large > small
        h.scale = TINY
        assert baseline() == small
        assert h.last_sweep_report.simulations == 0

    def test_run_produces_normalized_cycles(self, harness):
        table = harness.sweep(["ssca2"], {"full": OptConfig.licm(64)})
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

    def test_volatile_config_normalizes_to_one(self, harness):
        table = harness.sweep(["ssca2"], {"volatile": OptConfig.volatile()})
        assert table["ssca2"]["volatile"].normalized_cycles == 1.0


class TestFigureFunctions:
    def test_figure_suites_exclude_os(self):
        assert "os" not in FIGURE_SUITES
        assert len(ALL_BENCHMARKS) == 19

    def test_fig8_structure(self, harness):
        cells = fig8(suite="cpu2017", thresholds=[32, 256], harness=harness)
        assert set(cells) == set(FIGURE_SUITES["cpu2017"])
        for row in cells.values():
            assert set(row) == {"32", "256"}
            assert all(v > 0 for v in row.values())

    def test_fig9_structure(self, harness):
        cells = fig9(suite="cpu2017", harness=harness)
        ladder = list(OptConfig.ladder().keys())
        for row in cells.values():
            assert list(row.keys()) == ladder

    def test_fig10_fig11_positive(self, harness):
        for fn in (fig10, fig11):
            cells = fn(suite="cpu2017", harness=harness)
            for row in cells.values():
                assert all(v >= 0 for v in row.values())

    def test_headline_keys(self, harness):
        out = headline(harness=harness)
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

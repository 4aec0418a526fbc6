"""Tests for the parallel sweep engine: scheduling, caching, equivalence."""

import pytest

from repro.api import RunSpec
from repro.arch.params import SimParams
from repro.compiler import OptConfig
from repro.eval.figures import grid
from repro.sweep import ResultCache, SweepError, run_specs

TINY = 0.05
PARAMS = SimParams.scaled()


def make_specs(workloads=("ssca2", "genome"), thresholds=(64, 256)):
    return [
        RunSpec(
            workload=name,
            scale=TINY,
            config=OptConfig.licm(t),
            params=PARAMS,
            label=f"{name}@{t}",
        )
        for name in workloads
        for t in thresholds
    ]


class TestSerial:
    def test_results_align_with_input(self, tmp_path):
        specs = make_specs()
        report = run_specs(specs, workers=0, cache=ResultCache(tmp_path))
        assert report.ok
        assert len(report.results) == len(specs)
        for spec, result in zip(specs, report.results):
            assert result.spec.label == spec.label
            assert result.metrics.exec_cycles > 0
            assert result.baseline_cycles is not None
            assert result.normalized_cycles > 1.0

    def test_baselines_deduplicated(self, tmp_path):
        # 2 workloads x 2 thresholds = 4 specs but only 2 distinct
        # baselines -> 6 simulations, not 8.
        report = run_specs(make_specs(), workers=0, cache=ResultCache(tmp_path))
        assert report.simulations == 6
        assert report.cache_misses == 6

    def test_duplicate_specs_deduplicated(self, tmp_path):
        spec = make_specs(workloads=("ssca2",), thresholds=(64,))[0]
        report = run_specs(
            [spec, spec.with_(label="again")],
            workers=0,
            cache=ResultCache(tmp_path),
        )
        assert report.ok
        assert report.simulations == 2  # baseline + one run, not two
        assert report.results[0].metrics == report.results[1].metrics

    def test_volatile_spec_normalizes_to_one(self, tmp_path):
        spec = RunSpec(
            workload="ssca2",
            scale=TINY,
            config=OptConfig.volatile(),
            params=PARAMS,
        )
        report = run_specs([spec], workers=0, cache=ResultCache(tmp_path))
        assert report.ok
        assert report.results[0].normalized_cycles == pytest.approx(1.0)
        # A volatile input IS its own baseline: exactly one simulation.
        assert report.simulations == 1


class TestWarmCache:
    def test_second_sweep_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = make_specs()
        cold = run_specs(specs, workers=0, cache=cache)
        warm_cache = ResultCache(tmp_path)  # fresh counters, same disk
        warm = run_specs(specs, workers=0, cache=warm_cache)
        assert warm.simulations == 0
        assert warm.cache_hits == 6
        assert warm.hit_rate == 1.0
        for a, b in zip(cold.results, warm.results):
            assert a.metrics == b.metrics  # exact dataclass equality
            assert b.from_cache

    def test_harness_sweep_served_from_cache(self, tmp_path, monkeypatch):
        """Acceptance criterion: a repeated grid sweep over >=2
        workloads x 3 configs is served entirely from the on-disk cache
        (0 re-simulations), from freshly built specs."""
        from repro.sweep.cache import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        names = ["ssca2", "genome"]
        configs = {
            "32": OptConfig.licm(32),
            "256": OptConfig.licm(256),
            "ckpt": OptConfig.ckpt(256),
        }
        first = run_specs(grid(names, configs, TINY, PARAMS), cache="default")
        cold = first.table()
        assert first.simulations > 0
        second = run_specs(grid(names, configs, TINY, PARAMS), cache="default")
        warm = second.table()
        assert second.simulations == 0
        assert second.hit_rate == 1.0
        for name in names:
            for label in configs:
                assert (
                    warm[name][label].metrics == cold[name][label].metrics
                )
                assert warm[name][label].normalized_cycles == pytest.approx(
                    cold[name][label].normalized_cycles
                )


class TestParallel:
    def test_parallel_matches_serial_exactly(self, tmp_path):
        specs = make_specs()
        serial = run_specs(
            specs, workers=0, cache=ResultCache(tmp_path / "serial")
        )
        parallel = run_specs(
            specs, workers=2, cache=ResultCache(tmp_path / "parallel")
        )
        assert serial.ok and parallel.ok
        assert parallel.workers == 2
        for a, b in zip(serial.results, parallel.results):
            # Bit-identical SystemMetrics across execution strategies.
            assert a.metrics == b.metrics
            assert a.baseline_cycles == b.baseline_cycles

    def test_parallel_failure_contained(self, tmp_path):
        specs = make_specs(workloads=("ssca2",), thresholds=(64,))
        specs.append(specs[0].with_(workload="no-such-workload"))
        report = run_specs(specs, workers=2, cache=ResultCache(tmp_path))
        # Baseline fails AND its dependent run is marked failed: 2 failures.
        assert report.failures == 2
        assert not report.ok
        assert report.results[0] is not None  # good spec still completed
        assert report.results[1] is None
        failed = report.failed_statuses()
        assert any("no-such-workload" in (s.error or "") for s in failed)


class TestFailureHandling:
    def test_serial_failure_contained(self, tmp_path):
        specs = make_specs(workloads=("ssca2",), thresholds=(64,))
        specs.append(specs[0].with_(workload="no-such-workload"))
        report = run_specs(specs, workers=0, cache=ResultCache(tmp_path))
        assert report.failures == 2
        assert report.results[0].metrics.exec_cycles > 0
        assert report.results[1] is None
        # The dependent spec carries the baseline's traceback.
        run_status = [
            s
            for s in report.failed_statuses()
            if s.role == "run" and s.spec.workload == "no-such-workload"
        ]
        assert run_status and "baseline run failed" in run_status[0].error

    def test_strict_sweep_raises(self, tmp_path, monkeypatch):
        from repro.sweep.cache import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        specs = grid(["no-such-workload"], {"full": OptConfig.licm(64)}, TINY)
        report = run_specs(specs, cache="default")
        with pytest.raises(SweepError) as exc:
            report.table()
        assert exc.value.report.failures == 2
        assert report.results == [None]  # failed specs have no result

    def test_progress_callback_sees_every_status(self, tmp_path):
        events = []
        report = run_specs(
            make_specs(workloads=("ssca2",), thresholds=(64,)),
            workers=0,
            cache=ResultCache(tmp_path),
            progress=events.append,
        )
        assert report.ok
        # Every terminal status was reported at least once.
        terminal = {s.fingerprint for s in events if s.state in ("ok", "cached")}
        assert {s.fingerprint for s in report.statuses} <= terminal | {
            s.fingerprint for s in events
        }
        assert len(events) >= 2


class TestReport:
    def test_summary_mentions_counts(self, tmp_path):
        report = run_specs(
            make_specs(workloads=("ssca2",), thresholds=(64,)),
            workers=0,
            cache=ResultCache(tmp_path),
        )
        text = report.summary()
        assert "simulations: 2" in text
        assert "100% hit rate" not in text
        assert report.wall_s >= 0

"""Tests for the consolidated ``python -m repro`` CLI (in-process)."""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.sweep.cli import main as sweep_main
from repro.sweep.engine import MAX_WORKERS

SWEEP_ARGS = [
    "--benchmarks",
    "ssca2",
    "--thresholds",
    "64,256",
    "--scale",
    "0.05",
]


class TestDispatch:
    def test_no_args_prints_usage(self, capsys):
        assert repro_main([]) == 0
        out = capsys.readouterr().out
        for sub in ("sweep", "fault", "profile", "report"):
            assert sub in out

    def test_help_flag(self, capsys):
        assert repro_main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_subcommand(self, capsys):
        assert repro_main(["frobnicate"]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_dispatches_to_sweep(self, tmp_path, capsys):
        rc = repro_main(
            ["sweep", *SWEEP_ARGS, "--cache-dir", str(tmp_path), "--quiet"]
        )
        assert rc == 0
        assert "ssca2" in capsys.readouterr().out


class TestSweepCLI:
    def test_cold_then_warm(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert sweep_main([*SWEEP_ARGS, "--cache-dir", cache, "--quiet"]) == 0
        cold_out = capsys.readouterr().out
        assert "64" in cold_out and "256" in cold_out
        # Warm re-run must be served from cache.
        rc = sweep_main(
            [
                *SWEEP_ARGS,
                "--cache-dir",
                cache,
                "--min-hit-rate",
                "0.9",
                "--quiet",
            ]
        )
        assert rc == 0
        assert "100% hit rate" in capsys.readouterr().out

    def test_min_hit_rate_fails_cold_cache(self, tmp_path, capsys):
        rc = sweep_main(
            [
                *SWEEP_ARGS,
                "--cache-dir",
                str(tmp_path / "fresh"),
                "--min-hit-rate",
                "0.9",
                "--quiet",
            ]
        )
        assert rc == 1
        capsys.readouterr()

    def test_json_output(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        rc = sweep_main(
            [
                *SWEEP_ARGS,
                "--cache-dir",
                str(tmp_path / "cache"),
                "--json",
                str(out_path),
                "--quiet",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        # Unified schema-versioned envelope (repro.jsonout).
        assert payload["schema"] == 1
        assert payload["command"] == "sweep"
        data = payload["data"]
        assert data["cells"]["ssca2"]["64"] > 1.0
        assert data["cells"]["ssca2"]["256"] > 1.0
        assert data["report"]["failures"] == 0
        assert data["report"]["simulations"] == 3  # 2 runs + 1 baseline

    def test_unknown_benchmark_fails(self, tmp_path, capsys):
        rc = sweep_main(
            [
                "--benchmarks",
                "no-such-workload",
                "--thresholds",
                "64",
                "--scale",
                "0.05",
                "--cache-dir",
                str(tmp_path),
                "--quiet",
            ]
        )
        assert rc == 1
        capsys.readouterr()

    def test_failed_specs_do_not_say_figures_unchanged(self, tmp_path, capsys):
        rc = sweep_main(
            [
                "--benchmarks",
                "no-such-workload",
                "--scale",
                "0.05",
                "--thresholds",
                "32",
                "--cache-dir",
                str(tmp_path),
                "--quiet",
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert out.count("FAILED") == 2
        assert "figures unchanged" not in out

    def test_timeout_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            sweep_main([*SWEEP_ARGS, "--no-cache", "--timeout", "5"])
        assert exit_info.value.code == 2
        assert "--timeout" in capsys.readouterr().err

    def test_unknown_suite_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            sweep_main(["--suite", "nope", "--cache-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "'nope'" in err and "splash3" in err

    @pytest.mark.parametrize("thresholds", ["32,abc", "x"])
    def test_non_integer_thresholds_are_a_usage_error(
        self, thresholds, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            sweep_main(
                [
                    "--benchmarks",
                    "genome",
                    "--thresholds",
                    thresholds,
                    "--cache-dir",
                    str(tmp_path),
                    "--quiet",
                ]
            )
        assert exit_info.value.code == 2
        assert f"got {thresholds!r}" in capsys.readouterr().err


class TestScaleIsValidated:
    """Every eval CLI and the sweep refuse a scale no workload can build
    at."""

    @pytest.mark.parametrize("scale", ["0", "-1", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["figures", "fig8", "--suite", "stamp"],
            ["ablations", "cores"],
            ["report"],
            ["profile", "genome"],
            ["sweep", "--benchmarks", "genome", "--thresholds", "64", "--no-cache"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_bad_scale_is_a_usage_error(self, argv, scale, tmp_path, capsys):
        out = str(tmp_path / "REPORT.md")
        extra = ["--out", out] if argv[0] == "report" else []
        with pytest.raises(SystemExit) as exit_info:
            repro_main([*argv, *extra, "--scale", scale])
        assert exit_info.value.code == 2
        assert f"--scale: must be a finite number greater than 0, got {scale!r}" in (
            capsys.readouterr().err
        )


class TestWorkersIsValidated:
    """Every sweep-running CLI and the engine refuse a worker count
    outside 0..MAX_WORKERS before any pool starts."""

    @pytest.fixture(autouse=True)
    def no_pool(self, monkeypatch):
        import repro.sweep.engine as engine

        def refuse():
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(engine, "_pool_context", refuse)

    @pytest.mark.parametrize(
        "workers", ["-3", "-1", str(MAX_WORKERS + 1), "1000000", "two"]
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["figures", "fig8", "--suite", "stamp", "--scale", "0.05"],
            ["ablations", "cores", "--scale", "0.05"],
            ["report", "--scale", "0.05"],
            ["sweep", *SWEEP_ARGS, "--no-cache", "--quiet"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_bad_workers_is_a_usage_error(self, argv, workers, tmp_path, capsys):
        out = str(tmp_path / "REPORT.md")
        extra = ["--out", out] if argv[0] == "report" else []
        with pytest.raises(SystemExit) as exit_info:
            repro_main([*argv, *extra, "--workers", workers])
        assert exit_info.value.code == 2
        assert (
            f"--workers: must be an integer from 0 to {MAX_WORKERS}, "
            f"got {workers!r}"
        ) in capsys.readouterr().err

    def test_bounds_are_accepted(self):
        from repro.eval.report import workers_arg

        assert workers_arg("0") == 0
        assert workers_arg(str(MAX_WORKERS)) == MAX_WORKERS

    @pytest.mark.parametrize("workers", [-1, MAX_WORKERS + 1, 10**6, 2.5])
    def test_run_specs_refuses_before_running(self, workers):
        from repro.api import RunSpec
        from repro.sweep.engine import run_specs

        with pytest.raises(ValueError, match=f"got {workers!r}"):
            run_specs([RunSpec("ssca2", scale=0.05)], workers=workers)


def _usage_subcommands():
    from repro.__main__ import _USAGE

    listing = _USAGE.split("subcommands:\n", 1)[1].split("\n\n", 1)[0]
    return [line.split()[0] for line in listing.splitlines()]


class TestSingleEntryPoint:
    """``python -m repro <sub>`` is the only way in."""

    @pytest.mark.parametrize("sub", _usage_subcommands())
    def test_every_listed_subcommand_dispatches(self, sub, capsys):
        with pytest.raises(SystemExit) as exit_info:
            repro_main([sub, "--help"])
        assert exit_info.value.code == 0
        assert f"python -m repro {sub}" in capsys.readouterr().out

    def test_usage_lists_the_analyses(self):
        assert {"recovery", "energy"} <= set(_usage_subcommands())

    def test_module_entry_points_are_gone(self):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.fault", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode != 0
        assert "repro.fault" in proc.stderr

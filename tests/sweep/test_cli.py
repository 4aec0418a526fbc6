"""Tests for the consolidated ``python -m repro`` CLI (in-process)."""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.sweep.cli import main as sweep_main

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

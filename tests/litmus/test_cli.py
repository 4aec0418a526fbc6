"""``python -m repro litmus`` refuses bad integer options as a usage error
instead of a traceback, or a corpus that checks nothing."""

from __future__ import annotations

import pytest

from repro.litmus.cli import main


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--seeds", "0,x"], "bad seed or range 'x'"),
        (["run", "--seeds", "3-1"], "bad seed or range '3-1'"),
        (["run", "--seeds", "1-"], "bad seed or range '1-'"),
        (["run", "--seeds", ","], "no seeds in ','"),
        (["run", "--count", "0"], "--count must be >= 1, got 0"),
        (
            ["explore", "--seeds", "0", "--step-limit", "-1"],
            "--step-limit must be >= 0, got -1",
        ),
        (
            ["explore", "--seeds", "0", "--max-schedules", "-5"],
            "--max-schedules must be >= 1, got -5",
        ),
        (
            ["explore", "--seeds", "0", "--max-schedules", "0"],
            "--max-schedules must be >= 1, got 0",
        ),
    ],
)
def test_bad_integer_option_is_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("budget", [0, -5])
def test_explore_program_refuses_an_empty_schedule_budget(budget):
    from repro.litmus.explore import explore_program
    from repro.litmus.generate import generate_program

    with pytest.raises(ValueError, match="max_schedules must be >= 1"):
        explore_program(generate_program(0), max_schedules=budget)


def test_unknown_mutant_is_a_usage_error_before_any_sweep(monkeypatch, capsys):
    import repro.litmus.matrix as matrix

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran before the mutant names were checked")

    monkeypatch.setattr(matrix, "run_litmus_program", no_sweep)
    with pytest.raises(SystemExit) as exit_info:
        main(["mutants", "--seeds", "1", "--mutants", "skip_undo_log,nope"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "unknown mutant 'nope'" in err
    assert "skip_undo_log" in err and "recovery_stale_pc" in err


def test_run_leaves_the_cache_dir_empty(tmp_path, monkeypatch, capsys):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    assert main(["run", "--seeds", "1"]) == 0
    assert "0 forbidden" in capsys.readouterr().out
    assert list(cache_dir.iterdir()) == []

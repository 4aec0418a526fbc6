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
    ],
)
def test_bad_integer_option_is_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err

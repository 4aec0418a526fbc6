"""``python -m repro check`` refuses a bad scale or threshold as a usage
error in both modes."""

from __future__ import annotations

import pytest

from repro.check.cli import main


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--workload", "genome", "--scale", "-1"], "got -1.0"),
        (["--workload", "genome", "--scale", "0"], "got 0.0"),
        (["--workload", "genome", "--threshold", "4"], "below minimum 8"),
        (["--workload", "genome", "--thresholds", "32,4"], "below minimum 8"),
        (["--mutants", "--scale", "-1"], "got -1.0"),
        (["--mutants", "--threshold", "4"], "below minimum 8"),
        (["--workload", "genome", "--thresholds", "32,abc"], "got '32,abc'"),
    ],
)
def test_bad_scale_or_threshold_is_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err

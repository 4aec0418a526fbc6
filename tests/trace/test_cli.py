"""``python -m repro trace`` has one mode, ``bench``, and refuses bad input
as a usage error."""

from __future__ import annotations

import pytest

from repro.trace.cli import main


def test_capture_mode_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["capture", "--workload", "genome"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'capture'" in capsys.readouterr().err


def test_bench_rejects_no_cache(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--workload", "genome", "--no-cache"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --no-cache" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--scale", "-1"], "got -1.0"),
        (["--scale", "0"], "got 0.0"),
        (["--threshold", "4"], "threshold 4 below minimum 8"),
    ],
)
def test_bench_bad_scale_or_threshold_is_a_usage_error(flags, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--workload", "genome", "--sample", "1", *flags])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err

"""Each ``python -m repro trace`` mode refuses the other mode's options."""

from __future__ import annotations

import pytest

from repro.trace.cli import main


@pytest.mark.parametrize(
    "flags",
    [
        ["--check"],
        ["--sample", "10"],
        ["--sample", "0"],
        ["--min-speedup", "3"],
        ["--check", "--min-speedup", "3"],
    ],
)
def test_capture_rejects_bench_options(flags, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["capture", "--workload", "genome", "--no-cache", *flags])
    assert exit_info.value.code == 2
    named = ", ".join(flag for flag in flags if flag.startswith("--"))
    assert f"{named}: bench mode only" in capsys.readouterr().err


def test_bench_rejects_no_cache(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--workload", "genome", "--no-cache"])
    assert exit_info.value.code == 2
    assert "--no-cache: capture mode only" in capsys.readouterr().err

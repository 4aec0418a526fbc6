"""``python -m repro trace capture`` refuses the bench-only options."""

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

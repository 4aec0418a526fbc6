"""Test the one-shot report generator (tiny scale)."""

import re
import shlex

import pytest

#: A printed command line followed by its fenced block.
_BLOCK = re.compile(r"^`(python -m repro [^`]*)`\n```\n(.*?)\n```$", re.M | re.S)


def test_make_report(tmp_path):
    from repro.eval.make_report import main

    out = tmp_path / "REPORT.md"
    rc = main(["--out", str(out), "--scale", "0.1"])
    assert rc == 0
    text = out.read_text()
    for section in ["fig8", "fig9", "fig10", "fig11", "headline",
                    "naive comparison", "recovery latency",
                    "residual energy"]:
        assert section in text, section
    assert "overall_gmean" in text


def test_every_block_is_its_printed_commands_stdout(
    tmp_path, monkeypatch, capsys
):
    """Each block equals what its printed command prints, run afresh."""
    from repro.__main__ import main as repro_main
    from repro.eval.make_report import generate_report

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    report = generate_report(scale=0.05)
    blocks = _BLOCK.findall(report)
    commands = [command for command, _ in blocks]
    # Six figures, four ablations, recovery and energy; every fence has
    # a command.
    assert len(blocks) == 12 == report.count("```\n") // 2
    assert "python -m repro recovery --scale 0.05" in commands
    assert "python -m repro ablations cores --scale 0.05" in commands
    capsys.readouterr()
    for command, block in blocks:
        argv = shlex.split(command)[3:]
        assert repro_main(argv) == 0, command
        stdout = capsys.readouterr().out
        assert stdout.rstrip("\n") == block, command


@pytest.mark.parametrize("scale, small", [(1.0, "0.5"), (0.3, "0.3")])
def test_printed_scale_is_the_scale_run(monkeypatch, scale, small):
    """The analyses run at min(scale, 0.5) and say so in their command."""
    from repro.eval import make_report

    ran = []
    monkeypatch.setattr(
        make_report, "_command", lambda argv: ran.append(argv) or []
    )
    make_report.generate_report(scale=scale, workers=2)
    assert ["recovery", "--scale", small] in ran
    assert ["ablations", "nvmbw", "--scale", small, "--workers", "2"] in ran
    assert ["figures", "fig8", "--scale", str(scale), "--workers", "2"] in ran

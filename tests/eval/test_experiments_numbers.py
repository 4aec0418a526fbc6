"""EXPERIMENTS.md's hand-copied numbers equal results/REPORT.md's.

EXPERIMENTS.md copies the Figure 8–11 gmean rows, the headline
per-suite overheads and the naive comparison's overall row out of the
committed report.  Each copied row must equal the row of the same name
in the matching report block, cell for cell, so regenerating the report
without re-copying (or editing a copy by hand) fails here.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List

import pytest

ROOT = Path(__file__).resolve().parents[2]

_GMEANS = ["cpu2017_gmean", "stamp_gmean", "splash3_gmean", "overall_gmean"]

#: EXPERIMENTS.md heading prefix -> (report block, copied rows).
SECTIONS = {
    "fig8": ("## Figure 8", _GMEANS),
    "fig9": ("## Figure 9", _GMEANS),
    "fig10": ("## Figure 10", ["overall_gmean"]),
    "fig11": ("## Figure 11", ["overall_gmean"]),
    "headline": ("## Headline", ["cpu2017", "stamp", "splash3", "overall"]),
    "naive comparison": ('## "Naive', ["overall_gmean"]),
}

#: The headline table names suites as the paper does.
_SUITES = {
    "SPEC CPU2017": "cpu2017", "STAMP": "stamp", "Splash-3": "splash3",
    "overall": "overall",
}


def experiments_rows(heading: str) -> Dict[str, List[str]]:
    """The markdown table rows of the EXPERIMENTS.md section ``heading``
    opens, keyed by first cell; the headline keeps its measured column."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    start = text.index(f"\n{heading}")
    section = text[start + 1:].split("\n## ", 1)[0]
    rows: Dict[str, List[str]] = {}
    for line in section.splitlines():
        if line.startswith("|"):
            cells = [c.strip().strip("*") for c in line.strip("|").split("|")]
            rows[cells[0]] = cells[1:]
    if heading == "## Headline":
        return {
            _SUITES[name]: cells[-1:]
            for name, cells in rows.items() if name in _SUITES
        }
    return rows


def report_rows(block: str) -> Dict[str, List[str]]:
    """The rows of the fenced block under ``## block`` in the report,
    keyed by first column."""
    text = (ROOT / "results" / "REPORT.md").read_text()
    match = re.search(
        rf"^## {re.escape(block)}\n`[^`]*`\n```\n(.*?)\n```$",
        text, re.M | re.S,
    )
    assert match, block
    return {
        line.split()[0]: line.split()[1:]
        for line in match.group(1).splitlines() if line.strip()
    }


@pytest.mark.parametrize("block", list(SECTIONS))
def test_copied_rows_match_the_report(block):
    heading, names = SECTIONS[block]
    copied = experiments_rows(heading)
    report = report_rows(block)
    for name in names:
        assert name in copied, (heading, name)
        assert copied[name] == report[name], (block, name)

"""Report rendering: geometric means and paper-style text tables.

Rendering only: the argument types the CLIs parse their options with
(``--scale``, ``--workers``, ...) live in :mod:`repro.jsonout`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's aggregate for normalised cycles)."""
    vals = [v for v in values]
    if not vals:
        return 0.0
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def format_table(
    title: str,
    rows: Sequence[str],
    columns: Sequence[str],
    cells: Mapping[str, Mapping[str, float]],
    fmt: str = "{:.3f}",
    row_header: str = "benchmark",
) -> str:
    """Render ``cells[row][column]`` as an aligned text table."""
    widths = [max(len(row_header), max((len(r) for r in rows), default=0))]
    for col in columns:
        w = len(col)
        for row in rows:
            value = cells.get(row, {}).get(col)
            if value is not None:
                w = max(w, len(fmt.format(value)))
        widths.append(w)

    def line(parts: List[str]) -> str:
        return "  ".join(p.rjust(w) for p, w in zip(parts, widths))

    out = [title, line([row_header, *columns]), line(["-" * w for w in widths])]
    for row in rows:
        parts = [row]
        for col in columns:
            value = cells.get(row, {}).get(col)
            parts.append(fmt.format(value) if value is not None else "-")
        out.append(line(parts))
    return "\n".join(out)


def render_bars(
    title: str,
    rows: Sequence[str],
    columns: Sequence[str],
    cells: Mapping[str, Mapping[str, float]],
    width: int = 48,
    baseline: float = 1.0,
    fmt: str = "{:.3f}",
) -> str:
    """Render grouped horizontal bars (the figures' bar-chart view).

    Bars start at ``baseline`` (normalised-cycles charts grow from 1.0)
    when every value exceeds it; otherwise they start at zero.
    """
    values = [
        cells[r][c] for r in rows for c in columns if c in cells.get(r, {})
    ]
    if not values:
        return title
    vmax = max(values)
    start = baseline if all(v >= baseline for v in values) else 0.0
    span = max(vmax - start, 1e-9)
    label_w = max(len(c) for c in columns)
    out: List[str] = [title, ""]
    for row in rows:
        out.append(row)
        for col in columns:
            value = cells.get(row, {}).get(col)
            if value is None:
                continue
            filled = int(round((value - start) / span * width))
            bar = "#" * filled
            out.append(
                f"  {col.rjust(label_w)} |{bar.ljust(width)}| "
                + fmt.format(value)
            )
    return "\n".join(out)


def add_suite_gmeans(
    cells: Dict[str, Dict[str, float]],
    suites: Mapping[str, Sequence[str]],
    columns: Sequence[str],
    overall_key: str = "overall_gmean",
) -> List[str]:
    """Append per-suite and overall geometric-mean rows (paper layout).

    Returns the full row order: members interleaved with their suite
    gmeans, then the overall gmean — matching Figure 8's x-axis.
    """
    order: List[str] = []
    all_members: List[str] = []
    for suite, members in suites.items():
        present = [m for m in members if m in cells]
        if not present:
            continue
        order.extend(present)
        all_members.extend(present)
        gm_row = f"{suite}_gmean"
        cells[gm_row] = {
            col: geomean(
                cells[m][col] for m in present if col in cells[m]
            )
            for col in columns
        }
        order.append(gm_row)
    cells[overall_key] = {
        col: geomean(
            cells[m][col] for m in all_members if col in cells[m]
        )
        for col in columns
    }
    order.append(overall_key)
    return order

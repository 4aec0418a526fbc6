"""One-shot evaluation report: every figure + analysis into one markdown file.

``python -m repro report [--out results/REPORT.md] [--scale S]``
regenerates the complete evaluation — the four paper figures, the
headline and naive comparisons, and the extension analyses — and writes
a single self-contained markdown report with a reproduction manifest
(command lines, scale, configuration) so a reader can audit exactly how
each table was produced.
"""

from __future__ import annotations

import argparse
import os
import time
from typing import List, Optional, Sequence

from repro.eval.ablations import render_ablation
from repro.eval.energy import drain_budgets
from repro.eval.figures import render_figure
from repro.eval.recovery_analysis import analyze_recovery
from repro.eval.report import format_table, scale_arg


def _md_block(text: str) -> str:
    return "```\n" + text + "\n```\n"


def generate_report(scale: float = 1.0, workers: int = 0) -> str:
    """Build the full markdown report; heavy (runs every experiment).

    ``workers`` fans the figure grids and ablation sweeps out through the
    :mod:`repro.sweep` engine; completed runs are memoised in the on-disk
    result cache, so regenerating a report after small code changes only
    re-simulates what the change invalidated.
    """
    start = time.time()
    parts: List[str] = [
        "# Capri reproduction — full evaluation report",
        "",
        f"Workload scale: {scale}.  Simulator: `SimParams.scaled()` "
        "(Table 1 latencies, shrunken capacities; see DESIGN.md).",
        "",
        "Regenerate any table alone with the command shown above it.",
        "",
    ]

    for fig in ["fig8", "fig9", "fig10", "fig11", "headline", "naive"]:
        parts.append("## naive comparison" if fig == "naive" else f"## {fig}")
        parts.append(f"`python -m repro figures {fig} --scale {scale}`")
        parts.append(_md_block(render_figure(fig, scale=scale, workers=workers)))

    parts.append("## extension analyses")
    parts.append("`python -m repro ablations nvmbw|prevention|inlining|cores`")
    for name in ["nvmbw", "prevention", "inlining", "cores"]:
        table = render_ablation(name, scale=min(scale, 0.5), workers=workers)
        parts.append(_md_block(table))

    parts.append("## recovery latency")
    parts.append("`python -m repro recovery`")
    sweep = analyze_recovery("genome", threshold=256, scale=min(scale, 0.5))
    parts.append(
        _md_block(
            f"crash points: {len(sweep.costs)}\n"
            f"max entries scanned: {sweep.max_entries} "
            f"(capacity bound {256 + 33})\n"
            f"estimated recovery: mean {sweep.mean_ns / 1000:.2f} us, "
            f"max {sweep.max_ns / 1000:.2f} us"
        )
    )

    parts.append("## residual energy (Section 1.2)")
    parts.append("`python -m repro energy --memory-mode`")
    budgets = drain_budgets(num_cores=8, include_dram_cache=True)
    cells = {name: b.row() for name, b in budgets.items()}
    parts.append(
        _md_block(
            format_table(
                "Drain budget at power failure (memory-mode eADR)",
                list(budgets),
                ["KB", "drain_us", "energy_uJ"],
                cells,
                fmt="{:,.1f}",
                row_header="scheme",
            )
        )
    )

    parts.append(
        f"---\nGenerated in {time.time() - start:.0f} s by "
        "`python -m repro report`."
    )
    return "\n".join(parts)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro report")
    parser.add_argument("--out", default="results/REPORT.md")
    parser.add_argument("--scale", type=scale_arg, default=1.0)
    parser.add_argument("--workers", type=int, default=0,
                        help="sweep-engine worker processes (0 = serial)")
    args = parser.parse_args(argv)
    report = generate_report(scale=args.scale, workers=args.workers)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as fh:
        fh.write(report)
    print(f"wrote {args.out} ({len(report.splitlines())} lines)")
    return 0

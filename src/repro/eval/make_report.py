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
from typing import Dict, List, Optional, Sequence

from repro.arch.params import SimParams
from repro.compiler import OptConfig
from repro.eval import figures
from repro.eval.ablations import (
    core_scaling,
    inlining_ablation,
    nvm_bandwidth_sweep,
    prevention_cost,
)
from repro.eval.energy import drain_budgets
from repro.eval.recovery_analysis import analyze_recovery
from repro.eval.report import add_suite_gmeans, format_table


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

    for fig in ["fig8", "fig9", "fig10", "fig11"]:
        parts.append(f"## {fig}")
        parts.append(f"`python -m repro figures {fig} --scale {scale}`")
        parts.append(
            _md_block(figures.render_figure(fig, scale=scale, workers=workers))
        )

    parts.append("## headline")
    parts.append(f"`python -m repro figures headline --scale {scale}`")
    over = figures.headline(scale=scale)
    lines = ["suite      overhead", "-----      --------"]
    for suite, pct in over.items():
        lines.append(f"{suite:10s} {pct:6.1f}%")
    parts.append(_md_block("\n".join(lines)))

    parts.append("## naive comparison")
    parts.append(f"`python -m repro figures naive --scale {scale}`")
    cells = figures.naive_comparison(scale=scale)
    rows = add_suite_gmeans(
        cells, figures.FIGURE_SUITES, ["capri", "naive-sync"]
    )
    parts.append(
        _md_block(
            format_table(
                "Capri (async) vs naive synchronous persistence",
                rows,
                ["capri", "naive-sync"],
                cells,
            )
        )
    )

    parts.append("## extension analyses")
    parts.append("`python -m repro ablations nvmbw|prevention|inlining|cores`")
    ablation_scale = min(scale, 0.5)
    for title, cells in [
        ("NVM write parallelism",
         nvm_bandwidth_sweep(scale=ablation_scale, workers=workers)),
        ("Stale-read prevention",
         prevention_cost(scale=ablation_scale, workers=workers)),
        ("Inlining extension",
         inlining_ablation(scale=ablation_scale, workers=workers)),
        ("Core-count scaling",
         core_scaling(scale=ablation_scale, workers=workers)),
    ]:
        rows = list(cells.keys())
        columns = list(next(iter(cells.values())).keys())
        parts.append(_md_block(format_table(title, rows, columns, cells)))

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
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--workers", type=int, default=0,
                        help="sweep-engine worker processes (0 = serial)")
    args = parser.parse_args(argv)
    report = generate_report(scale=args.scale, workers=args.workers)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as fh:
        fh.write(report)
    print(f"wrote {args.out} ({len(report.splitlines())} lines)")
    return 0

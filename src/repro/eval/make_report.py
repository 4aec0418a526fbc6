"""One-shot evaluation report: every figure + analysis into one markdown file.

``python -m repro report [--out results/REPORT.md] [--scale S]``
regenerates the complete evaluation — the four paper figures, the
headline and naive comparisons, and the extension analyses — and writes
a single self-contained markdown report.  Each block is the captured
stdout of the ``python -m repro`` command printed above it, run with
exactly the arguments printed, so a reader can reproduce any table alone.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import time
from typing import List, Optional, Sequence

from repro.jsonout import scale_arg, workers_arg


def _command(argv: List[str]) -> List[str]:
    """The report lines for one command: its printed form and its stdout.

    The command runs through the same dispatcher as ``python -m repro``,
    with stdout captured; its trailing blank lines are dropped.
    """
    from repro.__main__ import main as repro_main

    line = "python -m repro " + " ".join(argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = repro_main(argv)
    if rc:
        raise RuntimeError(f"`{line}` exited {rc}")
    return [f"`{line}`", "```\n" + out.getvalue().rstrip("\n") + "\n```\n"]


def generate_report(scale: float = 1.0, workers: int = 0) -> str:
    """Build the full markdown report; heavy (runs every experiment).

    ``workers`` fans the figure grids and ablation sweeps out through the
    :mod:`repro.sweep` engine (and is printed in their command lines);
    completed runs are memoised in the on-disk result cache, so
    regenerating a report after small code changes only re-simulates
    what the change invalidated.
    """
    start = time.time()
    sweep_opts = ["--workers", str(workers)] if workers else []
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
        parts += _command(["figures", fig, "--scale", str(scale), *sweep_opts])

    # The extension analyses cap the scale at 0.5 to bound their run time.
    small = str(min(scale, 0.5))
    parts.append("## extension analyses")
    for name in ["nvmbw", "prevention", "inlining", "cores"]:
        parts += _command(["ablations", name, "--scale", small, *sweep_opts])

    parts.append("## recovery latency")
    parts += _command(["recovery", "--scale", small])

    parts.append("## residual energy (Section 1.2)")
    parts += _command(["energy", "--memory-mode"])

    parts.append(
        f"---\nGenerated in {time.time() - start:.0f} s by "
        "`python -m repro report`."
    )
    return "\n".join(parts)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro report")
    parser.add_argument("--out", default="results/REPORT.md")
    parser.add_argument("--scale", type=scale_arg, default=1.0)
    parser.add_argument("--workers", type=workers_arg, default=0,
                        help="sweep-engine worker processes (0 = serial)")
    args = parser.parse_args(argv)
    report = generate_report(scale=args.scale, workers=args.workers)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as fh:
        fh.write(report)
    print(f"wrote {args.out} ({len(report.splitlines())} lines)")
    return 0

"""Command-line front end for the sweep engine.

Examples::

    # Cold 2-worker threshold sweep over two benchmarks:
    python -m repro sweep --benchmarks ssca2,genome --thresholds 64,256 \\
        --scale 0.1 --workers 2

    # The Figure 9 optimisation ladder, all benchmarks, warm from cache:
    python -m repro sweep --ladder --workers 4

    # CI gate: warm re-run must be >=90% cache hits.
    python -m repro sweep --benchmarks ssca2,genome --thresholds 64 \\
        --scale 0.05 --cache-dir .ci-cache --min-hit-rate 0.9

Every sweep says why each spec ran: a spec whose cache entry went stale
ends its progress line ``(stale: arch)``, the summary prints a
``CHANGED … old -> new cycles`` line for each re-run whose cycles moved,
and ``--json`` carries one entry per spec (state, role, shared, stale
subsystems, old and new ``exec_cycles``).

Exit status is non-zero if any spec failed, or if ``--min-hit-rate`` was
given and the observed cache hit rate fell below it.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from repro.compiler import OptConfig
from repro.eval.report import format_table, scale_arg, workers_arg
from repro.jsonout import add_json_arg, write_envelope


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.eval.figures import FIGURE_SUITES

    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Parallel benchmark sweep with persistent result cache",
    )
    parser.add_argument(
        "--benchmarks",
        default="all",
        help="comma-separated registry names, or 'all' (the figure suites)",
    )
    parser.add_argument(
        "--suite",
        default=None,
        choices=list(FIGURE_SUITES),
        help="restrict 'all' to one figure suite",
    )
    parser.add_argument(
        "--thresholds",
        default="256",
        help="comma-separated region store thresholds (full-Capri config)",
    )
    parser.add_argument(
        "--ladder",
        action="store_true",
        help="sweep the Figure 9 optimisation ladder instead of thresholds",
    )
    parser.add_argument("--scale", type=scale_arg, default=1.0)
    parser.add_argument("--quantum", type=int, default=32)
    parser.add_argument(
        "--workers", type=workers_arg, default=0,
        help="worker processes (0 = serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache root (default: $REPRO_CACHE_DIR or results/.sweep-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk cache"
    )
    add_json_arg(parser)
    parser.add_argument(
        "--min-hit-rate", type=float, default=None,
        help="exit non-zero if the cache hit rate is below this fraction",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-spec progress lines"
    )
    args = parser.parse_args(argv)

    from repro.api import RunSpec
    from repro.sweep.engine import run_specs

    if args.benchmarks == "all":
        suites = (
            FIGURE_SUITES
            if args.suite is None
            else {args.suite: FIGURE_SUITES[args.suite]}
        )
        names = [name for members in suites.values() for name in members]
    else:
        names = [n.strip() for n in args.benchmarks.split(",") if n.strip()]

    if args.ladder:
        configs: Dict[str, OptConfig] = OptConfig.ladder()
    else:
        try:
            thresholds = [int(t) for t in args.thresholds.split(",") if t.strip()]
        except ValueError:
            parser.error(f"--thresholds: expected integers, got {args.thresholds!r}")
        configs = {str(t): OptConfig.licm(t) for t in thresholds}

    cache = None if args.no_cache else (args.cache_dir or "default")
    progress = None
    if not args.quiet:
        progress = lambda status: print(f"  {status.line()}", file=sys.stderr)

    specs = [
        RunSpec(workload=name, scale=args.scale, config=config,
                quantum=args.quantum, label=label)
        for name in names
        for label, config in configs.items()
    ]
    report = run_specs(
        specs, workers=args.workers, cache=cache, progress=progress
    )

    columns = list(configs.keys())
    # Failed specs have no result: their cells stay empty.
    cells: Dict[str, Dict[str, float]] = {name: {} for name in names}
    for result in report.results:
        if result is not None:
            cells[result.spec.workload][result.spec.label] = (
                result.normalized_cycles
            )
    rows = [name for name in names if cells.get(name)]
    json_out = args.json_out
    if json_out != "-":
        print(
            format_table(
                f"Sweep: normalized cycles at scale {args.scale}",
                rows,
                columns,
                cells,
            )
        )
        print()
        print(report.summary())

    if json_out:
        data = {
            "scale": args.scale,
            "columns": columns,
            "cells": cells,
            "report": {
                "cache_hits": report.cache_hits,
                "cache_misses": report.cache_misses,
                "hit_rate": report.hit_rate,
                "simulations": report.simulations,
                "shared": report.shared,
                "failures": report.failures,
                "wall_s": report.wall_s,
                "workers": report.workers,
            },
            "specs": [status.to_dict() for status in report.statuses],
        }
        write_envelope(json_out, "sweep", data)
        if json_out != "-":
            print(f"wrote {json_out}")

    if args.min_hit_rate is not None and report.hit_rate < args.min_hit_rate:
        print(
            f"FAIL: cache hit rate {report.hit_rate:.0%} below "
            f"required {args.min_hit_rate:.0%}",
            file=sys.stderr,
        )
        return 1
    return 0 if report.ok else 1

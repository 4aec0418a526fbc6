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

    # Delta sweep: what did the working tree change since HEAD~1, which
    # cached figures does that invalidate, and did the numbers move?
    python -m repro sweep --benchmarks ssca2,genome --thresholds 64 \\
        --scale 0.05 --since HEAD~1

Exit status is non-zero if any spec failed, or if ``--min-hit-rate`` was
given and the observed cache hit rate fell below it.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from repro.compiler import OptConfig
from repro.deps import DepsError
from repro.eval.report import format_table
from repro.jsonout import add_json_arg, write_envelope


def main(argv: Optional[Sequence[str]] = None) -> int:
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
        "--suite", default=None, help="restrict 'all' to one figure suite"
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
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--quantum", type=int, default=32)
    parser.add_argument(
        "--workers", type=int, default=0, help="worker processes (0 = serial)"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache root (default: $REPRO_CACHE_DIR or results/.sweep-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk cache"
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-spec timeout in seconds (parallel mode only)",
    )
    add_json_arg(parser)
    parser.add_argument(
        "--since",
        metavar="REV",
        default=None,
        help="delta mode: diff subsystem hashes against git REV and "
        "report which cached figures the change invalidated (and "
        "whether their values moved)",
    )
    parser.add_argument(
        "--min-hit-rate", type=float, default=None,
        help="exit non-zero if the cache hit rate is below this fraction",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-spec progress lines"
    )
    args = parser.parse_args(argv)

    from repro.arch.params import SimParams
    from repro.eval.figures import FIGURE_SUITES
    from repro.eval.harness import EvalHarness

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

    harness = EvalHarness(
        params=SimParams.scaled(),
        scale=args.scale,
        quantum=args.quantum,
    )
    try:
        table = harness.sweep(
            names,
            configs,
            workers=args.workers,
            cache=cache,
            progress=progress,
            strict=False,
            timeout_s=args.timeout,
            since=args.since,
        )
    except KeyError as err:
        parser.error(str(err.args[0] if err.args else err))
    except DepsError as err:
        parser.error(f"--since {args.since}: {err}")
    report = harness.last_sweep_report

    columns = list(configs.keys())
    cells = {
        name: {
            label: result.normalized_cycles
            for label, result in table.get(name, {}).items()
        }
        for name in names
    }
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
        if report.delta is not None:
            print(report.delta.summary())

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
        }
        if report.delta is not None:
            data["delta"] = report.delta.to_dict()
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

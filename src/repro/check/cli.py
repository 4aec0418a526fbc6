"""Command-line persistency checking.

Two modes:

**Sanitized runs** (default) — run workloads under the online checker
and report violations::

    # One workload at the paper threshold:
    python -m repro check --workload genome

    # Several workloads across a threshold sweep (the Figure 8 x-axis):
    python -m repro check --workload genome,ssca2 --thresholds 32,64,256

    # Every figure-suite workload:
    python -m repro check --all

**Mutant matrix** (``--mutants``) — planted-bug validation: every
protocol mutant must be detected with the taxonomy class it warrants,
and the unmutated runs (including crash/recover probes) must be
violation-free::

    python -m repro check --mutants
    python -m repro check --mutants --workloads genome,hot-writeback

Exit status is non-zero iff any sanitized run raised a violation (or
died), or any mutant went undetected / any matrix baseline was dirty.
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional

from repro.arch.params import SimParams
from repro.check.mutants import (
    MUTANT_EXPECTATIONS,
    checked_run,
    run_mutant_matrix,
)
from repro.jsonout import (
    add_json_arg, comma_list, text_printer, threshold_arg, usage_errors, write_envelope,
)


def _sanitized(args, parser) -> int:
    from repro.api import RunSpec, build_spec
    from repro.compiler import OptConfig
    from repro.workloads import workload_names

    if args.all:
        names = workload_names()
    elif args.workload:
        names = args.workload
    else:
        parser.error("sanitized mode needs --workload or --all")
    thresholds = args.thresholds or [args.threshold]
    params = SimParams.tight() if args.matrix_params else SimParams.scaled()
    say = text_printer(args.json_out)

    failures = 0
    records = []
    for name in names:
        for threshold in thresholds:
            start = time.perf_counter()
            with usage_errors(parser):
                module, spawns = build_spec(
                    RunSpec(
                        workload=name,
                        scale=args.scale,
                        config=OptConfig.licm(threshold),
                    )
                )
            checker, error = checked_run(module, spawns, params, threshold)
            report = checker.report
            ok = report.ok and error is None
            wall = time.perf_counter() - start
            status = "clean" if ok else "VIOLATED"
            say(
                f"{name:20s} t{threshold:<5d} {status:8s} "
                f"{report.summary()}  ({wall:.1f}s)"
                + (f"  [{error}]" if error else "")
            )
            records.append({
                "workload": name,
                "threshold": threshold,
                "ok": ok,
                "events": report.events,
                "checks": report.checks,
                "violations": len(report.violations),
                "violation_kinds": report.kinds(),
                "suppressed": report.suppressed,
                "wall_s": round(wall, 3),
                "error": error,
            })
            if not ok:
                failures += 1
                say(report.format())
    verdict = "PASS" if failures == 0 else f"FAIL ({failures} run(s) violated)"
    say(f"sanitized runs: {len(names)} workload(s) x "
        f"{len(thresholds)} threshold(s) — {verdict}")
    if args.json_out:
        payload = {
            "mode": "sanitized",
            "verdict": verdict,
            "failures": failures,
            "events": sum(r["events"] for r in records),
            "checks": sum(r["checks"] for r in records),
            "runs": records,
        }
        write_envelope(
            args.json_out, "check", payload, written="checker stats written to"
        )
    return 0 if failures == 0 else 1


def _mutants(args, parser) -> int:
    with usage_errors(parser):
        result = run_mutant_matrix(
            workloads=args.workloads,
            scale=args.scale if args.scale is not None else 1.0,
            threshold=args.threshold,
            mutants=args.mutant,
        )
    text_printer(args.json_out)(result.format())
    if args.json_out:
        payload = {
            "mode": "mutants",
            "ok": result.ok,
            "baseline_ok": result.baseline_ok,
            "all_detected": result.all_detected,
            "workloads": list(result.workloads),
            "wall_s": round(result.wall_s, 3),
            "baselines": {
                name: {
                    "ok": report.ok,
                    "events": report.events,
                    "checks": report.checks,
                    "violations": len(report.violations),
                }
                for name, report in sorted(result.baseline_reports.items())
            },
            "mutants": [
                {
                    "mutant": o.mutant,
                    "detected": o.detected,
                    "expected": list(o.expected),
                    "kinds": list(o.kinds),
                    "workload": o.workload,
                    "error": o.error,
                }
                for o in result.outcomes
            ],
        }
        write_envelope(
            args.json_out, "check", payload, written="checker stats written to"
        )
    return 0 if result.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        description="Online persistency-model checker (sanitized runs "
        "and planted-mutant validation)",
    )
    parser.add_argument(
        "--mutants",
        action="store_true",
        help="run the planted-mutant validation matrix instead of "
        "sanitized workload runs",
    )
    parser.add_argument(
        "--workload",
        type=comma_list(str, "workloads"),
        help="comma-separated registry workloads to sanitize",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="sanitize every figure-suite workload",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="workload scale (default: each workload's registry default; "
        "1.0 in --mutants mode)",
    )
    parser.add_argument(
        "--threshold",
        type=threshold_arg,
        default=None,
        help="region threshold (default: 256 sanitized, 32 for --mutants)",
    )
    parser.add_argument(
        "--thresholds",
        type=comma_list(threshold_arg, "thresholds"),
        help="comma-separated threshold sweep (sanitized mode only)",
    )
    parser.add_argument(
        "--matrix-params",
        action="store_true",
        help="sanitize under the stress parameters of the mutant matrix "
        "(tiny caches, throttled NVM write port) instead of the paper "
        "configuration",
    )
    parser.add_argument(
        "--workloads",
        type=comma_list(str, "workloads"),
        default="genome,hot-writeback",
        help="matrix workloads for --mutants (default: %(default)s)",
    )
    parser.add_argument(
        "--mutant",
        type=comma_list(str, "mutants"),
        help="comma-separated mutant subset for --mutants "
        f"(known: {', '.join(MUTANT_EXPECTATIONS)})",
    )
    add_json_arg(
        parser,
        help="write per-run checker statistics (events, checks, "
        "violations, wall time) to PATH as a schema-versioned envelope "
        "('-' for stdout)",
    )
    args = parser.parse_args(argv)
    from repro.workloads import get_workload

    with usage_errors(parser):  # an unknown name, before anything runs
        for name in (args.workloads if args.mutants else args.workload) or ():
            get_workload(name)
    if args.mutants:
        if args.threshold is None:
            args.threshold = 32
        return _mutants(args, parser)
    if args.threshold is None:
        args.threshold = 256
    return _sanitized(args, parser)


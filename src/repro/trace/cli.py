"""Command-line trace tooling: ``python -m repro trace bench``.

The campaign bench runs one fault campaign on the interpreted reference
source and once replayed from a captured trace, compares the verdicts
point by point, and reports the speedup (exit 1 on any verdict
divergence)::

    python -m repro trace bench --workload genome --scale 0.2

It is the CI smoke command — it re-verifies the equivalence this
subsystem is built on rather than trusting it.
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional

from repro.api import RunSpec, build_spec
from repro.compiler import OptConfig, RegionFormationError
from repro.jsonout import add_json_arg, write_envelope


def _bench(args, parser, json_out) -> int:
    from repro.fault.campaign import (
        CampaignConfig,
        run_campaign,
        run_workload_campaign,
    )
    from repro.fault.oracle import InterpretedSource, golden_run

    config = CampaignConfig(
        threshold=args.threshold,
        quantum=args.quantum,
        sample=args.sample,
        check=args.check,
        minimize=False,
    )
    start = time.perf_counter()
    try:
        compiled, spawns = build_spec(
            RunSpec(
                workload=args.workload,
                scale=args.scale,
                config=OptConfig.licm(args.threshold),
            )
        )
    except (KeyError, ValueError, RegionFormationError) as err:
        parser.error(str(err.args[0] if err.args else err))
    interpreted = run_campaign(
        compiled,
        spawns,
        config,
        name=args.workload,
        golden=golden_run(
            compiled, spawns, quantum=config.quantum, max_steps=config.max_steps
        ),
        source=InterpretedSource(compiled, spawns, config),
    )
    t_int = time.perf_counter() - start
    start = time.perf_counter()
    replayed = run_workload_campaign(args.workload, config, scale=args.scale)
    t_rep = time.perf_counter() - start

    def verdicts(result):
        return [(o.event_index, o.status, tuple(o.chain)) for o in result.outcomes]

    vi, vr = verdicts(interpreted), verdicts(replayed)
    speedup = t_int / t_rep if t_rep > 0 else float("inf")
    if json_out != "-":
        print(
            f"{args.workload}: {len(vi)} crash points of "
            f"{interpreted.total_events} events — interpreted {t_int:.2f}s, "
            f"replayed {t_rep:.2f}s, speedup {speedup:.2f}x"
        )
    if json_out:
        write_envelope(
            json_out,
            "trace",
            {
                "mode": "bench",
                "workload": args.workload,
                "crash_points": len(vi),
                "total_events": interpreted.total_events,
                "interpreted_s": t_int,
                "replayed_s": t_rep,
                "speedup": speedup if t_rep > 0 else None,
                "identical": vi == vr,
                "counts": interpreted.counts(),
            },
        )
    if vi != vr:
        if json_out != "-":
            for a, b in zip(vi, vr):
                if a != b:
                    print(f"VERDICTS DIVERGE: first at {a} vs {b}")
                    break
            else:
                print(
                    f"VERDICTS DIVERGE: point counts {len(vi)} vs {len(vr)}"
                )
        return 1
    if json_out != "-":
        print(f"campaign verdicts identical ({interpreted.counts()})")
    if args.min_speedup and speedup < args.min_speedup:
        if json_out != "-":
            print(f"SPEEDUP {speedup:.2f}x below required {args.min_speedup}x")
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Campaign replay bench",
    )
    parser.add_argument("mode", choices=("bench",))
    parser.add_argument(
        "--workload",
        required=True,
        help="registry workload name (see repro.workloads)",
    )
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--threshold", type=int, default=32)
    parser.add_argument("--quantum", type=int, default=32)
    parser.add_argument(
        "--check",
        action="store_true",
        help="also run the online persistency checker on both sides",
    )
    parser.add_argument(
        "--sample",
        type=int,
        default=None,
        help="crash-point sample size (default: exhaustive)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless the replay campaign is at least this "
        "many times faster",
    )
    add_json_arg(parser)
    args = parser.parse_args(argv)
    return _bench(args, parser, args.json_out)

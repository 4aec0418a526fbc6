"""Command-line trace tooling: ``python -m repro trace <mode>``.

Two modes::

    # Capture a workload's columnar trace into the result cache:
    python -m repro trace capture --workload genome --scale 0.3

    # Campaign bench: one fault campaign on the interpreted reference
    # source and once replayed, verdicts compared point by point, speedup
    # reported (exit 1 on any verdict divergence):
    python -m repro trace bench --workload genome --scale 0.2

``bench`` is the CI smoke command — it re-verifies the equivalence
this subsystem is built on rather than trusting it.  Each mode
refuses the other's options rather than ignore them: ``capture`` the
bench options (``--check``, ``--sample``, ``--min-speedup``), ``bench``
``--no-cache`` (it never uses the cache).
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional

from repro.api import RunSpec
from repro.compiler import OptConfig
from repro.jsonout import add_json_arg, write_envelope


def _spec(args) -> RunSpec:
    return RunSpec(
        workload=args.workload,
        scale=args.scale,
        config=OptConfig.licm(args.threshold),
        quantum=args.quantum,
    )


def _capture(args, parser, json_out) -> int:
    from repro.api import load_spec_trace, resolve_cache, trace_fingerprint

    spec = _spec(args)
    store = resolve_cache(None if args.no_cache else "default")
    fingerprint = trace_fingerprint(spec)
    start = time.perf_counter()
    try:
        trace, program = load_spec_trace(spec, store)
    except KeyError as err:
        parser.error(str(err.args[0] if err.args else err))
    cached = program is None
    path = None if store is None else store.path_for(fingerprint, kind="traces")
    wall = time.perf_counter() - start
    if json_out != "-":
        print(
            f"trace {args.workload} scale={args.scale} t{args.threshold}: "
            f"{len(trace)} events, {trace.total_retired} retired, "
            f"{trace.num_cores} core(s)"
            + (" [cached]" if cached else f" captured in {wall:.2f}s")
        )
        print(f"  fingerprint {fingerprint}")
        if path is not None:
            print(f"  stored at {path}")
    if json_out:
        write_envelope(
            json_out,
            "trace",
            {
                "mode": "capture",
                "workload": args.workload,
                "scale": args.scale,
                "threshold": args.threshold,
                "events": len(trace),
                "retired": trace.total_retired,
                "cores": trace.num_cores,
                "cached": cached,
                "fingerprint": fingerprint,
                "deps": trace.meta.get("deps"),
                "wall_s": wall,
            },
        )
    return 0


def _bench(args, parser, json_out) -> int:
    from repro.api import build_spec
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
        compiled, spawns = build_spec(_spec(args))
    except KeyError as err:
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
    replayed = run_workload_campaign(
        args.workload, config, scale=args.scale, cache=None
    )
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
        description="Columnar trace capture and campaign replay bench",
    )
    parser.add_argument("mode", choices=("capture", "bench"))
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
        help="bench: also run the online persistency checker on both sides",
    )
    parser.add_argument(
        "--sample",
        type=int,
        default=None,
        help="bench: crash-point sample size (default: exhaustive)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="bench: fail unless the replay campaign is at least this "
        "many times faster",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="capture: do not read or write the result cache",
    )
    add_json_arg(parser)
    args = parser.parse_args(argv)
    json_out = args.json_out
    if args.mode == "capture":
        bench_only = [
            flag
            for flag, given in (
                ("--check", args.check),
                ("--sample", args.sample is not None),
                ("--min-speedup", args.min_speedup is not None),
            )
            if given
        ]
        if bench_only:
            parser.error(f"{', '.join(bench_only)}: bench mode only")
        return _capture(args, parser, json_out)
    if args.no_cache:
        parser.error("--no-cache: capture mode only")
    return _bench(args, parser, json_out)

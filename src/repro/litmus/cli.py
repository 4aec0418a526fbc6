"""Command-line litmus tooling: ``python -m repro litmus <mode>``.

Four modes::

    # Print generated programs (text + structural metadata):
    python -m repro litmus generate --seeds 0,1,2

    # Crash matrix: every program, a crash at every observer event,
    # every recovered state judged against the outcome oracle
    # (exit 1 on any forbidden outcome):
    python -m repro litmus run --seeds 0,1,2

    # Bounded-exhaustive interleaving exploration against the oracle
    # and the reference automaton (exit 1 on automaton violations):
    python -m repro litmus explore --seeds 0,1 --step-limit 4

    # Teeth: the matrix against every planted ProtocolMutation
    # (exit 1 unless detection meets the expected-miss budget):
    python -m repro litmus mutants --seeds 0,1,2,3

``run`` and ``mutants`` are the CI smoke commands (`litmus-smoke`).
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional

from repro.jsonout import add_json_arg, write_envelope

#: The pinned corpus seeds (tests/litmus/test_golden_corpus.py).
DEFAULT_SEEDS = (0, 1, 2, 3, 4, 5)


def _parse_seeds(raw: Optional[str], count: Optional[int]) -> List[int]:
    """Comma-separated seeds, each either an int or an a-b range.

    A non-integer seed, an empty or reversed range, or no seeds at all
    raises :class:`ValueError` naming it: an empty corpus checks nothing.
    """
    if raw is None:
        count = len(DEFAULT_SEEDS) if count is None else count
        if count < 1:
            raise ValueError(f"--count must be >= 1, got {count}")
        return list(range(count))
    seeds: List[int] = []
    for part in filter(None, (p.strip() for p in raw.split(","))):
        lo, dash, hi = part.partition("-")
        try:
            span = range(int(lo), int(hi) + 1) if dash and lo else [int(part)]
        except ValueError:
            span = []
        if not span:
            raise ValueError(f"--seeds: bad seed or range {part!r}")
        seeds.extend(span)
    if not seeds:
        raise ValueError(f"--seeds: no seeds in {raw!r}")
    return seeds


def _generate(args, json_out) -> int:
    from repro.litmus.generate import litmus_corpus

    programs = litmus_corpus(args.seed_list)
    rows = [
        {
            "name": p.name,
            "seed": p.seed,
            "harts": p.harts,
            "regions": p.metadata.get("regions"),
            "instrs": p.instr_counts(),
            "shared_addrs": p.shared_addrs,
            "private_addrs": p.private_addrs,
            "content_hash": p.content_hash(),
        }
        for p in programs
    ]
    if json_out != "-":
        for p, row in zip(programs, rows):
            print(
                f"{p.name}: {row['harts']} harts, {row['regions']} regions, "
                f"instrs {row['instrs']}, hash {row['content_hash']}"
            )
            if args.text:
                print(p.text())
    if json_out:
        write_envelope(json_out, "litmus", {"mode": "generate", "programs": rows})
    return 0


def _run(args, json_out) -> int:
    from repro.litmus.generate import litmus_corpus
    from repro.litmus.matrix import run_litmus_program

    programs = litmus_corpus(args.seed_list)
    start = time.perf_counter()
    verdicts = [run_litmus_program(p, threshold=args.threshold) for p in programs]
    wall = time.perf_counter() - start
    forbidden = sum(v.forbidden for v in verdicts)
    if json_out != "-":
        for v in verdicts:
            line = (
                f"{v.name}: {v.crash_points} crash points, {v.checks} checks, "
                f"{v.forbidden} forbidden ({v.elapsed:.2f}s)"
            )
            print(line)
            if v.witness is not None:
                w = v.witness
                print(
                    f"  witness: event {w.event_index} ({w.event}), "
                    f"confirmed={w.confirmed}, failures={w.failures}"
                )
        print(
            f"total: {forbidden} forbidden across "
            f"{sum(v.crash_points for v in verdicts)} crash points "
            f"in {wall:.2f}s"
        )
    if json_out:
        write_envelope(
            json_out,
            "litmus",
            {
                "mode": "run",
                "threshold": args.threshold,
                "forbidden": forbidden,
                "wall_s": wall,
                "verdicts": [v.to_payload() for v in verdicts],
            },
        )
    return 1 if forbidden else 0


def _explore(args, json_out) -> int:
    from repro.litmus.explore import explore_program
    from repro.litmus.generate import litmus_corpus

    programs = litmus_corpus(args.seed_list)
    start = time.perf_counter()
    results = [
        explore_program(
            p,
            max_schedules=args.max_schedules,
            step_limit=args.step_limit,
            threshold=args.threshold,
        )
        for p in programs
    ]
    wall = time.perf_counter() - start
    violations = sum(r.pipeline_violations for r in results)
    if json_out != "-":
        for r in results:
            print(
                f"{r.name}: universe {r.schedule_universe} schedules, "
                f"ran {r.schedules_run} "
                f"({'exhaustive' if r.exhaustive else 'sampled'}), "
                f"{r.pipeline_schedules} through the pipeline checker, "
                f"{r.pipeline_violations} violations"
            )
        print(f"total: {violations} automaton violations in {wall:.2f}s")
    if json_out:
        write_envelope(
            json_out,
            "litmus",
            {
                "mode": "explore",
                "wall_s": wall,
                "violations": violations,
                "results": [
                    {
                        "name": r.name,
                        "seed": r.seed,
                        "schedule_universe": str(r.schedule_universe),
                        "schedules_run": r.schedules_run,
                        "exhaustive": r.exhaustive,
                        "step_limit": r.step_limit,
                        "pipeline_schedules": r.pipeline_schedules,
                        "pipeline_violations": r.pipeline_violations,
                        "allowed_sizes": {
                            str(addr): len(vals)
                            for addr, vals in sorted(r.allowed.items())
                        },
                    }
                    for r in results
                ],
            },
        )
    return 1 if violations else 0


def _mutants(args, parser, json_out) -> int:
    from repro.litmus.generate import litmus_corpus
    from repro.litmus.matrix import run_litmus_mutants

    programs = litmus_corpus(args.seed_list)
    mutants = (
        [m.strip() for m in args.mutants.split(",") if m.strip()]
        if args.mutants
        else None
    )
    start = time.perf_counter()
    try:
        result = run_litmus_mutants(
            programs, mutants=mutants, threshold=args.threshold
        )
    except ValueError as err:
        parser.error(f"--mutants: {err}")
    wall = time.perf_counter() - start
    caught, total = result.detection_rate
    if json_out != "-":
        print(
            f"litmus mutants: control forbidden {result.control_forbidden}, "
            f"detected {caught}/{total} in {wall:.1f}s"
        )
        for name, hit in sorted(result.detected.items()):
            note = ""
            if not hit and name in result.expected_misses:
                note = "  (expected miss: needs regular-path writebacks)"
            witness = result.witnesses.get(name)
            detail = (
                f"  witness event {witness['event_index']}"
                f" confirmed={witness['confirmed']}"
                if witness
                else ""
            )
            print(f"  {name:24s} {'CAUGHT' if hit else 'missed'}{detail}{note}")
        print("OK" if result.ok else "DETECTION BELOW EXPECTATION")
    if json_out:
        payload = result.to_payload()
        payload["mode"] = "mutants"
        payload["wall_s"] = wall
        write_envelope(json_out, "litmus", payload)
    return 0 if result.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro litmus",
        description="Persistency litmus tests: generation, outcome "
        "oracles, bounded-exhaustive exploration, and the crash matrix",
    )
    parser.add_argument("mode", choices=("generate", "run", "explore", "mutants"))
    parser.add_argument(
        "--seeds",
        default=None,
        help="generator seeds: comma-separated ints and a-b ranges, "
        "e.g. 0,3,5-8 (default: the pinned corpus)",
    )
    parser.add_argument(
        "--count",
        type=int,
        default=None,
        help="shorthand for --seeds 0,1,...,count-1",
    )
    parser.add_argument("--threshold", type=int, default=32)
    parser.add_argument(
        "--text", action="store_true", help="generate: print program text"
    )
    parser.add_argument(
        "--max-schedules",
        type=int,
        default=200,
        help="explore: schedule budget before sampling kicks in",
    )
    parser.add_argument(
        "--step-limit",
        type=int,
        default=None,
        help="explore: per-hart instruction cap for true exhaustiveness",
    )
    parser.add_argument(
        "--mutants",
        default=None,
        help="mutants: comma-separated mutation names (default: all planted)",
    )
    add_json_arg(parser)
    args = parser.parse_args(argv)
    try:
        args.seed_list = _parse_seeds(args.seeds, args.count)
    except ValueError as err:
        parser.error(str(err))
    if args.step_limit is not None and args.step_limit < 0:
        parser.error(f"--step-limit must be >= 0, got {args.step_limit}")
    if args.max_schedules < 1:
        parser.error(f"--max-schedules must be >= 1, got {args.max_schedules}")
    json_out = args.json_out
    if args.mode == "generate":
        return _generate(args, json_out)
    if args.mode == "run":
        return _run(args, json_out)
    if args.mode == "explore":
        return _explore(args, json_out)
    return _mutants(args, parser, json_out)

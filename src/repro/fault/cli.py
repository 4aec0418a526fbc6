"""Command-line fault-injection campaigns.

Examples::

    # Exhaustive clean-power-loss sweep (every observer event):
    python -m repro fault --workload genome --scale 0.1

    # Sampled adversarial sweep, lenient recovery:
    python -m repro fault --workload genome --scale 0.1 --sample 50 \\
        --models all --lenient

    # Nested-failure sweep: crash, then crash again inside recovery
    # (every point also gets its single-crash verdict):
    python -m repro fault --workload deep-call --depth 2 \\
        --sample 20 --json out.json

Exit status is non-zero iff the campaign found a failure (a silent
mis-recovery, a clean-crash divergence, a non-idempotent re-entered
recovery, or an unexpected error).
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.fault.campaign import CampaignConfig, run_workload_campaign
from repro.fault.models import available_models
from repro.jsonout import (
    add_json_arg, comma_list, int_arg, text_printer, threshold_arg, usage_errors,
    write_envelope,
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro fault",
        description="Crash-consistency fault-injection campaign",
    )
    parser.add_argument(
        "--workload",
        required=True,
        help="registry workload name (see repro.workloads)",
    )
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--threshold", type=threshold_arg, default=32)
    parser.add_argument(
        "--sample",
        type=int_arg(0),
        default=None,
        help="crash-point sample size (default: exhaustive)",
    )
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=0xCA9121)
    parser.add_argument(
        "--models",
        type=comma_list(str, "models"),
        default="clean",
        help="comma-separated fault models, or 'all' "
        f"(known: {', '.join(available_models())})",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--strict",
        dest="strict",
        action="store_true",
        default=None,
        help="fail-stop recovery: corruption raises (default for clean)",
    )
    mode.add_argument(
        "--lenient",
        dest="strict",
        action="store_false",
        help="quarantining recovery: corruption is contained and reported",
    )
    parser.add_argument(
        "--no-minimize",
        dest="minimize",
        action="store_false",
        help="skip shrinking the first failure",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the online persistency checker (repro.check) as a "
        "second oracle at every sweep point",
    )
    parser.add_argument(
        "--depth",
        type=int_arg(1),
        default=1,
        help="total crashes per chain: 1 = single-crash sweep; K > 1 also "
        "injects crashes into recovery itself, up to K failures "
        "(default 1)",
    )
    parser.add_argument(
        "--secondary-sample",
        type=int_arg(0),
        default=12,
        help="recovery-step crash indices sampled per chain level "
        "(0 = exhaustive; default 12)",
    )
    parser.add_argument(
        "--max-chains",
        type=int_arg(1),
        default=96,
        help="chain budget per primary crash point (skipped chains are "
        "reported, never silent; default 96)",
    )
    add_json_arg(
        parser,
        help="write the campaign's machine-readable summary (counts, "
        "quarantine detail, first failure) to PATH as a schema-versioned "
        "envelope ('-' for stdout)",
    )
    args = parser.parse_args(argv)
    model_names = tuple(args.models)
    # Default mode: strict for clean sweeps (any raise is a bug), lenient
    # when injecting faults (we want containment, not fail-stop).
    strict = args.strict
    if strict is None:
        strict = model_names == ("clean",)

    config = CampaignConfig(
        threshold=args.threshold,
        seed=args.seed,
        sample=args.sample,
        models=model_names,
        strict=strict,
        minimize=args.minimize,
        check=args.check,
        depth=args.depth,
        secondary_sample=args.secondary_sample or None,
        max_chains_per_point=args.max_chains,
    )
    # an unknown workload or fault model, or a bad scale
    with usage_errors(parser):
        result = run_workload_campaign(args.workload, config, scale=args.scale)
    text_printer(args.json_out)(result.summary())
    if args.json_out:
        write_envelope(
            args.json_out, "fault", result.to_stats(), written="stats written to"
        )
    return 0 if result.ok else 1


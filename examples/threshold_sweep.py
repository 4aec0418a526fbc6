#!/usr/bin/env python3
"""Threshold sweep: the compiler/architecture co-design lever, end to end.

The store threshold is Capri's central co-design parameter: the compiler
bounds every region's store count by it, and the architecture sizes the
per-core back-end proxy buffer from it (Section 5.2.2).  This script
sweeps the threshold for one benchmark and reports, at each point, the
performance AND hardware-cost consequences — the trade-off behind the
paper's Figure 8 and its choice of 256 as the default.

Run:  python examples/threshold_sweep.py [--workload NAME]
"""

import argparse

from repro.api import RunSpec
from repro.compiler import OptConfig, region_means
from repro.sweep import run_specs
from repro.workloads import get_workload, workload_names

#: 136 bytes per back-end entry: 8B address + two 64B lines (Figure 5).
ENTRY_BYTES = 136


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--workload", default="508.namd_r", choices=workload_names()
    )
    parser.add_argument("--scale", type=float, default=0.5)
    args = parser.parse_args()

    name = args.workload
    thresholds = [32, 64, 128, 256, 512, 1024]
    # One labelled spec per threshold; the engine adds the volatile
    # baseline each result is normalised against.
    specs = [
        RunSpec(workload=name, scale=args.scale, config=OptConfig.licm(t),
                label=f"t{t}")
        for t in thresholds
    ]
    row = run_specs(specs, cache="default").table()[name]
    _, spawns = get_workload(name).build(args.scale)
    baseline = row[f"t{thresholds[0]}"].baseline_cycles
    print(f"benchmark: {name} (baseline {baseline:.0f} cycles)\n")
    print(f"{'threshold':>9s} {'norm.cycles':>12s} {'overhead':>9s} "
          f"{'ckpts':>7s} {'boundaries':>11s} {'regions/s len':>14s} "
          f"{'BE sram/core':>13s}")

    for threshold in thresholds:
        result = row[f"t{threshold}"]
        m = result.metrics
        avg_instructions, _ = region_means(m, spawns)
        sram_kb = threshold * ENTRY_BYTES / 1024
        print(f"{threshold:9d} {result.normalized_cycles:12.3f} "
              f"{result.overhead_pct:8.1f}% {m.ckpt_stores:7d} "
              f"{m.boundaries:11d} {avg_instructions:14.1f} "
              f"{sram_kb:10.1f}KB")

    print(
        "\nLarger thresholds mean longer regions, fewer checkpoints and "
        "boundaries\n(lower overhead) but a larger battery-backed back-end "
        "buffer per core —\nthe paper picks 256 (~34KB/core) as the sweet "
        "spot (Sections 6.1-6.2)."
    )


if __name__ == "__main__":
    main()

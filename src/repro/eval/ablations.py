"""Ablation studies over Capri's design choices.

The paper fixes several hardware parameters (front-end proxy of 32
entries, a 20 ns proxy path, back-end sized by the threshold, stale-read
prevention on) and motivates them qualitatively.  These sweeps quantify
each choice on our substrate — the "what if" companion to Figure 8:

* :func:`frontend_size_sweep` — Section 5.2.1's fixed 32-entry front end:
  how small can it go before phase-1 back-pressure stalls the pipeline?
* :func:`proxy_bandwidth_sweep` — the dedicated path's initiation
  interval: when does the FE->BE link become the bottleneck?
* :func:`nvm_bandwidth_sweep` — the shared write port behind phase 2.
* :func:`prevention_cost` — redo-valid invalidation (Section 5.3.2) is
  scanning work in hardware; in our model it should be performance-free,
  trading only NVM write *savings* (skipped redos).
* :func:`inlining_ablation` — the extension pass: what call-boundary
  removal buys on call-dense code.

Every sweep builds :class:`~repro.api.RunSpec` lists and routes them
through the :mod:`repro.sweep` engine, so ``workers=N`` parallelises the
grid and completed cells are served from the on-disk result cache.

Command line::

    python -m repro ablations {frontend,proxybw,nvmbw,prevention,inlining,all}
        [--workers N]
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence

from repro.api import RunResult, RunSpec
from repro.arch.params import SimParams
from repro.compiler import OptConfig
from repro.eval.report import format_table
from repro.workloads.probes import STREAM_PROBE

#: Store-dense benchmarks stress the proxy pipeline hardest.
DEFAULT_BENCHMARKS = ["519.lbm_r", "radix", "508.namd_r"]


def _sweep(specs: Sequence[RunSpec], workers: int) -> List[RunResult]:
    """Run specs through the engine; raise on any failure."""
    from repro.sweep.engine import SweepError, run_specs

    report = run_specs(specs, workers=workers, cache="default")
    if not report.ok:
        raise SweepError(report)
    return report.results


def _cells_from(
    specs: Sequence[RunSpec], results: Sequence[RunResult]
) -> Dict[str, Dict[str, float]]:
    cells: Dict[str, Dict[str, float]] = {}
    for spec, result in zip(specs, results):
        cells.setdefault(spec.workload, {})[spec.label] = result.normalized_cycles
    return cells


def frontend_size_sweep(
    sizes: Sequence[int] = (1, 2, 4, 8, 32),
    benchmarks: Sequence[str] = (STREAM_PROBE, *DEFAULT_BENCHMARKS),
    scale: float = 0.5,
    threshold: int = 256,
    workers: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Normalised cycles vs front-end proxy entries (paper default: 32).

    Swept with a slowed proxy path (8 ns initiation) — at the default
    path bandwidth even a handful of entries absorbs store bursts, which
    is itself the finding: the paper's 32-entry front end is generous.
    """
    specs = [
        RunSpec(
            workload=name,
            scale=scale,
            config=OptConfig.licm(threshold),
            params=SimParams.scaled().with_(
                frontend_entries=size, proxy_xfer_ns=8.0
            ),
            label=str(size),
        )
        for name in benchmarks
        for size in sizes
    ]
    return _cells_from(specs, _sweep(specs, workers))


def proxy_bandwidth_sweep(
    intervals_ns: Sequence[float] = (1.0, 8.0, 16.0, 32.0, 64.0),
    benchmarks: Sequence[str] = (STREAM_PROBE, *DEFAULT_BENCHMARKS),
    scale: float = 0.5,
    threshold: int = 256,
    workers: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Normalised cycles vs proxy-path initiation interval per entry."""
    specs = [
        RunSpec(
            workload=name,
            scale=scale,
            config=OptConfig.licm(threshold),
            params=SimParams.scaled().with_(proxy_xfer_ns=interval),
            label=f"{interval}ns",
        )
        for name in benchmarks
        for interval in intervals_ns
    ]
    return _cells_from(specs, _sweep(specs, workers))


def nvm_bandwidth_sweep(
    parallelism: Sequence[int] = (16, 64, 256, 1024),
    benchmarks: Sequence[str] = (STREAM_PROBE, *DEFAULT_BENCHMARKS),
    scale: float = 0.5,
    threshold: int = 256,
    workers: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Normalised cycles vs effective NVM write parallelism."""
    specs = [
        RunSpec(
            workload=name,
            scale=scale,
            config=OptConfig.licm(threshold),
            params=SimParams.scaled().with_(nvm_write_parallelism=p),
            label=f"x{p}",
        )
        for name in benchmarks
        for p in parallelism
    ]
    return _cells_from(specs, _sweep(specs, workers))


def prevention_cost(
    benchmarks: Sequence[str] = tuple(DEFAULT_BENCHMARKS),
    scale: float = 0.5,
    threshold: int = 64,
    workers: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Stale-read prevention on/off: cycles, skipped redos, stale reads.

    Uses a shrunken hierarchy so regular-path writebacks actually race the
    proxy path.
    """
    tiny = SimParams.scaled().with_(
        l1_size_bytes=512,
        l2_size_bytes=1024,
        dram_cache_size_bytes=1024,
        nvm_write_parallelism=8,
    )
    specs = [
        RunSpec(
            workload=name,
            scale=scale,
            config=OptConfig.licm(threshold),
            params=tiny.with_(stale_read_prevention=prevention),
            label="on" if prevention else "off",
        )
        for name in benchmarks
        for prevention in (True, False)
    ]
    results = _sweep(specs, workers)
    cells: Dict[str, Dict[str, float]] = {}
    for spec, result in zip(specs, results):
        row = cells.setdefault(spec.workload, {})
        tag = spec.label
        row[f"cycles_{tag}"] = result.normalized_cycles
        row[f"skipped_{tag}"] = float(result.metrics.nvm_writes_skipped)
        row[f"stale_{tag}"] = float(result.metrics.stale_reads)
    return cells


def inlining_ablation(
    benchmarks: Sequence[str] = ("oskernel", "531.deepsjeng_r", "genome"),
    scale: float = 0.5,
    threshold: int = 256,
    workers: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Full Capri vs full Capri + small-function inlining (extension)."""
    specs = [
        RunSpec(
            workload=name,
            scale=scale,
            config=config,
            label=label,
        )
        for name in benchmarks
        for label, config in (
            ("full", OptConfig.licm(threshold)),
            ("+inlining", OptConfig.inlined(threshold)),
        )
    ]
    return _cells_from(specs, _sweep(specs, workers))


def core_scaling(
    threads: Sequence[int] = (1, 2, 4, 8),
    benchmarks: Sequence[str] = ("ocean", "radix", "water-nsquared"),
    scale: float = 0.5,
    threshold: int = 256,
    workers: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Capri overhead vs core count for the multi-threaded suite.

    The paper simulates 8 cores; each core gets its own proxy pipeline
    while the NVM write port is shared, so overhead should stay roughly
    flat with core count unless the write port saturates.
    """
    specs = [
        RunSpec(
            workload=name,
            scale=scale,
            config=OptConfig.licm(threshold),
            threads=t,
            label=f"{t}c",
        )
        for name in benchmarks
        for t in threads
    ]
    return _cells_from(specs, _sweep(specs, workers))


_ABLATIONS = {
    "frontend": (
        frontend_size_sweep,
        "Front-end proxy size sweep (normalized cycles; paper default 32)",
    ),
    "cores": (
        core_scaling,
        "Core-count scaling: Capri overhead vs threads (normalized cycles)",
    ),
    "proxybw": (
        proxy_bandwidth_sweep,
        "Proxy-path initiation interval sweep (normalized cycles)",
    ),
    "nvmbw": (
        nvm_bandwidth_sweep,
        "NVM write parallelism sweep (normalized cycles)",
    ),
    "prevention": (
        prevention_cost,
        "Stale-read prevention on/off (tiny hierarchy, throttled NVM port)",
    ),
    "inlining": (
        inlining_ablation,
        "Small-function inlining extension (normalized cycles)",
    ),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro ablations")
    parser.add_argument("ablation", choices=[*_ABLATIONS, "all"])
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--workers", type=int, default=0,
                        help="sweep-engine worker processes (0 = serial)")
    args = parser.parse_args(argv)
    names = list(_ABLATIONS) if args.ablation == "all" else [args.ablation]
    for name in names:
        fn, title = _ABLATIONS[name]
        cells = fn(scale=args.scale, workers=args.workers)
        rows = list(cells.keys())
        columns: List[str] = list(next(iter(cells.values())).keys())
        print(format_table(title, rows, columns, cells))
        print()
    return 0

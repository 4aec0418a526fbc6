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

Every sweep builds labelled :class:`~repro.api.RunSpec` lists and routes
them through the :mod:`repro.sweep` engine
(:func:`~repro.eval.figures.run_grid`), so ``workers=N`` parallelises the
grid and completed cells are served from the on-disk result cache.
:func:`render_ablation` is the one renderer of each table, shared by this
CLI and ``repro report``.

Command line::

    python -m repro ablations {frontend,cores,proxybw,nvmbw,prevention,inlining,all}
        [--scale S] [--workers N]
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Mapping, Optional, Sequence

from repro.api import RunSpec
from repro.arch.params import SimParams
from repro.compiler import OptConfig
from repro.eval.figures import grid, normalized, run_grid
from repro.eval.report import format_table
from repro.jsonout import scale_arg, workers_arg
from repro.workloads.probes import STREAM_PROBE

#: Store-dense benchmarks stress the proxy pipeline hardest.
DEFAULT_BENCHMARKS = ["519.lbm_r", "radix", "508.namd_r"]


def _param_grid(
    benchmarks: Sequence[str],
    params: Mapping[str, SimParams],
    scale: float,
    threshold: int,
) -> List[RunSpec]:
    """Full Capri at ``threshold`` under each labelled parameter set."""
    return [
        RunSpec(workload=name, scale=scale, config=OptConfig.licm(threshold),
                params=p, label=label)
        for name in benchmarks
        for label, p in params.items()
    ]


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
    params = {
        str(size): SimParams.scaled().with_(frontend_entries=size, proxy_xfer_ns=8.0)
        for size in sizes
    }
    specs = _param_grid(benchmarks, params, scale, threshold)
    return normalized(run_grid(specs, workers))


def proxy_bandwidth_sweep(
    intervals_ns: Sequence[float] = (1.0, 8.0, 16.0, 32.0, 64.0),
    benchmarks: Sequence[str] = (STREAM_PROBE, *DEFAULT_BENCHMARKS),
    scale: float = 0.5,
    threshold: int = 256,
    workers: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Normalised cycles vs proxy-path initiation interval per entry."""
    params = {
        f"{interval}ns": SimParams.scaled().with_(proxy_xfer_ns=interval)
        for interval in intervals_ns
    }
    specs = _param_grid(benchmarks, params, scale, threshold)
    return normalized(run_grid(specs, workers))


def nvm_bandwidth_sweep(
    parallelism: Sequence[int] = (16, 64, 256, 1024),
    benchmarks: Sequence[str] = (STREAM_PROBE, *DEFAULT_BENCHMARKS),
    scale: float = 0.5,
    threshold: int = 256,
    workers: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Normalised cycles vs effective NVM write parallelism."""
    params = {
        f"x{p}": SimParams.scaled().with_(nvm_write_parallelism=p)
        for p in parallelism
    }
    specs = _param_grid(benchmarks, params, scale, threshold)
    return normalized(run_grid(specs, workers))


def prevention_cost(
    benchmarks: Sequence[str] = tuple(DEFAULT_BENCHMARKS),
    scale: float = 0.5,
    threshold: int = 64,
    workers: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Stale-read prevention on/off: cycles, skipped redos, stale reads.

    Uses :meth:`SimParams.tight` so regular-path writebacks actually race
    the proxy path.
    """
    params = {
        tag: SimParams.tight().with_(stale_read_prevention=tag == "on")
        for tag in ("on", "off")
    }
    specs = _param_grid(benchmarks, params, scale, threshold)
    cells: Dict[str, Dict[str, float]] = {}
    for name, row in run_grid(specs, workers).items():
        cells[name] = {}
        for tag, result in row.items():
            cells[name][f"cycles_{tag}"] = result.normalized_cycles
            cells[name][f"skipped_{tag}"] = float(result.metrics.nvm_writes_skipped)
            cells[name][f"stale_{tag}"] = float(result.metrics.stale_reads)
    return cells


def inlining_ablation(
    benchmarks: Sequence[str] = ("oskernel", "531.deepsjeng_r", "genome"),
    scale: float = 0.5,
    threshold: int = 256,
    workers: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Full Capri vs full Capri + small-function inlining (extension)."""
    configs = {
        "full": OptConfig.licm(threshold),
        "+inlining": OptConfig.inlined(threshold),
    }
    return normalized(run_grid(grid(benchmarks, configs, scale), workers))


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
    return normalized(run_grid(specs, workers))


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


def render_ablation(name: str, scale: float = 0.5, workers: int = 0) -> str:
    """Run one ablation of :data:`_ABLATIONS` and render its table."""
    fn, title = _ABLATIONS[name]
    cells = fn(scale=scale, workers=workers)
    columns: List[str] = list(next(iter(cells.values())).keys())
    return format_table(title, list(cells), columns, cells)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro ablations")
    parser.add_argument("ablation", choices=[*_ABLATIONS, "all"])
    parser.add_argument("--scale", type=scale_arg, default=0.5)
    parser.add_argument("--workers", type=workers_arg, default=0,
                        help="sweep-engine worker processes (0 = serial)")
    args = parser.parse_args(argv)
    names = list(_ABLATIONS) if args.ablation == "all" else [args.ablation]
    for name in names:
        print(render_ablation(name, scale=args.scale, workers=args.workers))
        print()
    return 0

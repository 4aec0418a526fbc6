"""Per-figure reproduction entry points.

Each ``fig*`` function regenerates one evaluation artefact of the paper,
printing the same rows/series the paper plots:

========  ================================================================
fig8      normalised execution cycles at store thresholds 32…1024
fig9      normalised cycles under the accumulative optimisation ladder
fig10     average dynamic instructions per region, per optimisation
fig11     average dynamic stores (incl. checkpoints) per region
headline  the abstract's 0% / 12.4% / 9.1% per-suite overheads (+5.1%)
naive     async two-phase stores vs. the naive synchronous design ("2x")
========  ================================================================

Run as a module::

    python -m repro figures fig8 --scale 1.0
    python -m repro figures all
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence

from repro.arch.params import PersistMode, SimParams
from repro.compiler import OptConfig, region_means
from repro.eval.harness import EvalHarness
from repro.eval.report import add_suite_gmeans, format_table, geomean
from repro.workloads import SUITES, get_workload

#: The threshold series of Figure 8 (the text also discusses 32 and 64).
FIG8_THRESHOLDS = [32, 64, 128, 256, 512, 1024]

#: Benchmark suites plotted in Figures 8-11 (the OS workload is part of
#: the methodology — kernel recompiled — not a plotted suite).
FIGURE_SUITES = {k: v for k, v in SUITES.items() if k != "os"}

ALL_BENCHMARKS = [name for members in FIGURE_SUITES.values() for name in members]


def _harness(scale: float, params: Optional[SimParams] = None) -> EvalHarness:
    return EvalHarness(params=params or SimParams.scaled(), scale=scale)


def _benchmarks(suite: Optional[str]) -> List[str]:
    if suite is None:
        return list(ALL_BENCHMARKS)
    return list(FIGURE_SUITES[suite])


def fig8(
    scale: float = 1.0,
    suite: Optional[str] = None,
    thresholds: Sequence[int] = tuple(FIG8_THRESHOLDS),
    harness: Optional[EvalHarness] = None,
    workers: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Figure 8: normalised cycles vs region store threshold.

    Routed through the :mod:`repro.sweep` engine: ``workers`` fans the
    (benchmark × threshold) grid out across processes, and completed
    cells are memoised in the on-disk result cache.
    """
    h = harness or _harness(scale)
    configs = {str(t): OptConfig.licm(t) for t in thresholds}
    table = h.sweep(_benchmarks(suite), configs, workers=workers)
    return {
        name: {label: r.normalized_cycles for label, r in row.items()}
        for name, row in table.items()
    }


def fig9(
    scale: float = 1.0,
    suite: Optional[str] = None,
    threshold: int = 256,
    harness: Optional[EvalHarness] = None,
    workers: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Figure 9: normalised cycles, accumulative compiler optimisations.

    Routed through the :mod:`repro.sweep` engine (see :func:`fig8`).
    """
    h = harness or _harness(scale)
    table = h.sweep(_benchmarks(suite), OptConfig.ladder(threshold), workers=workers)
    return {
        name: {label: r.normalized_cycles for label, r in row.items()}
        for name, row in table.items()
    }


def _region_stat_figure(
    index: int,
    scale: float,
    suite: Optional[str],
    threshold: int,
    harness: Optional[EvalHarness],
    workers: int,
) -> Dict[str, Dict[str, float]]:
    # Figures 10 and 11 are functions of the counters every Figure 9 cell
    # already holds (see region_means), so they share fig9's sweep.
    h = harness or _harness(scale)
    table = h.sweep(_benchmarks(suite), OptConfig.ladder(threshold), workers=workers)
    cells: Dict[str, Dict[str, float]] = {}
    for name, row in table.items():
        _, spawns = get_workload(name).build(h.scale)
        cells[name] = {
            label: region_means(r.metrics, spawns)[index]
            for label, r in row.items()
        }
    return cells


def fig10(
    scale: float = 1.0,
    suite: Optional[str] = None,
    threshold: int = 256,
    harness: Optional[EvalHarness] = None,
    workers: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Figure 10: average dynamic instructions per region (fig9's cells)."""
    return _region_stat_figure(0, scale, suite, threshold, harness, workers)


def fig11(
    scale: float = 1.0,
    suite: Optional[str] = None,
    threshold: int = 256,
    harness: Optional[EvalHarness] = None,
    workers: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Figure 11: average dynamic stores (incl. checkpoints) per region
    (fig9's cells)."""
    return _region_stat_figure(1, scale, suite, threshold, harness, workers)


def headline(
    scale: float = 1.0,
    threshold: int = 256,
    harness: Optional[EvalHarness] = None,
    workers: int = 0,
) -> Dict[str, float]:
    """The abstract's per-suite overheads at the default threshold.

    Paper: 0% (SPEC CPU2017), 12.4% (STAMP), 9.1% (Splash-3); 5.1% overall.
    """
    h = harness or _harness(scale)
    table = h.sweep(
        ALL_BENCHMARKS, {"capri": OptConfig.licm(threshold)}, workers=workers
    )
    out: Dict[str, float] = {}
    all_norms: List[float] = []
    for suite, members in FIGURE_SUITES.items():
        norms = [table[name]["capri"].normalized_cycles for name in members]
        out[suite] = (geomean(norms) - 1.0) * 100.0
        all_norms.extend(norms)
    out["overall"] = (geomean(all_norms) - 1.0) * 100.0
    return out


def naive_comparison(
    scale: float = 1.0,
    suite: Optional[str] = None,
    threshold: int = 256,
    workers: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Async Capri vs naive synchronous persistence.

    Section 1.4: "a naive approach may slow down the benchmark up to 2x,"
    while Capri's asynchronous two-phase store stays in low single digits.
    """
    names = _benchmarks(suite)
    async_h = _harness(scale)
    sync_h = _harness(
        scale, SimParams.scaled().with_(persist_mode=PersistMode.SYNC)
    )
    capri = async_h.sweep(
        names, {"capri": OptConfig.licm(threshold)}, workers=workers
    )
    naive = sync_h.sweep(
        names, {"naive-sync": OptConfig.ckpt(threshold)}, workers=workers
    )
    return {
        name: {
            "capri": capri[name]["capri"].normalized_cycles,
            "naive-sync": naive[name]["naive-sync"].normalized_cycles,
        }
        for name in names
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

_FIGS = {
    "fig8": (fig8, [str(t) for t in FIG8_THRESHOLDS],
             "Figure 8: normalized execution cycles by store threshold"),
    "fig9": (fig9, list(OptConfig.ladder().keys()),
             "Figure 9: normalized execution cycles by compiler optimization"),
    "fig10": (fig10, list(OptConfig.ladder().keys()),
              "Figure 10: average instructions per region"),
    "fig11": (fig11, list(OptConfig.ladder().keys()),
              "Figure 11: average stores (incl. checkpoints) per region"),
}


def render_figure(
    fig: str,
    scale: float = 1.0,
    suite: Optional[str] = None,
    chart: bool = False,
    workers: int = 0,
) -> str:
    """Run one figure and render its paper-style table (or bar chart)."""
    from repro.eval.report import render_bars

    fn, columns, title = _FIGS[fig]
    cells = fn(scale=scale, suite=suite, workers=workers)
    suites = (
        FIGURE_SUITES if suite is None else {suite: FIGURE_SUITES[suite]}
    )
    rows = add_suite_gmeans(cells, suites, columns)
    fmt = "{:.3f}" if fig in ("fig8", "fig9") else "{:.1f}"
    if chart:
        baseline = 1.0 if fig in ("fig8", "fig9") else 0.0
        return render_bars(title, rows, columns, cells, baseline=baseline, fmt=fmt)
    return format_table(title, rows, columns, cells, fmt=fmt)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro figures",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument(
        "figure",
        choices=[*_FIGS.keys(), "headline", "naive", "all"],
    )
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--suite", choices=list(FIGURE_SUITES), default=None)
    parser.add_argument("--chart", action="store_true",
                        help="render bar charts instead of tables")
    parser.add_argument("--workers", type=int, default=0,
                        help="sweep-engine worker processes (0 = serial)")
    args = parser.parse_args(argv)

    figures = list(_FIGS) if args.figure == "all" else [args.figure]
    if args.figure == "all":
        figures += ["headline", "naive"]

    for fig in figures:
        if fig == "headline":
            over = headline(scale=args.scale, workers=args.workers)
            print("Headline per-suite overheads at threshold 256 "
                  "(paper: cpu2017 0%, stamp 12.4%, splash3 9.1%, overall 5.1%)")
            for suite, pct in over.items():
                print(f"  {suite:10s} {pct:6.1f}%")
        elif fig == "naive":
            cells = naive_comparison(
                scale=args.scale, suite=args.suite, workers=args.workers
            )
            suites = (
                FIGURE_SUITES
                if args.suite is None
                else {args.suite: FIGURE_SUITES[args.suite]}
            )
            rows = add_suite_gmeans(cells, suites, ["capri", "naive-sync"])
            print(format_table(
                "Capri (async) vs naive synchronous persistence "
                "(paper: naive up to 2x)",
                rows, ["capri", "naive-sync"], cells,
            ))
        else:
            print(render_figure(
                fig, scale=args.scale, suite=args.suite, chart=args.chart,
                workers=args.workers,
            ))
        print()
    return 0

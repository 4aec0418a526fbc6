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

Each figure builds a labelled :class:`~repro.api.RunSpec` grid
(:func:`grid`), sweeps it with its volatile baselines through the
:mod:`repro.sweep` engine (:func:`run_grid`) and reads its cells from
:meth:`SweepReport.table() <repro.sweep.engine.SweepReport.table>`.
:func:`render_figure` is the one renderer of each table, shared by this
CLI and ``repro report``.

Run as a module::

    python -m repro figures fig8 --scale 1.0
    python -m repro figures all
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Mapping, Optional, Sequence

from repro.api import RunResult, RunSpec
from repro.arch.params import PersistMode, SimParams
from repro.compiler import OptConfig, region_means
from repro.eval.report import add_suite_gmeans, format_table, geomean, render_bars
from repro.jsonout import scale_arg, workers_arg
from repro.workloads import SUITES, get_workload

#: The threshold series of Figure 8 (the text also discusses 32 and 64).
FIG8_THRESHOLDS = [32, 64, 128, 256, 512, 1024]

#: Benchmark suites plotted in Figures 8-11 (the OS workload is part of
#: the methodology — kernel recompiled — not a plotted suite).
FIGURE_SUITES = {k: v for k, v in SUITES.items() if k != "os"}

ALL_BENCHMARKS = [name for members in FIGURE_SUITES.values() for name in members]

Table = Dict[str, Dict[str, RunResult]]
Cells = Dict[str, Dict[str, float]]


def grid(
    names: Sequence[str],
    configs: Mapping[str, OptConfig],
    scale: float,
    params: Optional[SimParams] = None,
) -> List[RunSpec]:
    """One spec per benchmark × labelled config (Section 6.1's matrix)."""
    return [
        RunSpec(workload=name, scale=scale, config=config, params=params,
                label=label)
        for name in names
        for label, config in configs.items()
    ]


def run_grid(specs: Sequence[RunSpec], workers: int = 0) -> Table:
    """Sweep ``specs`` and their volatile baselines through the engine.

    ``workers`` fans the grid out across processes; completed cells are
    memoised in the default on-disk result cache.  Returns
    :meth:`SweepReport.table() <repro.sweep.engine.SweepReport.table>`,
    which raises :class:`~repro.sweep.engine.SweepError` on any failure.
    """
    from repro.sweep.engine import run_specs

    return run_specs(specs, workers=workers, cache="default").table()


def normalized(table: Table) -> Cells:
    """Each cell's cycles normalised to its volatile baseline."""
    return {
        name: {label: r.normalized_cycles for label, r in row.items()}
        for name, row in table.items()
    }


def _benchmarks(suite: Optional[str]) -> List[str]:
    if suite is None:
        return list(ALL_BENCHMARKS)
    return list(FIGURE_SUITES[suite])


def _suites(suite: Optional[str]) -> Dict[str, List[str]]:
    return FIGURE_SUITES if suite is None else {suite: FIGURE_SUITES[suite]}


def fig8(
    scale: float = 1.0,
    suite: Optional[str] = None,
    thresholds: Sequence[int] = tuple(FIG8_THRESHOLDS),
    workers: int = 0,
) -> Cells:
    """Figure 8: normalised cycles vs region store threshold."""
    configs = {str(t): OptConfig.licm(t) for t in thresholds}
    return normalized(run_grid(grid(_benchmarks(suite), configs, scale), workers))


def fig9(
    scale: float = 1.0,
    suite: Optional[str] = None,
    threshold: int = 256,
    workers: int = 0,
) -> Cells:
    """Figure 9: normalised cycles, accumulative compiler optimisations."""
    specs = grid(_benchmarks(suite), OptConfig.ladder(threshold), scale)
    return normalized(run_grid(specs, workers))


def _region_stat_figure(
    index: int,
    scale: float,
    suite: Optional[str],
    threshold: int,
    workers: int,
) -> Cells:
    # Figures 10 and 11 are functions of the counters every Figure 9 cell
    # already holds (see region_means), so they share fig9's sweep.
    specs = grid(_benchmarks(suite), OptConfig.ladder(threshold), scale)
    cells: Cells = {}
    for name, row in run_grid(specs, workers).items():
        _, spawns = get_workload(name).build(scale)
        cells[name] = {
            label: region_means(r.metrics, spawns)[index]
            for label, r in row.items()
        }
    return cells


def fig10(
    scale: float = 1.0,
    suite: Optional[str] = None,
    threshold: int = 256,
    workers: int = 0,
) -> Cells:
    """Figure 10: average dynamic instructions per region (fig9's cells)."""
    return _region_stat_figure(0, scale, suite, threshold, workers)


def fig11(
    scale: float = 1.0,
    suite: Optional[str] = None,
    threshold: int = 256,
    workers: int = 0,
) -> Cells:
    """Figure 11: average dynamic stores (incl. checkpoints) per region
    (fig9's cells)."""
    return _region_stat_figure(1, scale, suite, threshold, workers)


def headline(
    scale: float = 1.0,
    threshold: int = 256,
    workers: int = 0,
) -> Dict[str, float]:
    """The abstract's per-suite overheads at the default threshold.

    Paper: 0% (SPEC CPU2017), 12.4% (STAMP), 9.1% (Splash-3); 5.1% overall.
    """
    specs = grid(ALL_BENCHMARKS, {"capri": OptConfig.licm(threshold)}, scale)
    cells = normalized(run_grid(specs, workers))
    out: Dict[str, float] = {}
    all_norms: List[float] = []
    for suite, members in FIGURE_SUITES.items():
        norms = [cells[name]["capri"] for name in members]
        out[suite] = (geomean(norms) - 1.0) * 100.0
        all_norms.extend(norms)
    out["overall"] = (geomean(all_norms) - 1.0) * 100.0
    return out


def naive_comparison(
    scale: float = 1.0,
    suite: Optional[str] = None,
    threshold: int = 256,
    workers: int = 0,
) -> Cells:
    """Async Capri vs naive synchronous persistence.

    Section 1.4: "a naive approach may slow down the benchmark up to 2x,"
    while Capri's asynchronous two-phase store stays in low single digits.
    """
    names = _benchmarks(suite)
    sync = SimParams.scaled().with_(persist_mode=PersistMode.SYNC)
    specs = [
        *grid(names, {"capri": OptConfig.licm(threshold)}, scale),
        *grid(names, {"naive-sync": OptConfig.ckpt(threshold)}, scale, sync),
    ]
    return normalized(run_grid(specs, workers))


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
    """Run one figure and render it as ``repro figures`` prints it.

    ``fig`` is a key of :data:`_FIGS`, ``"headline"`` or ``"naive"``;
    ``chart`` draws Figures 8–11 as bars instead of tables.
    """
    if fig == "headline":
        over = headline(scale=scale, workers=workers)
        lines = ["Headline per-suite overheads at threshold 256 "
                 "(paper: cpu2017 0%, stamp 12.4%, splash3 9.1%, overall 5.1%)"]
        lines += [f"  {name:10s} {pct:6.1f}%" for name, pct in over.items()]
        return "\n".join(lines)
    if fig == "naive":
        cells = naive_comparison(scale=scale, suite=suite, workers=workers)
        columns = ["capri", "naive-sync"]
        rows = add_suite_gmeans(cells, _suites(suite), columns)
        return format_table(
            "Capri (async) vs naive synchronous persistence "
            "(paper: naive up to 2x)",
            rows, columns, cells,
        )
    fn, columns, title = _FIGS[fig]
    cells = fn(scale=scale, suite=suite, workers=workers)
    rows = add_suite_gmeans(cells, _suites(suite), columns)
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
    parser.add_argument("--scale", type=scale_arg, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--suite", choices=list(FIGURE_SUITES), default=None)
    parser.add_argument("--chart", action="store_true",
                        help="render bar charts instead of tables")
    parser.add_argument("--workers", type=workers_arg, default=0,
                        help="sweep-engine worker processes (0 = serial)")
    args = parser.parse_args(argv)

    figures = list(_FIGS) if args.figure == "all" else [args.figure]
    if args.figure == "all":
        figures += ["headline", "naive"]

    for fig in figures:
        print(render_figure(
            fig, scale=args.scale, suite=args.suite, chart=args.chart,
            workers=args.workers,
        ))
        print()
    return 0

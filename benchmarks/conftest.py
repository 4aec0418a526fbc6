"""Shared fixtures for the figure-regeneration benchmarks.

Benchmarks run the same spec grids and sweep engine as ``python -m repro
figures`` at a reduced workload scale so the whole suite finishes in minutes.  Every
benchmark also *asserts the paper's qualitative shape* (who wins, which
direction the trend goes), so a regression in the reproduction fails the
bench run rather than silently producing different tables.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import pytest

from repro.api import RunResult
from repro.arch.params import SimParams
from repro.compiler import OptConfig
from repro.eval.figures import grid
from repro.sweep import run_specs

#: Workload scale for benchmark runs (full tables use 1.0 via the CLI).
BENCH_SCALE = 0.4

#: One representative per suite keeps per-figure benches fast while still
#: spanning single-threaded, sequential-STAMP and multi-threaded shapes.
REPRESENTATIVES = ["508.namd_r", "ssca2", "volrend"]


@pytest.fixture(scope="session", autouse=True)
def _isolated_sweep_cache(tmp_path_factory):
    """Keep figure sweeps (which memoise on disk) out of results/."""
    import os

    from repro.sweep.cache import CACHE_DIR_ENV

    previous = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(tmp_path_factory.mktemp("sweep-cache"))
    yield
    if previous is None:
        os.environ.pop(CACHE_DIR_ENV, None)
    else:
        os.environ[CACHE_DIR_ENV] = previous


def sweep_row(
    name: str,
    configs: Mapping[str, OptConfig],
    params: Optional[SimParams] = None,
) -> Dict[str, RunResult]:
    """``name``'s ``{label: RunResult}`` row at :data:`BENCH_SCALE`;
    volatile baselines come from the session's result cache after their
    first run."""
    specs = grid([name], configs, BENCH_SCALE, params)
    return run_specs(specs, cache="default").table()[name]

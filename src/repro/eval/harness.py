"""Benchmark execution harness.

One :class:`EvalHarness` owns the methodology of Section 6.1 translated to
our substrate: every benchmark runs uninstrumented once per parameter set
(the volatile baseline) and instrumented once per (config, threshold);
results are normalised execution cycles plus compiler/persistence
statistics.  The paper's convention of *excluding* boundary and
checkpoint instructions from the instruction budget is honoured by
normalising cycles rather than instruction counts.

The harness holds the run settings (params, scale, quantum, checker) and
turns them into :class:`~repro.api.RunSpec`\\ s (:meth:`EvalHarness.spec`).
Every simulation goes through :meth:`EvalHarness.sweep`, which delegates
to the :mod:`repro.sweep` engine: deduplicated baselines, configurable
worker pool, on-disk memoisation keyed by spec fingerprint (so mutating
``scale``/``params``/``quantum`` on a live harness gets fresh baselines,
never a stale hit), structured progress.  Crash-consistency campaigns go
through :func:`repro.fault.campaign.run_workload_campaign`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Union

from repro.api import RunResult, RunSpec
from repro.arch.params import SimParams
from repro.compiler import OptConfig


class EvalHarness:
    """Builds run specs for benchmarks and sweeps them."""

    def __init__(
        self,
        params: Optional[SimParams] = None,
        scale: float = 1.0,
        quantum: int = 32,
        check: bool = False,
    ) -> None:
        self.params = params or SimParams.scaled()
        self.scale = scale
        self.quantum = quantum
        #: run every instrumented simulation under the online persistency
        #: checker (:mod:`repro.check`); violations fail the spec.
        #: Volatile baselines are never checked (nothing persistent to
        #: check).
        self.check = check
        #: the engine report from the most recent :meth:`sweep` call.
        self.last_sweep_report = None

    # -- specs --------------------------------------------------------------

    def spec(
        self, name: str, config: Optional[OptConfig] = None, label: str = ""
    ) -> RunSpec:
        """A :class:`RunSpec` for ``name`` under this harness's settings."""
        spec = RunSpec(
            workload=name,
            scale=self.scale,
            config=config if config is not None else OptConfig.licm(),
            params=self.params,
            quantum=self.quantum,
            label=label,
        )
        if self.check and spec.effective_persistence:
            spec = spec.with_(check=True)
        return spec

    # -- sweeps ------------------------------------------------------------

    def sweep(
        self,
        names: Sequence[str],
        configs: Mapping[str, OptConfig],
        workers: int = 0,
        cache: Union[str, None, bool, object] = "default",
        progress=None,
        strict: bool = True,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Dict[str, RunResult]]:
        """Run ``names`` × ``configs`` through the sweep engine.

        ``configs`` maps display label -> :class:`OptConfig`.  ``workers=0``
        is serial in-process; ``workers=N`` fans out over N processes.
        ``cache="default"`` memoises on disk under
        :func:`repro.sweep.cache.default_cache_dir` (``REPRO_CACHE_DIR``
        overrides); pass ``None`` to disable.  Returns ``{name: {label:
        RunResult}}``, each result carrying its baseline cycles; the
        engine's :class:`~repro.sweep.engine.SweepReport` (per-spec
        status, including why each spec re-ran, wall-clock, cache
        counters) lands on :attr:`last_sweep_report`.
        """
        from repro.sweep.engine import SweepError, run_specs

        specs = [
            self.spec(name, config, label=label)
            for name in names
            for label, config in configs.items()
        ]
        report = run_specs(
            specs,
            workers=workers,
            cache=cache,
            progress=progress,
            timeout_s=timeout_s,
        )
        self.last_sweep_report = report
        if strict and not report.ok:
            raise SweepError(report)

        table: Dict[str, Dict[str, RunResult]] = {}
        for spec, result in zip(specs, report.results):
            if result is not None:
                table.setdefault(spec.workload, {})[spec.label] = result
        return table

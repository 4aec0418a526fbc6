"""Benchmark execution harness.

One :class:`EvalHarness` owns the methodology of Section 6.1 translated to
our substrate: every benchmark runs uninstrumented once per parameter set
(the volatile baseline) and instrumented once per (config, threshold);
results are normalised execution cycles plus compiler/persistence
statistics.  Baselines are cached *by RunSpec fingerprint* — mutating
``scale``/``params``/``quantum`` on a live harness gets fresh baselines,
never a stale name-keyed hit — and the paper's convention of *excluding*
boundary and checkpoint instructions from the instruction budget is
honoured by normalising cycles rather than instruction counts.

Cross-product runs go through :meth:`EvalHarness.sweep`, which delegates
to the :mod:`repro.sweep` engine: configurable worker pool, on-disk
memoisation of completed runs, structured progress.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Sequence, Union

from repro.api import RunResult, RunSpec
from repro.arch.params import SimParams
from repro.arch.system import SystemMetrics, run_workload
from repro.compiler import CapriCompiler, OptConfig
from repro.compiler.stats import RegionDynStats, RegionStatsObserver
from repro.isa.machine import Machine
from repro.workloads import Workload, get_workload


@dataclass
class BenchmarkResult:
    """One benchmark x configuration measurement."""

    name: str
    suite: str
    config_label: str
    threshold: int
    metrics: SystemMetrics
    baseline_cycles: float
    region_stats: Optional[RegionDynStats] = None

    @property
    def normalized_cycles(self) -> float:
        """Execution cycles relative to the volatile baseline (Figures 8/9)."""
        return self.metrics.exec_cycles / self.baseline_cycles

    @property
    def overhead_pct(self) -> float:
        return (self.normalized_cycles - 1.0) * 100.0


class EvalHarness:
    """Runs benchmarks at configurations, caching volatile baselines."""

    def __init__(
        self,
        params: Optional[SimParams] = None,
        scale: float = 1.0,
        quantum: int = 32,
        check: bool = False,
        trace: bool = False,
    ) -> None:
        self.params = params or SimParams.scaled()
        self.scale = scale
        self.quantum = quantum
        #: run every instrumented simulation under the online persistency
        #: checker (:mod:`repro.check`); violations raise out of
        #: :meth:`run`/:meth:`run_spec`.  Volatile baselines are never
        #: checked (nothing persistent to check).
        self.check = check
        #: drive instrumented runs from captured columnar traces
        #: (:mod:`repro.trace`): the functional event stream is recorded
        #: once per (workload, config) and the architecture layers are
        #: replayed per parameter point.  (Fault campaigns always replay.)
        self.trace = trace
        #: baseline fingerprint -> volatile exec cycles.
        self._baseline_cache: Dict[str, float] = {}
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
        if self.trace and spec.effective_persistence:
            spec = spec.with_(trace=True)
        if self.check and spec.effective_persistence:
            spec = spec.with_(check=True)
        return spec

    # -- baseline -----------------------------------------------------------

    def baseline_cycles(self, name: str) -> float:
        """Volatile (uninstrumented, no persistence) execution cycles.

        Keyed by the baseline spec's fingerprint, so the cache survives —
        correctly — mutation of ``scale``/``params``/``quantum`` between
        calls (each combination gets its own entry).
        """
        spec = self.spec(name).baseline()
        key = spec.fingerprint()
        cached = self._baseline_cache.get(key)
        if cached is not None:
            return cached
        workload = get_workload(name)
        module, spawns = workload.build(self.scale)
        metrics, _ = run_workload(
            module,
            spawns,
            params=self.params,
            persistence=False,
            quantum=self.quantum,
        )
        self._baseline_cache[key] = metrics.exec_cycles
        return metrics.exec_cycles

    # -- instrumented runs ------------------------------------------------------

    def run(
        self,
        name: str,
        config: OptConfig,
        config_label: str = "",
        collect_region_stats: bool = False,
    ) -> BenchmarkResult:
        """Compile with ``config`` and simulate under the Capri system."""
        workload = get_workload(name)
        module, spawns = workload.build(self.scale)
        compiled = CapriCompiler(config).compile(module).module

        region_stats: Optional[RegionDynStats] = None
        if collect_region_stats and config.instrumented:
            # Dedicated functional pass for region statistics (cheap).
            obs = RegionStatsObserver()
            machine = Machine(compiled, quantum=self.quantum)
            for func_name, args in spawns:
                machine.spawn(func_name, args)
            machine.run(obs)
            region_stats = obs.stats

        metrics, _ = run_workload(
            compiled,
            spawns,
            params=self.params,
            threshold=config.threshold,
            persistence=config.instrumented,
            quantum=self.quantum,
            check=self.check and config.instrumented,
        )
        return BenchmarkResult(
            name=name,
            suite=workload.suite,
            config_label=config_label or repr(config),
            threshold=config.threshold,
            metrics=metrics,
            baseline_cycles=self.baseline_cycles(name),
            region_stats=region_stats,
        )

    def run_spec(self, spec: RunSpec) -> RunResult:
        """Execute one :class:`RunSpec` (the new-API twin of :meth:`run`).

        The result carries baseline cycles from this harness's
        fingerprint-keyed cache, so ``normalized_cycles`` works.
        """
        from repro.api import execute_spec

        result = execute_spec(spec)
        base = spec.baseline()
        key = base.fingerprint()
        if key not in self._baseline_cache:
            if spec.effective_persistence:
                self._baseline_cache[key] = execute_spec(base).metrics.exec_cycles
            else:
                self._baseline_cache[key] = result.metrics.exec_cycles
        result.baseline_cycles = self._baseline_cache[key]
        return result

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
        since: Optional[str] = None,
    ) -> Dict[str, Dict[str, BenchmarkResult]]:
        """Run ``names`` × ``configs`` through the sweep engine.

        ``configs`` maps display label -> :class:`OptConfig`.  ``workers=0``
        is serial in-process; ``workers=N`` fans out over N processes.
        ``cache="default"`` memoises on disk under
        :func:`repro.sweep.cache.default_cache_dir` (``REPRO_CACHE_DIR``
        overrides); pass ``None`` to disable.  ``since`` (a git rev)
        additionally produces the delta report — which subsystems changed
        since that revision and which figures moved — on
        ``last_sweep_report.delta``.  Returns
        ``{name: {label: BenchmarkResult}}``; the engine's
        :class:`~repro.sweep.engine.SweepReport` (per-spec status,
        wall-clock, cache counters) lands on :attr:`last_sweep_report`.
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
            since=since,
        )
        self.last_sweep_report = report
        if strict and not report.ok:
            raise SweepError(report)

        table: Dict[str, Dict[str, BenchmarkResult]] = {}
        for spec, result in zip(specs, report.results):
            if result is None:
                continue
            table.setdefault(spec.workload, {})[spec.label] = BenchmarkResult(
                name=spec.workload,
                suite=get_workload(spec.workload).suite,
                config_label=spec.label,
                threshold=spec.effective_threshold,
                metrics=result.metrics,
                baseline_cycles=result.baseline_cycles,
            )
            # Share the engine's baselines with the serial path.
            key = spec.baseline().fingerprint()
            if result.baseline_cycles is not None:
                self._baseline_cache.setdefault(key, result.baseline_cycles)
        return table

    # -- robustness ---------------------------------------------------------

    def fault_campaign(self, name: str, campaign_config=None):
        """Run a crash-consistency fault-injection campaign on a benchmark.

        Compiles ``name`` the same way :meth:`run` does and sweeps crash
        points under :mod:`repro.fault` with this harness's parameters
        (``campaign_config`` itself is left untouched); returns a
        :class:`~repro.fault.campaign.CampaignResult`.  A
        ``campaign_config`` with ``depth`` > 1 also injects crash chains
        into recovery itself (:func:`repro.fault.campaign.run_crash_point`).
        """
        from repro.fault.campaign import CampaignConfig, run_workload_campaign

        cc = campaign_config or CampaignConfig()
        cc = replace(
            cc,
            params=cc.params or self.params,
            quantum=self.quantum,
            check=cc.check or self.check,
        )
        return run_workload_campaign(name, cc, scale=self.scale)

"""The parallel sweep engine.

Takes a list of :class:`~repro.api.RunSpec`, schedules them
*topologically* — the deduplicated volatile baselines run first, then the
instrumented runs that normalise against them — fans each wave out across
a ``multiprocessing`` pool, and memoises every completed simulation in a
:class:`~repro.sweep.cache.ResultCache` keyed by the spec fingerprint.

Within one call, specs that compile to the same program share one
simulation: every spec is still built and compiled, then looked up in a
:data:`~repro.api.SimulationMemo` (one per call when serial, one per
worker process when parallel) before it is simulated.  Figure 8's
thresholds above 256 mostly compile to the 256 program, and the region
threshold reaches the hardware only as the back-end capacity, so the
rule in :meth:`~repro.api.MemoRun.serves` decides when the earlier run's
metrics are exactly this spec's.

Degradation contract: a worker exception (unknown workload, compiler
bug) marks *that spec* failed with the captured traceback and
the sweep continues; an instrumented spec whose baseline failed is marked
failed without being run.  Parallel results are bit-identical to serial
ones — both paths round-trip metrics through the same JSON-able dict
(Python floats survive that exactly), and the simulator itself is
deterministic.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.api import (
    RunResult,
    RunSpec,
    SimulationMemo,
    execute_spec,
    metrics_from_dict,
    metrics_to_dict,
)
from repro.deps import deps_token
from repro.sweep.cache import ResultCache, resolve_cache

#: Per-spec status values, in lifecycle order.
PENDING, RUNNING, CACHED, OK, FAILED = "pending", "running", "cached", "ok", "failed"

ProgressFn = Callable[["SpecStatus"], None]


@dataclass
class SpecStatus:
    """Structured progress for one scheduled spec (baselines included).

    The one per-spec record of a sweep: besides its lifecycle state it
    says why the spec ran.  A spec whose cache entry went stale carries
    the subsystems that invalidated it and the entry's old
    ``exec_cycles``; an ``ok`` status with stale subsystems is a
    re-simulation.
    """

    spec: RunSpec
    fingerprint: str
    role: str = "run"  # "run" (an input spec) or "baseline" (derived)
    state: str = PENDING
    wall_s: float = 0.0
    error: str = ""
    #: served by an earlier run of the same program this call.
    shared: bool = False
    #: subsystems whose edit made the cached entry stale.
    stale_subsystems: List[str] = field(default_factory=list)
    #: the stale entry's ``exec_cycles``.
    old_exec_cycles: Optional[float] = None
    #: this call's ``exec_cycles`` (``None`` when the spec failed).
    new_exec_cycles: Optional[float] = None

    @property
    def resimulated(self) -> bool:
        return self.state == OK and bool(self.stale_subsystems)

    @property
    def moved(self) -> bool:
        """A re-simulation whose cycles differ from the stale entry's."""
        return (
            self.resimulated
            and self.old_exec_cycles is not None
            and self.old_exec_cycles != self.new_exec_cycles
        )

    def line(self) -> str:
        tag = "(baseline)" if self.role == "baseline" else ""
        if self.shared:
            tag = f"{tag} (shared)"
        if self.resimulated:
            tag = f"{tag} (stale: {','.join(self.stale_subsystems)})"
        tag = tag.lstrip()
        out = f"{self.state:>7}  {self.spec.describe():<40} {self.wall_s:7.2f}s {tag}"
        return out.rstrip()

    def to_dict(self) -> Dict:
        return {
            "spec": self.spec.describe(),
            "label": self.spec.label,
            "fingerprint": self.fingerprint,
            "role": self.role,
            "state": self.state,
            "shared": self.shared,
            "stale_subsystems": list(self.stale_subsystems),
            "old_exec_cycles": self.old_exec_cycles,
            "new_exec_cycles": self.new_exec_cycles,
        }


@dataclass
class SweepReport:
    """Everything one engine invocation produced."""

    statuses: List[SpecStatus] = field(default_factory=list)
    #: Results aligned with the *input* spec list (``None`` for failures).
    results: List[Optional[RunResult]] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    #: specs run this call, shared ones included.
    simulations: int = 0
    #: of ``simulations``, those served by an earlier run of the same
    #: program (:func:`~repro.api.execute_spec`'s ``memo``).
    shared: int = 0
    failures: int = 0
    wall_s: float = 0.0
    workers: int = 0

    @property
    def ok(self) -> bool:
        return self.failures == 0

    @property
    def hit_rate(self) -> float:
        looked = self.cache_hits + self.cache_misses
        return self.cache_hits / looked if looked else 0.0

    def failed_statuses(self) -> List[SpecStatus]:
        return [s for s in self.statuses if s.state == FAILED]

    def table(self) -> Dict[str, Dict[str, RunResult]]:
        """The results as ``{workload: {label: RunResult}}``.

        Every figure and ablation grid reads its cells from here.
        Raises :class:`SweepError` if any spec failed: a table never has
        silent holes.
        """
        if not self.ok:
            raise SweepError(self)
        table: Dict[str, Dict[str, RunResult]] = {}
        for result in self.results:
            table.setdefault(result.spec.workload, {})[result.spec.label] = result
        return table

    def summary(self) -> str:
        lines = [
            f"sweep: {len(self.results)} specs "
            f"({sum(1 for s in self.statuses if s.role == 'baseline')} baselines)  "
            f"workers={self.workers}  wall={self.wall_s:.2f}s",
            f"  cache: {self.cache_hits} hits / {self.cache_misses} misses "
            f"({100.0 * self.hit_rate:.0f}% hit rate)  "
            f"simulations: {self.simulations} ({self.shared} shared)  "
            f"failures: {self.failures}",
        ]
        for status in self.failed_statuses():
            first = status.error.strip().splitlines()
            lines.append(
                f"  FAILED {status.spec.describe()}: "
                f"{first[-1] if first else 'unknown error'}"
            )
        rerun = [s for s in self.statuses if s.resimulated]
        if rerun:
            stale = sorted({name for s in rerun for name in s.stale_subsystems})
            lines.append(
                f"  re-simulated {len(rerun)} stale entries "
                f"({', '.join(stale)})"
            )
        moved = [s for s in rerun if s.moved]
        for status in moved:
            lines.append(
                f"  CHANGED {status.spec.describe():<40} "
                f"{status.old_exec_cycles:.0f} -> "
                f"{status.new_exec_cycles:.0f} cycles  "
                f"({','.join(status.stale_subsystems)})"
            )
        if not moved and self.ok:
            lines.append("  figures unchanged")
        return "\n".join(lines)


class SweepError(RuntimeError):
    """Raised by :meth:`SweepReport.table` when a sweep has failures."""

    def __init__(self, report: SweepReport) -> None:
        failed = report.failed_statuses()
        detail = "; ".join(
            f"{s.spec.describe()}: {s.error.strip().splitlines()[-1]}"
            for s in failed[:4]
            if s.error.strip()
        )
        super().__init__(
            f"{len(failed)} of {len(report.statuses)} sweep specs failed"
            + (f" — {detail}" if detail else "")
        )
        self.report = report


# ---------------------------------------------------------------------------
# worker
# ---------------------------------------------------------------------------

#: A pool worker's simulation memo, fresh in each worker process.
_worker_memo: Optional[SimulationMemo] = None


def _start_worker() -> None:
    global _worker_memo
    _worker_memo = {}


def _worker(
    job: Tuple[str, RunSpec],
    memo: Optional[SimulationMemo] = None,
):
    """Run one spec; always returns, never raises (pool stays healthy).

    Returns ``(fingerprint, state, metrics_dict | None, deps, wall_s,
    error, shared)`` where ``deps`` is the spec's subsystem tuple.
    Metrics travel as plain dicts so the parent rebuilds them through
    the exact same code path a cache hit uses — that is what makes
    parallel, serial and warm runs bit-identical.  ``memo`` defaults to
    the pool worker's own.
    """
    fingerprint, spec = job
    start = time.perf_counter()
    try:
        result = execute_spec(spec, memo if memo is not None else _worker_memo)
        return (
            fingerprint,
            OK,
            metrics_to_dict(result.metrics),
            list(result.deps),
            time.perf_counter() - start,
            "",
            result.shared,
        )
    except BaseException:
        return (
            fingerprint,
            FAILED,
            None,
            [],
            time.perf_counter() - start,
            traceback.format_exc(),
            False,
        )


#: The most worker processes a sweep will start: ``run_specs`` and every
#: CLI's ``--workers`` refuse more before any pool exists.
MAX_WORKERS = 64


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

def run_specs(
    specs: Sequence[RunSpec],
    workers: int = 0,
    cache: Union[ResultCache, str, None, bool] = None,
    progress: Optional[ProgressFn] = None,
) -> SweepReport:
    """Execute ``specs`` (plus their derived baselines) and report.

    ``workers=0`` (or 1) runs serially in-process; ``workers=N`` fans out
    over an ``N``-process pool.  Any other value — below 0, above
    :data:`MAX_WORKERS`, or not an integer — raises :class:`ValueError`
    before anything runs.  ``cache`` accepts anything
    :func:`~repro.sweep.cache.resolve_cache` does; ``None`` disables disk
    memoisation (completed runs are still deduplicated within the call).

    Every status says why its spec ran: a miss on a dependency-stale
    cache entry copies the entry's stale subsystems and old
    ``exec_cycles`` from :attr:`ResultCache.stale_log
    <repro.sweep.cache.ResultCache.stale_log>` onto the spec's
    :class:`SpecStatus`.
    """
    if not (isinstance(workers, int) and 0 <= workers <= MAX_WORKERS):
        raise ValueError(
            f"workers must be an integer from 0 to {MAX_WORKERS}, "
            f"got {workers!r}"
        )
    started = time.perf_counter()
    store = resolve_cache(cache)
    report = SweepReport(workers=workers)
    fps = [spec.fingerprint() for spec in specs]

    # Wave 0: deduplicated baselines (incl. input specs that *are* volatile
    # baselines of themselves); wave 1: the instrumented remainder.
    wave0: Dict[str, SpecStatus] = {}
    wave1: Dict[str, SpecStatus] = {}
    baseline_fp: List[Optional[str]] = []
    for spec, fp in zip(specs, fps):
        if spec.effective_persistence:
            base = spec.baseline()
            bfp = base.fingerprint()
            baseline_fp.append(bfp)
            if bfp not in wave0:
                wave0[bfp] = SpecStatus(base, bfp, role="baseline")
            if fp not in wave1:
                wave1[fp] = SpecStatus(spec, fp)
        else:
            baseline_fp.append(None)
            if fp not in wave0:
                wave0[fp] = SpecStatus(spec, fp)
    # An input spec may coincide with a derived baseline: promote its role.
    for fp in fps:
        if fp in wave0:
            wave0[fp].role = "run"
    report.statuses = [*wave0.values(), *wave1.values()]

    completed: Dict[str, Dict] = {}  # fingerprint -> metrics dict
    memo: SimulationMemo = {}  # the serial path's; workers keep their own

    def finish(status: SpecStatus) -> None:
        if status.state == FAILED:
            report.failures += 1
        else:
            status.new_exec_cycles = completed[status.fingerprint].get(
                "exec_cycles"
            )
        if progress is not None:
            progress(status)

    def run_wave(wave: Dict[str, SpecStatus]) -> None:
        todo: List[Tuple[str, RunSpec]] = []
        for fp, status in wave.items():
            if fp in completed:  # already produced this call
                status.state = CACHED
                finish(status)
                continue
            payload = store.get(fp) if store is not None else None
            if payload is not None and isinstance(payload.get("metrics"), dict):
                report.cache_hits += 1
                completed[fp] = payload["metrics"]
                status.state = CACHED
                finish(status)
                continue
            if store is not None:
                report.cache_misses += 1
                stale = store.stale_log.get(fp)
                if stale is not None:
                    status.stale_subsystems = list(stale["subsystems"])
                    old = stale["metrics"]
                    if isinstance(old, dict):
                        status.old_exec_cycles = old.get("exec_cycles")
            # A spec whose baseline already failed cannot be normalised;
            # mark it failed without burning a worker on it.
            base_fp = (
                status.spec.baseline().fingerprint()
                if status.spec.effective_persistence and status.role == "run"
                else None
            )
            if base_fp is not None and wave0.get(base_fp, None) is not None:
                if wave0[base_fp].state == FAILED:
                    status.state = FAILED
                    status.error = (
                        "baseline run failed:\n" + wave0[base_fp].error
                    )
                    finish(status)
                    continue
            status.state = RUNNING
            todo.append((fp, status.spec))

        if not todo:
            return
        outcomes = []
        if workers > 1:
            ctx = _pool_context()
            pool = ctx.Pool(processes=workers, initializer=_start_worker)
            try:
                for outcome in pool.imap_unordered(_worker, todo, chunksize=1):
                    outcomes.append(outcome)
            except Exception as err:  # broken pool: fail what never returned
                seen = {fp for fp, *_ in outcomes}
                for fp, _ in todo:
                    if fp not in seen:
                        outcomes.append(
                            (fp, FAILED, None, [], 0.0,
                             f"worker pool broke: {err!r}", False)
                        )
            finally:
                pool.terminate()
                pool.join()
        else:
            for job in todo:
                outcomes.append(_worker(job, memo))

        for fp, state, metrics_dict, deps, wall, error, shared in outcomes:
            status = wave[fp]
            status.state = state
            status.wall_s = wall
            status.error = error
            status.shared = shared
            if state == OK:
                report.simulations += 1
                report.shared += shared
                completed[fp] = metrics_dict
                if store is not None:
                    store.put(
                        fp,
                        {
                            "deps": deps_token(deps),
                            "workload": status.spec.workload,
                            "label": status.spec.label,
                            "wall_s": wall,
                            "metrics": metrics_dict,
                        },
                    )
            finish(status)

    run_wave(wave0)
    run_wave(wave1)

    # Assemble per-input results in input order.
    statuses_by_fp = {**wave0, **wave1}
    for spec, fp, bfp in zip(specs, fps, baseline_fp):
        metrics_dict = completed.get(fp)
        if metrics_dict is None:
            report.results.append(None)
            continue
        baseline_cycles = None
        if bfp is not None and bfp in completed:
            baseline_cycles = metrics_from_dict(completed[bfp]).exec_cycles
        elif bfp is None:
            baseline_cycles = metrics_from_dict(metrics_dict).exec_cycles
        report.results.append(
            RunResult(
                spec=spec,
                metrics=metrics_from_dict(metrics_dict),
                fingerprint=fp,
                baseline_cycles=baseline_cycles,
                wall_s=statuses_by_fp[fp].wall_s,
                from_cache=statuses_by_fp[fp].state == CACHED,
            )
        )

    report.wall_s = time.perf_counter() - started
    return report

"""The public run API: one spec in, one result envelope out.

Every runner in the repository — the :mod:`repro.sweep` engine behind the
figures and ablations, the fault campaign, the checker CLI — describes a
simulation by the same frozen :class:`RunSpec` and receives a
:class:`RunResult`.  A spec is *content-addressable*: its
:meth:`RunSpec.fingerprint` hashes every behaviour-affecting parameter,
so two specs with equal fingerprints describe the same simulation and a
completed run can be memoised on disk (:mod:`repro.sweep.cache`).

Code-change invalidation is *dependency-recorded*, not key-embedded
(fingerprint schema 2): :func:`spec_deps` names the subsystems a spec's
run depends on, :func:`execute_spec` reports them
(:attr:`RunResult.deps`), and cache entries store those subsystems'
content hashes and stay valid until one of *them* changes — editing an
eval script no longer cold-starts every simulation.

This module is also the **stable facade**: everything in ``__all__`` is
public API with compatibility expectations; reach into submodules only
for internals (the split is documented in DESIGN.md).
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import hashlib
import json
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.arch.params import SimParams
from repro.arch.system import SystemMetrics, build_system, run_system
from repro.compiler import CapriCompiler, OptConfig
from repro.deps import subsystem_hashes
from repro.ir.module import Module
from repro.ir.printer import format_module

#: Bump when the fingerprint schema itself changes shape.
#: 1: token embedded the whole-tree code hash; dict keys stringified.
#: 2: pure parameter address (code validity moved to per-entry subsystem
#:    deps in the cache); dict keys carry their type (the ``{1: x}`` vs
#:    ``{"1": x}`` aliasing fix).
_FINGERPRINT_SCHEMA = 2

_DEFAULT_MAX_STEPS = 50_000_000


# ---------------------------------------------------------------------------
# canonical serialisation (fingerprints must be stable across processes)
# ---------------------------------------------------------------------------

def _canon(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out: Dict[str, Any] = {"__dataclass__": type(value).__name__}
        for f in dataclasses.fields(value):
            out[f.name] = _canon(getattr(value, f.name))
        return out
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.value]
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, dict):
        # Keys encode their type alongside the value: ``{1: x}`` and
        # ``{"1": x}`` must not canonicalise identically.  Sorting by
        # (type name, stringified key) is total even for mixed-type keys.
        items = sorted(
            ([type(k).__name__, str(k), _canon(v)] for k, v in value.items()),
            key=lambda item: (item[0], item[1]),
        )
        return {"__dict__": items}
    return value


# ---------------------------------------------------------------------------
# RunSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    """One fully-specified simulation: the repository's interchange type.

    ``config`` alone states the region threshold and whether the run is
    instrumented (persistent); ``params`` defaults to
    ``SimParams.scaled()``.  The ``effective_*`` properties read these
    off.  ``label`` is presentational only and excluded from the
    fingerprint.
    """

    workload: str
    scale: float = 1.0
    config: OptConfig = OptConfig.licm()
    params: Optional[SimParams] = None
    quantum: int = 32
    #: Read by no runner, only by :meth:`fingerprint` (kept because the
    #: benchmark's pinned digests are keyed on it).
    seed: Optional[int] = None
    threads: Optional[int] = None
    max_steps: int = _DEFAULT_MAX_STEPS
    #: Run the online persistency checker (:mod:`repro.check`) alongside
    #: the simulation; a model violation raises
    #: :class:`repro.check.PersistencyViolationError` out of
    #: :func:`execute_spec`.  Part of the fingerprint: a checked run
    #: validates extra invariants and must not share cache entries with
    #: an unchecked one.
    check: bool = False
    label: str = ""

    # -- effective (derived) values -----------------------------------------

    @property
    def effective_threshold(self) -> int:
        return self.config.threshold

    @property
    def effective_params(self) -> SimParams:
        return self.params if self.params is not None else SimParams.scaled()

    @property
    def effective_persistence(self) -> bool:
        return self.config.instrumented

    @property
    def effective_config(self) -> OptConfig:
        return self.config

    # -- derived specs -------------------------------------------------------

    def baseline(self) -> "RunSpec":
        """The volatile baseline this spec normalises against.

        Seed and label are zeroed so instrumented specs differing only in
        those share one baseline run.
        """
        return replace(
            self,
            config=OptConfig.volatile(),
            seed=0,
            check=False,  # nothing persistent to check in a volatile run
            label="baseline",
        )

    def with_(self, **kwargs) -> "RunSpec":
        return replace(self, **kwargs)

    # -- identity ------------------------------------------------------------

    def fingerprint(self) -> str:
        """Content address of this run's *parameters*: equal fingerprints
        ⇒ the same simulation is being described.

        Hashes the *effective* values (so ``params=None`` and
        ``params=SimParams.scaled()`` collide, as they must).  Since
        schema 2 the package's code hash is **not** part of the key:
        whether a cached result is still *valid* for this fingerprint is
        decided per entry from its recorded subsystem dependencies
        (:mod:`repro.deps`, checked in :meth:`ResultCache.get
        <repro.sweep.cache.ResultCache.get>`).
        """
        token = {
            "schema": _FINGERPRINT_SCHEMA,
            "workload": self.workload,
            "scale": float(self.scale),
            "config": _canon(self.effective_config),
            "threshold": self.effective_threshold,
            "params": _canon(self.effective_params),
            "quantum": self.quantum,
            "persistence": self.effective_persistence,
            "seed": self.seed,
            "threads": self.threads,
            "max_steps": self.max_steps,
            "check": self.check,
            "trace": False,  # retired replay-mode bit; kept so keys don't move
        }
        blob = json.dumps(token, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def describe(self) -> str:
        """Short human-readable identity for progress lines."""
        bits = [self.workload, f"t{self.effective_threshold}"]
        if not self.effective_persistence:
            bits.append("volatile")
        if self.threads is not None:
            bits.append(f"{self.threads}harts")
        if self.check:
            bits.append("check")
        if self.label:
            bits.append(self.label)
        return ":".join(bits)


# ---------------------------------------------------------------------------
# RunResult
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """Envelope around one completed simulation."""

    spec: RunSpec
    metrics: SystemMetrics
    fingerprint: str = ""
    baseline_cycles: Optional[float] = None
    wall_s: float = 0.0
    from_cache: bool = False
    #: Subsystems this run depends on (sorted, :func:`spec_deps`) — the
    #: dependency set a cache entry stores for precise invalidation.
    #: ``()`` for cache-served results (their validity was already
    #: checked against stored deps).
    deps: Tuple[str, ...] = ()
    #: The metrics are those of an earlier run of the same program in
    #: the same sweep (see :func:`execute_spec`'s ``memo``).
    shared: bool = False

    @property
    def normalized_cycles(self) -> float:
        """Execution cycles relative to the volatile baseline."""
        if self.baseline_cycles is None:
            raise ValueError("no baseline cycles attached to this result")
        return self.metrics.exec_cycles / self.baseline_cycles

    @property
    def overhead_pct(self) -> float:
        return (self.normalized_cycles - 1.0) * 100.0


def metrics_to_dict(metrics: SystemMetrics) -> Dict[str, Any]:
    """JSON-able form of :class:`SystemMetrics` (exact float round-trip)."""
    return dataclasses.asdict(metrics)


def metrics_from_dict(payload: Dict[str, Any]) -> SystemMetrics:
    return SystemMetrics(**payload)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def build_spec(
    spec: RunSpec,
) -> Tuple[Module, List[Tuple[str, Sequence[int]]]]:
    """Build a spec's workload and, when instrumented, compile it.

    Returns ``(module, spawns)``: the program every runner simulates,
    traces or crashes.  Uninstrumented specs skip the compiler entirely
    (the volatile-baseline convention).
    """
    from repro.workloads import get_workload

    module, spawns = get_workload(spec.workload).build(
        spec.scale, threads=spec.threads
    )
    config = spec.effective_config
    if config.instrumented:
        module = CapriCompiler(config).compile(module).module
    return module, spawns


class MemoRun(NamedTuple):
    """One completed simulation in a :data:`SimulationMemo`."""

    #: the back-end proxy capacity it ran with.
    capacity: int
    #: the most entries any core's back end held (0 without persistence).
    peak: int
    metrics: SystemMetrics
    deps: Tuple[str, ...]

    def serves(self, capacity: int) -> bool:
        """Would a run under ``capacity`` take exactly this run's course?

        The region threshold reaches the hardware only as the back-end
        capacity, read only by the pipeline's ``len(be) < be_cap`` test.
        That test gives the same answer under both capacities when they
        are equal, or when the back end never filled (peak below this
        run's capacity) and the other capacity is above the peak too.
        """
        return capacity == self.capacity or self.peak < min(self.capacity, capacity)


#: Completed simulations of one sweep: :func:`simulation_key` -> runs.
SimulationMemo = Dict[str, List[MemoRun]]


def simulation_key(
    spec: RunSpec, module: Module, spawns: Sequence[Tuple[str, Sequence[int]]]
) -> str:
    """Digest of everything the simulator reads of one run, except the
    region threshold (see :meth:`MemoRun.serves`).

    The program is the printed module (every instruction, block label,
    recovery block and each function's ``num_regs``) plus its initial
    data; then come the spawns, the effective parameters, persistence,
    quantum, ``max_steps`` and ``check``.
    """
    token = {
        "spawns": [[name, list(args)] for name, args in spawns],
        "params": _canon(spec.effective_params),
        "persistence": spec.effective_persistence,
        "quantum": spec.quantum,
        "max_steps": spec.max_steps,
        "check": spec.check,
    }
    digest = hashlib.sha256(format_module(module).encode())
    digest.update(b"\0" + repr(sorted(module.initial_data.items())).encode())
    digest.update(b"\0" + json.dumps(token, sort_keys=True).encode())
    return digest.hexdigest()


def spec_deps(spec: RunSpec) -> Tuple[str, ...]:
    """The subsystems a run of ``spec`` depends on, sorted.

    Every run builds a workload (``workloads``) in IR and executes it
    (``core``) on the architecture (``arch``); an instrumented run also
    compiles it (``compiler``), and a checked one attaches the checker
    (``check``).
    """
    deps = ["arch", "core", "workloads"]
    if spec.effective_config.instrumented:
        deps.append("compiler")
    if spec.check:
        deps.append("check")
    return tuple(sorted(deps))


def execute_spec(
    spec: RunSpec, memo: Optional[SimulationMemo] = None
) -> RunResult:
    """Build, (maybe) compile, and simulate one :class:`RunSpec`.

    The single run primitive behind the sweep engine's workers.

    The result's :attr:`~RunResult.deps` is :func:`spec_deps`; the
    sweep engine stores it with the cached metrics so only changes to
    *those* subsystems invalidate the entry.

    ``memo`` holds the simulations already run in one sweep.  The spec
    is still built and compiled; if the memo holds a run of the same
    :func:`simulation_key` that :meth:`~MemoRun.serves` this spec's
    back-end capacity, its metrics come back (``shared``) with the deps
    of both runs, so the cache invalidates on a change to either.
    Otherwise the spec is simulated and, once it succeeds, added to the
    memo.
    """
    start = time.perf_counter()
    params = spec.effective_params
    capacity = params.backend_capacity(spec.effective_threshold)
    earlier = None
    module, spawns = build_spec(spec)
    if memo is not None:
        key = simulation_key(spec, module, spawns)
        earlier = next(
            (run for run in memo.get(key, ()) if run.serves(capacity)), None
        )
    if earlier is None:
        machine, system = build_system(
            module,
            spawns,
            params=params,
            threshold=spec.effective_threshold,
            persistence=spec.effective_persistence,
            quantum=spec.quantum,
        )
        metrics = run_system(
            machine, system, max_steps=spec.max_steps, check=spec.check
        )
    deps = spec_deps(spec)
    if earlier is not None:
        metrics = copy.deepcopy(earlier.metrics)
        deps = tuple(sorted({*deps, *earlier.deps}))
    elif memo is not None:
        peak = system.persist.backend_peak if system.persist is not None else 0
        memo.setdefault(key, []).append(
            MemoRun(capacity, peak, copy.deepcopy(metrics), deps)
        )
    return RunResult(
        spec=spec,
        metrics=metrics,
        fingerprint=spec.fingerprint(),
        wall_s=time.perf_counter() - start,
        deps=deps,
        shared=earlier is not None,
    )


# ---------------------------------------------------------------------------
# stable facade
# ---------------------------------------------------------------------------

#: Re-exports resolved lazily: the sweep package imports this module
#: itself, so eager imports here would cycle.
_LAZY_EXPORTS = {
    "ResultCache": ("repro.sweep.cache", "ResultCache"),
    "resolve_cache": ("repro.sweep.cache", "resolve_cache"),
    "default_cache_dir": ("repro.sweep.cache", "default_cache_dir"),
    "generate_litmus_program": ("repro.litmus.generate", "generate_program"),
    "litmus_corpus": ("repro.litmus.generate", "litmus_corpus"),
    "explore_litmus_program": ("repro.litmus.explore", "explore_program"),
    "run_litmus_program": ("repro.litmus.matrix", "run_litmus_program"),
    "run_litmus_mutants": ("repro.litmus.matrix", "run_litmus_mutants"),
}


def __getattr__(name: str) -> Any:
    target = _LAZY_EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target[0]), target[1])


__all__ = [
    # core types + execution
    "RunSpec",
    "RunResult",
    "build_spec",
    "execute_spec",
    "metrics_to_dict",
    "metrics_from_dict",
    # versioning / dependency fingerprints (repro.deps)
    "spec_deps",
    "subsystem_hashes",
    # result cache (repro.sweep.cache)
    "ResultCache",
    "resolve_cache",
    "default_cache_dir",
    # persistency litmus tests (repro.litmus)
    "generate_litmus_program",
    "litmus_corpus",
    "explore_litmus_program",
    "run_litmus_program",
    "run_litmus_mutants",
]

"""The fault-injection campaign runner.

One campaign = one workload × one fault combination × a set of crash
points (every observer event, or a deterministic seeded sample for long
traces).  Per point:

1. run under the Capri system to the crash point and capture the
   persistent domain (:func:`run_until_crash_with_machine`),
2. apply the fault models to a clone of the snapshot,
3. recover (strict or lenient) and resume to completion,
4. judge the outcome against the differential oracle.

Outcome classification — the campaign's contract is **zero silent
mis-recoveries**:

========================  ====================================================
status                    meaning
========================  ====================================================
``ok``                    observationally equivalent to the golden run
``finished``              program ended before the crash point (no crash)
``detected``              strict recovery raised a typed ``RecoveryError``
``quarantined``           lenient recovery reported the corruption and the
                          damage is contained (tainted addrs / fenced cores)
``mismatch``              FAILURE: clean crash diverged from golden
``silent-mismatch``       FAILURE: injected fault diverged *unreported*
``model-violation``       FAILURE: the online persistency checker
                          (:mod:`repro.check`) flagged the crash state or a
                          clean recovery — even if end-state differencing
                          passed (``config.check`` only)
``error``                 FAILURE: unexpected exception
========================  ====================================================

With ``CampaignConfig.check`` on, every sweep point runs under the
shadow-state checker as a *second oracle*: the run to the crash point is
sanitized online, the captured persistent domain is compared against the
model's expected surviving entries, and clean (fault-free) recoveries are
validated against the committed prefix.  The two oracles are
complementary — the differential check catches wrong *end states*, the
model checker catches protocol violations that happen not to corrupt this
particular execution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.crash import CrashPlan, run_until_crash_with_machine
from repro.arch.params import SimParams
from repro.arch.recovery import RecoveryError, recover, resume_and_finish
from repro.fault.models import FaultModel, FaultNote, apply_faults, get_models
from repro.fault.oracle import (
    GoldenResult,
    MinimizedFailure,
    differential_check,
    golden_run,
    minimize_failure,
)
from repro.ir.module import Module
from repro.isa.machine import MachineError

FAILURE_STATUSES = (
    "mismatch",
    "silent-mismatch",
    "model-violation",
    "divergent-recovery",
    "error",
)


@dataclass
class CampaignConfig:
    """Knobs for one sweep."""

    threshold: int = 32
    quantum: int = 32
    seed: int = 0xCA9121
    #: None = exhaustive (every event index); else a seeded sample size.
    sample: Optional[int] = None
    #: fault-model names (see repro.fault.models.available_models).
    models: Sequence[str] = ("clean",)
    strict: bool = True
    minimize: bool = True
    max_steps: int = 50_000_000
    params: Optional[SimParams] = None
    #: run the online persistency checker (:mod:`repro.check`) as a second
    #: oracle at every sweep point — see the module docstring.
    check: bool = False
    #: crash-chain depth: 1 = classic single-crash sweep; K > 1 adds
    #: crashes *inside recovery* (crash-after-crash) up to K total
    #: failures per chain — see :mod:`repro.fault.multicrash`.
    depth: int = 1
    #: per-recovery secondary crash indices: None = exhaustive (every
    #: recovery step); else a seeded sample size.
    secondary_sample: Optional[int] = 12
    #: hard budget on chains explored per primary crash point; chains
    #: beyond it are counted as truncated, never silently dropped.
    max_chains_per_point: int = 96
    #: planted recovery-protocol bugs (repro.arch.persistence.
    #: ProtocolMutations) threaded into every recovery the campaign
    #: runs — the multi-crash mode's sensitivity ("teeth") knob.
    mutations: Optional[object] = None
    #: capture the workload's event stream once (:mod:`repro.trace`) and
    #: replay it per crash point instead of re-interpreting the IR — the
    #: fast path for exhaustive sweeps (identical verdicts; see
    #: docs/INTERNALS.md).
    replay: bool = False

    @classmethod
    def from_spec(cls, spec, **overrides) -> "CampaignConfig":
        """Derive campaign knobs from a :class:`repro.api.RunSpec`.

        The spec's threshold/quantum/params/seed/max_steps carry over;
        campaign-only knobs (models, strictness, sampling) come from
        ``overrides`` or the defaults.  An explicit ``spec.seed`` is
        honoured even when it is 0 — only an *unset* (``None``) seed
        falls back to the campaign default.
        """
        base = dict(
            threshold=spec.effective_threshold,
            quantum=spec.quantum,
            seed=spec.seed if spec.seed is not None else cls.seed,
            max_steps=spec.max_steps,
            params=spec.params,
            check=spec.check,
            replay=getattr(spec, "trace", False),
        )
        base.update(overrides)
        return cls(**base)


@dataclass
class CrashOutcome:
    """One sweep point's (or crash chain's) result."""

    event_index: int
    status: str
    detail: str = ""
    injected: int = 0  # fault notes (mutations actually performed)
    findings: int = 0  # recovery-report findings
    #: secondary crash step indices inside recovery, outermost first
    #: (empty for the classic single-crash sweep).
    chain: Tuple[int, ...] = ()
    #: RecoveryReport quarantine detail of the final recovery.
    quarantined_entries: int = 0
    fenced_cores: Tuple[int, ...] = ()
    tainted_addrs: int = 0

    @property
    def failed(self) -> bool:
        return self.status in FAILURE_STATUSES

    @property
    def crashes(self) -> int:
        """Total power failures in this outcome's history (primary +
        crashes injected into recovery)."""
        return 1 + len(self.chain)


@dataclass
class CampaignResult:
    """Everything one campaign produced."""

    workload: str
    models: Tuple[str, ...]
    strict: bool
    seed: int
    total_events: int
    outcomes: List[CrashOutcome] = field(default_factory=list)
    minimized: Optional[MinimizedFailure] = None
    #: crash-chain depth the campaign ran at (1 = single-crash sweep).
    depth: int = 1
    #: chains skipped by the per-point chain budget (never silent).
    truncated_chains: int = 0

    @property
    def failures(self) -> List[CrashOutcome]:
        return [o for o in self.outcomes if o.failed]

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for o in self.outcomes:
            counts[o.status] = counts.get(o.status, 0) + 1
        return counts

    def quarantine_stats(self) -> Dict[str, int]:
        """Aggregate RecoveryReport detail across all outcomes: how much
        corruption lenient recovery contained (rather than just that it
        did)."""
        fenced: set = set()
        for o in self.outcomes:
            fenced.update(o.fenced_cores)
        return {
            "quarantined_outcomes": sum(
                1 for o in self.outcomes if o.status == "quarantined"
            ),
            "quarantined_entries": sum(o.quarantined_entries for o in self.outcomes),
            "fenced_cores": len(fenced),
            "tainted_addrs": sum(o.tainted_addrs for o in self.outcomes),
        }

    def to_stats(self) -> Dict[str, object]:
        """JSON-ready artifact for ``--json`` / SweepReport."""
        out: Dict[str, object] = {
            "workload": self.workload,
            "models": list(self.models),
            "strict": self.strict,
            "seed": self.seed,
            "depth": self.depth,
            "total_events": self.total_events,
            "points": len(self.outcomes),
            "counts": self.counts(),
            "quarantine": self.quarantine_stats(),
            "truncated_chains": self.truncated_chains,
            "ok": self.ok,
        }
        if self.failures:
            first = self.failures[0]
            out["first_failure"] = {
                "event_index": first.event_index,
                "chain": list(first.chain),
                "status": first.status,
                "detail": first.detail,
            }
        return out

    def summary(self) -> str:
        lines = [
            f"fault campaign: {self.workload}  "
            f"models={','.join(self.models)}  "
            f"mode={'strict' if self.strict else 'lenient'}  "
            f"seed={self.seed:#x}"
            + (f"  depth={self.depth}" if self.depth > 1 else ""),
            f"  crash points: {len(self.outcomes)} of {self.total_events} "
            "events",
        ]
        for status, n in sorted(self.counts().items()):
            lines.append(f"  {status:>16}: {n}")
        q = self.quarantine_stats()
        if q["quarantined_outcomes"]:
            lines.append(
                f"  quarantine detail: {q['quarantined_entries']} entries, "
                f"{q['fenced_cores']} distinct cores fenced, "
                f"{q['tainted_addrs']} tainted addrs (summed over points)"
            )
        if self.truncated_chains:
            lines.append(
                f"  chain budget hit: {self.truncated_chains} chains "
                "truncated (raise max_chains_per_point to explore them)"
            )
        if self.failures:
            first = self.failures[0]
            where = f"event {first.event_index}"
            if first.chain:
                where += f" chain {list(first.chain)}"
            lines.append(
                f"  FIRST FAILURE at {where}: "
                f"{first.status} — {first.detail}"
            )
            if self.minimized is not None:
                lines.append(
                    f"  minimized to event {self.minimized.event_index} "
                    f"with models {','.join(self.minimized.models)} "
                    f"({self.minimized.attempts} re-runs)"
                )
        else:
            lines.append("  PASS — zero silent mis-recoveries")
        return "\n".join(lines)


def select_crash_points(
    total_events: int, sample: Optional[int], seed: int
) -> List[int]:
    """The sweep's crash indices: exhaustive, or a seeded sample that
    always includes the first and last event (the classic edge cases)."""
    if total_events <= 0:
        return []
    if sample is None or sample >= total_events:
        return list(range(total_events))
    rng = random.Random(seed)
    picked = set(rng.sample(range(total_events), sample))
    picked.add(0)
    picked.add(total_events - 1)
    return sorted(picked)


def _point_rng(seed: int, event_index: int) -> random.Random:
    """Per-point RNG: deterministic in (campaign seed, crash index)."""
    return random.Random((seed << 20) ^ event_index)


def report_fields(report) -> Dict[str, object]:
    """CrashOutcome keyword detail lifted off a RecoveryReport."""
    return dict(
        findings=len(report.findings),
        quarantined_entries=report.quarantined_entries,
        fenced_cores=tuple(report.quarantined_cores),
        tainted_addrs=len(report.tainted_addrs),
    )


def capture_at(
    module: Module,
    spawns: Sequence[Tuple[str, Sequence[int]]],
    event_index: int,
    config: CampaignConfig,
    source=None,
):
    """Run under the Capri system to one crash point.

    Returns ``(state, machine, checker)`` — ``state`` is ``None`` when
    the program finished before the crash point; ``checker`` is the
    attached :class:`~repro.check.checker.PersistencyChecker` when
    ``config.check`` is on (already fed the pre-crash event stream and
    crash-state comparison), else ``None``.

    ``source`` swaps the run-to-crash-point engine: anything with a
    ``capture_at(event_index)`` method honouring the same contract —
    in practice a :class:`repro.trace.replay.TraceCampaignSource`
    replaying a captured trace instead of re-interpreting the IR.
    Everything downstream (fault injection, recovery, resume, judging)
    is state-based and identical either way.
    """
    if source is not None:
        return source.capture_at(event_index)
    if not config.check:
        state, machine = run_until_crash_with_machine(
            module,
            spawns,
            CrashPlan(event_index),
            params=config.params,
            threshold=config.threshold,
            quantum=config.quantum,
            max_steps=config.max_steps,
        )
        return state, machine, None

    from repro.arch.crash import run_built_until_crash
    from repro.arch.system import build_system
    from repro.check.checker import PersistencyChecker

    machine, system = build_system(
        module,
        spawns,
        params=config.params,
        threshold=config.threshold,
        quantum=config.quantum,
    )
    checker = PersistencyChecker.attach(system)
    state = run_built_until_crash(
        machine,
        system,
        CrashPlan(event_index),
        max_steps=config.max_steps,
        extra_observer=checker,
    )
    if state is None:
        system.finish()
        checker.finalize(system)
    else:
        # The capture precedes fault injection, so the crash-state
        # check is valid for every model combination.
        checker.check_crash_state(state)
    return state, machine, checker


def judge_recovered(
    module: Module,
    spawns: Sequence[Tuple[str, Sequence[int]]],
    golden: GoldenResult,
    event_index: int,
    recovered,
    pre_crash_io: List[tuple],
    notes: Sequence[FaultNote],
    config: CampaignConfig,
    chain: Tuple[int, ...] = (),
) -> CrashOutcome:
    """Resume a recovered state to completion and judge it against the
    differential oracle.  ``chain`` labels the secondary crash steps that
    produced this recovery (multi-crash mode)."""
    report = recovered.report
    try:
        finished = resume_and_finish(
            recovered,
            module,
            spawns,
            quantum=config.quantum,
            max_steps=config.max_steps,
        )
    except (MachineError, RecoveryError) as err:
        if not config.strict and not report.clean:
            return CrashOutcome(
                event_index,
                "quarantined",
                detail=f"resume refused after quarantine — {err}",
                injected=len(notes),
                chain=chain,
                **report_fields(report),
            )
        return CrashOutcome(
            event_index,
            "error",
            detail=f"resume failed — {type(err).__name__}: {err}",
            injected=len(notes),
            chain=chain,
        )

    verdict = differential_check(
        golden, finished, pre_crash_io=pre_crash_io, report=report
    )
    if verdict.equivalent:
        return CrashOutcome(
            event_index,
            "ok",
            injected=len(notes),
            chain=chain,
            **report_fields(report),
        )
    if not config.strict and verdict.contained_by(report):
        return CrashOutcome(
            event_index,
            "quarantined",
            detail=report.summary(),
            injected=len(notes),
            chain=chain,
            **report_fields(report),
        )
    status = "silent-mismatch" if notes else "mismatch"
    return CrashOutcome(
        event_index,
        status,
        detail=(
            f"{len(verdict.mismatched_addrs)} addrs diverge "
            f"(first: {[hex(a) for a in verdict.mismatched_addrs[:4]]}), "
            f"io_ok={verdict.io_ok}, report: {report.summary()}"
        ),
        injected=len(notes),
        chain=chain,
        **report_fields(report),
    )


def run_sweep_point(
    module: Module,
    spawns: Sequence[Tuple[str, Sequence[int]]],
    golden: GoldenResult,
    event_index: int,
    models: Sequence[FaultModel],
    config: CampaignConfig,
    source=None,
) -> CrashOutcome:
    """Crash at one event index, inject, recover, resume, judge."""
    state, crashed_machine, checker = capture_at(
        module, spawns, event_index, config, source=source
    )
    if checker is not None and not checker.report.ok:
        return CrashOutcome(
            event_index,
            "model-violation",
            detail=checker.report.summary(),
        )
    if state is None:
        return CrashOutcome(event_index, "finished")
    pre_crash_io = list(crashed_machine.io_log)

    mutated, notes = apply_faults(
        state, models, _point_rng(config.seed, event_index)
    )

    try:
        recovered = recover(
            mutated, module, strict=config.strict, mutations=config.mutations
        )
    except RecoveryError as err:
        if notes:
            return CrashOutcome(
                event_index,
                "detected",
                detail=f"{type(err).__name__}: {err}",
                injected=len(notes),
            )
        return CrashOutcome(
            event_index,
            "error",
            detail=f"clean crash refused recovery — {type(err).__name__}: {err}",
        )

    report = recovered.report
    if checker is not None and not notes:
        # Second oracle: a *clean* recovery must land exactly on the
        # model's committed prefix (faulted recoveries legitimately
        # diverge — the differential oracle judges those).
        checker.check_recovered(recovered)
        if not checker.report.ok:
            return CrashOutcome(
                event_index,
                "model-violation",
                detail=checker.report.summary(),
                **report_fields(report),
            )
    return judge_recovered(
        module,
        spawns,
        golden,
        event_index,
        recovered,
        pre_crash_io,
        notes,
        config,
    )


def run_campaign(
    module: Module,
    spawns: Sequence[Tuple[str, Sequence[int]]],
    config: Optional[CampaignConfig] = None,
    name: str = "<module>",
    golden: Optional[GoldenResult] = None,
    source=None,
) -> CampaignResult:
    """Sweep crash points over an already-compiled module.

    ``golden`` lets callers supply a precomputed (e.g. cache-served)
    golden run; by default it is recomputed here.  With
    ``config.replay`` on (and no explicit ``source``/``golden``), the
    module's event stream is captured once into a
    :class:`~repro.trace.record.ExecTrace` and every crash point is
    served by replay — same verdicts, one interpreter pass total.
    """
    config = config or CampaignConfig()
    models = get_models(config.models)
    if config.replay and source is None and golden is None:
        from repro.trace.record import capture_trace
        from repro.trace.replay import TraceCampaignSource, golden_from_trace

        trace = capture_trace(
            module, spawns, quantum=config.quantum, max_steps=config.max_steps
        )
        golden = golden_from_trace(trace)
        source = TraceCampaignSource(trace, config)
    if golden is None:
        golden = golden_run(
            module, spawns, quantum=config.quantum, max_steps=config.max_steps
        )
    points = select_crash_points(
        golden.total_events, config.sample, config.seed
    )
    result = CampaignResult(
        workload=name,
        models=tuple(m.name for m in models),
        strict=config.strict,
        seed=config.seed,
        total_events=golden.total_events,
        depth=max(1, config.depth),
    )
    if config.depth > 1:
        from repro.fault.multicrash import run_multi_crash_point

        for at in points:
            outcomes, truncated = run_multi_crash_point(
                module, spawns, golden, at, models, config, source=source
            )
            result.outcomes.extend(outcomes)
            result.truncated_chains += truncated
    else:
        for at in points:
            result.outcomes.append(
                run_sweep_point(
                    module, spawns, golden, at, models, config, source=source
                )
            )

    if config.minimize and result.failures and not result.failures[0].chain:
        first = result.failures[0]

        def still_fails(index: int, model_names: Tuple[str, ...]) -> bool:
            probe = CampaignConfig(
                threshold=config.threshold,
                quantum=config.quantum,
                seed=config.seed,
                models=model_names,
                strict=config.strict,
                minimize=False,
                max_steps=config.max_steps,
                params=config.params,
                check=config.check,
                mutations=config.mutations,
            )
            outcome = run_sweep_point(
                module,
                spawns,
                golden,
                index,
                get_models(model_names),
                probe,
                source=source,
            )
            return outcome.failed

        result.minimized = minimize_failure(
            still_fails, first.event_index, tuple(result.models)
        )
    return result


def _golden_from_cache(payload) -> GoldenResult:
    return GoldenResult(
        data={int(addr): value for addr, value in payload["data"].items()},
        io_log=[tuple(event) for event in payload["io_log"]],
        total_events=payload["total_events"],
    )


def _golden_to_cache(golden: GoldenResult, deps: Optional[dict] = None) -> dict:
    payload = {
        "kind": "golden",
        "data": {str(addr): value for addr, value in golden.data.items()},
        "io_log": [list(event) for event in golden.io_log],
        "total_events": golden.total_events,
    }
    if deps:
        # Per-subsystem validity token: the cache refuses this entry once
        # any recorded subsystem's hash changes (repro.sweep.cache).
        payload["deps"] = deps
    return payload


def run_workload_campaign(
    workload,
    config: Optional[CampaignConfig] = None,
    scale: float = 0.3,
    cache="default",
) -> CampaignResult:
    """Build a registry workload, compile it with Capri, and sweep it.

    ``workload`` is a registry name or a :class:`repro.api.RunSpec` (in
    which case its workload/scale/threshold/quantum seed the campaign).
    The per-workload *golden run* is memoised in the sweep result cache
    under the spec's fingerprint (``golden`` namespace) — warm fault
    campaigns skip straight to crash injection.  Pass ``cache=None`` to
    disable.

    With ``config.replay`` the captured :class:`ExecTrace` takes the
    golden run's place in the cache (``traces`` namespace, keyed by
    :func:`repro.trace.record.trace_fingerprint`) and every crash point
    replays it — the trace subsumes the golden result.
    """
    from repro.api import RunSpec, resolve_cache
    from repro.compiler import CapriCompiler, OptConfig
    from repro.deps import UsageProbe, deps_token
    from repro.workloads import get_workload

    if isinstance(workload, RunSpec):
        spec = workload
        config = config or CampaignConfig.from_spec(spec)
        workload_name, scale = spec.workload, spec.scale
    else:
        workload_name = workload
        config = config or CampaignConfig()
        spec = RunSpec(
            workload=workload_name,
            scale=scale,
            config=OptConfig.licm(config.threshold),
            quantum=config.quantum,
            max_steps=config.max_steps,
        )
    # Record which subsystems the build+compile actually exercise; the
    # cached golden result / trace stores this set (plus its own layer)
    # so a later edit to an unrelated subsystem leaves it warm.
    with UsageProbe() as probe:
        module, spawns = get_workload(workload_name).build(scale)
        compiled = (
            CapriCompiler(OptConfig.licm(config.threshold)).compile(module).module
        )
    base_deps = set(probe.subsystems())

    golden: Optional[GoldenResult] = None
    source = None
    store = resolve_cache(cache)
    if config.replay:
        from repro.api import load_trace, store_trace, trace_fingerprint
        from repro.trace.record import capture_trace
        from repro.trace.replay import TraceCampaignSource, golden_from_trace

        # Key the trace on what is actually captured here: the workload
        # compiled with licm(threshold) at this scale/quantum.
        trace_spec = RunSpec(
            workload=workload_name,
            scale=scale,
            config=OptConfig.licm(config.threshold),
            quantum=config.quantum,
            max_steps=config.max_steps,
        )
        tfp = trace_fingerprint(trace_spec)
        trace = load_trace(store, tfp)
        if trace is None:
            trace = capture_trace(
                compiled,
                spawns,
                quantum=config.quantum,
                max_steps=config.max_steps,
                meta={
                    "workload": workload_name,
                    "scale": float(scale),
                    "quantum": config.quantum,
                    "fingerprint": tfp,
                },
            )
            trace.meta["deps"] = sorted(base_deps | {"trace"})
            store_trace(store, tfp, trace)
        golden = golden_from_trace(trace)
        source = TraceCampaignSource(trace, config)
    else:
        fingerprint = spec.fingerprint()
        if store is not None:
            payload = store.get(fingerprint, kind="golden")
            if payload is not None and "total_events" in payload:
                golden = _golden_from_cache(payload)
        if golden is None:
            golden = golden_run(
                compiled, spawns, quantum=config.quantum, max_steps=config.max_steps
            )
            if store is not None:
                store.put(
                    fingerprint,
                    _golden_to_cache(
                        golden, deps=deps_token(base_deps | {"fault"})
                    ),
                    kind="golden",
                )
    return run_campaign(
        compiled, spawns, config, name=workload_name, golden=golden, source=source
    )

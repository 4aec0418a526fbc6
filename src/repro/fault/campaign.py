"""The fault-injection campaign runner.

One campaign = one workload × one fault combination × a set of crash
points (every observer event, or a deterministic seeded sample for long
traces).  Every crash point is served by one crash *source*, built from
the program and the campaign's :class:`CampaignConfig` (which supplies
every setting, planted mutations included):
``TraceCampaignSource(module, spawns, config)``
(:mod:`repro.trace.replay`) captures the workload's event stream once,
in memory (traces are never stored on disk), and replays it.  The
source also owns the golden result every point is judged against
(``source.golden``).  Per point, :func:`run_crash_point`:

1. advances the source to the crash point and captures the persistent
   domain (``source.capture_at``),
2. applies the fault models to a clone of the snapshot,
3. recovers (strict or lenient) and resumes to completion,
4. judges the outcome against the differential oracle.

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
``divergent-recovery``    FAILURE: a recovery interrupted by a further crash
                          did not converge to the uninterrupted one
                          (``config.depth`` > 1 only)
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

Nested failures.  Real outages cluster (the repeated-failure regime of
Ben-David et al.), so with ``CampaignConfig.depth`` = K > 1 each point
also sweeps *crash chains*: a secondary crash at a chosen step of the
point's recovery, then (K > 2) another inside the re-entered recovery,
up to K failures in all.  Every chain leaf is judged three ways: the
recovery-idempotence oracle (:func:`diff_recoveries` — the re-entered
recovery must equal the uninterrupted one bit for bit), the checker,
and the differential oracle.  The point's single-crash verdict always
comes first, so depth K strictly extends depth 1.  Chains beyond
``max_chains_per_point`` are counted (``truncated_chains``), never
silently dropped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.crash import CrashInjector, CrashPlan, CrashState, PowerFailure
from repro.arch.params import SimParams
from repro.arch.recovery import (
    RecoveredState,
    RecoveryError,
    recover,
    resume_and_finish,
    run_recovery,
)
from repro.fault.models import (
    CleanPowerLoss, FaultModel, FaultNote, apply_faults, get_models,
)
from repro.fault.oracle import (
    GoldenResult,
    MinimizedFailure,
    differential_check,
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
    #: failures per chain — see :func:`run_crash_point`.
    depth: int = 1
    #: per-recovery secondary crash indices: None = exhaustive (every
    #: recovery step); else a seeded sample size.
    secondary_sample: Optional[int] = 12
    #: hard budget on chains explored per primary crash point; chains
    #: beyond it are counted as truncated, never silently dropped.
    max_chains_per_point: int = 96
    #: planted protocol bugs (repro.arch.persistence.ProtocolMutations),
    #: the sweep's sensitivity ("teeth") knob.  Pipeline flags act in the
    #: crash source's simulated system; ``recovery_*`` flags act in every
    #: recovery the campaign runs.  Each layer reads only its own flags.
    mutations: Optional[object] = None
    #: Read by no code: every campaign captures once and replays.  Kept
    #: only because the benchmark harness (perfbench/workloads.py and
    #: perfbench/test_tracer.py) constructs ``CampaignConfig(replay=True)``;
    #: drop it with the next change to the benchmark.
    replay: bool = False


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
    #: times the source rebuilt its system from event 0 — the failure
    #: minimizer bisects downward, behind the replay cursor.
    rebuilds: int = 0

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
            "rebuilds": self.rebuilds,
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
    produced this recovery (``config.depth`` > 1)."""
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


#: Recovery stats compared by the idempotence oracle.  ``wpq_replayed``
#: is deliberately absent: it counts only journal records that *changed*
#: the image, so a re-entry (whose image already holds the replayed
#: values) legitimately reports fewer.
_STABLE_STATS = (
    "regions_redone",
    "regions_rolled_back",
    "redo_words",
    "undo_words",
    "recovery_blocks_run",
)


def diff_recoveries(
    ref: RecoveredState, got: RecoveredState
) -> Optional[str]:
    """``None`` when ``got`` converged to the reference recovery
    bit-identically; else a description of the first divergence."""
    if ref.nvm_image != got.nvm_image:
        keys = sorted(
            k
            for k in set(ref.nvm_image) | set(got.nvm_image)
            if ref.nvm_image.get(k) != got.nvm_image.get(k)
        )
        return (
            f"nvm image diverges at {len(keys)} addrs "
            f"(first: {[hex(a) for a in keys[:4]]})"
        )
    if ref.ckpt_shadow != got.ckpt_shadow:
        return "checkpoint-array shadow words diverge"
    if ref.resumes != got.resumes:
        return "resume points diverge (continuation/registers lost)"
    if list(ref.report.quarantined_cores) != list(got.report.quarantined_cores):
        return (
            f"fenced-core sets diverge: {ref.report.quarantined_cores} "
            f"!= {got.report.quarantined_cores}"
        )
    if ref.report.tainted_addrs != got.report.tainted_addrs:
        return "tainted address sets diverge"
    for name in _STABLE_STATS:
        if getattr(ref, name) != getattr(got, name):
            return (
                f"recovery stat {name} diverges: {getattr(ref, name)} != "
                f"{getattr(got, name)} (steps lost or duplicated)"
            )
    return None


def _chain_seed(seed: int, event_index: int, prefix: Tuple[int, ...]) -> int:
    """Deterministic per-(point, chain-prefix) sampling seed."""
    h = (seed << 16) ^ event_index
    for j in prefix:
        h = ((h * 1000003) & 0xFFFFFFFFFFFF) ^ (j + 1)
    return h


def run_crash_point(
    module: Module,
    spawns: Sequence[Tuple[str, Sequence[int]]],
    event_index: int,
    models: Sequence[FaultModel],
    config: CampaignConfig,
    source,
) -> Tuple[List[CrashOutcome], int]:
    """Crash at one event index, inject, recover, resume, judge — and,
    with ``config.depth`` > 1, sweep the crash chains rooted there.

    Returns ``(outcomes, truncated_chains)``.  The first outcome is the
    point's single-crash verdict; chain leaves follow, each after the
    longer chains that extend it.

    ``source`` serves the crash capture and the golden result: anything
    with a ``capture_at(event_index) -> (state, pre_crash_io, checker)``
    method and a ``golden`` —
    :class:`repro.trace.replay.TraceCampaignSource` in campaigns, the
    reference :class:`repro.fault.oracle.InterpretedSource` in tests and
    the exhaustive-campaign benchmark; both are built from
    ``(module, spawns, config)``.  Everything downstream (fault injection, recovery, resume, judging,
    secondary crashes on :class:`CrashState` clones) is state-based and
    identical either way.
    """
    state, pre_crash_io, checker = source.capture_at(event_index)
    if checker is not None and not checker.report.ok:
        return [
            CrashOutcome(
                event_index,
                "model-violation",
                detail=checker.report.summary(),
            )
        ], 0
    if state is None:
        return [CrashOutcome(event_index, "finished")], 0

    # The clean model changes nothing, so a point with no other model
    # needs neither its RNG nor a clone of the state.
    active = [m for m in models if not isinstance(m, CleanPowerLoss)]
    mutated, notes = apply_faults(
        state, active, _point_rng(config.seed, event_index) if active else None
    )

    try:
        ref = recover(
            mutated, module, strict=config.strict, mutations=config.mutations
        )
    except RecoveryError as err:
        if notes:
            outcome = CrashOutcome(
                event_index,
                "detected",
                detail=f"{type(err).__name__}: {err}",
                injected=len(notes),
            )
        else:
            outcome = CrashOutcome(
                event_index,
                "error",
                detail=(
                    "clean crash refused recovery — "
                    f"{type(err).__name__}: {err}"
                ),
            )
        return [outcome], 0

    def judge(recovered: RecoveredState, chain: Tuple[int, ...] = ()):
        if checker is not None and not notes:
            # Second oracle: a *clean* recovery must land exactly on the
            # model's committed prefix (faulted recoveries legitimately
            # diverge — the differential oracle judges those).  The
            # point's report accumulates over its chains; only the delta,
            # suppressed violations included, belongs to this leaf.  (The
            # import stays here: repro.check pulls in the compiler, which
            # unchecked campaigns never load.)
            from repro.check.violations import CheckReport

            report = checker.report
            seen, suppressed = len(report.violations), report.suppressed
            checker.check_recovered(recovered)
            leaf = CheckReport(
                report.violations[seen:],
                suppressed=report.suppressed - suppressed,
            )
            if not leaf.ok:
                return CrashOutcome(
                    event_index,
                    "model-violation",
                    detail=leaf.summary(),
                    chain=chain,
                    **report_fields(recovered.report),
                )
        return judge_recovered(
            module,
            spawns,
            source.golden,
            event_index,
            recovered,
            pre_crash_io,
            notes,
            config,
            chain=chain,
        )

    outcomes = [judge(ref)]
    if config.depth <= 1:
        return outcomes, 0

    budget = max(1, config.max_chains_per_point)
    truncated = 0

    def sweep(domain: CrashState, prefix: Tuple[int, ...], steps: int) -> None:
        """Crash the recovery of ``domain`` (``steps`` durable steps long
        when uninterrupted) at sampled steps, and judge each re-entry."""
        nonlocal budget, truncated
        picks = select_crash_points(
            steps,
            config.secondary_sample,
            _chain_seed(config.seed, event_index, prefix),
        )
        for idx, j in enumerate(picks):
            if budget <= 0:
                truncated += len(picks) - idx
                return
            budget -= 1
            dom = domain.clone()
            injector = CrashInjector(
                None, CrashPlan(j), capture=lambda d=dom: d
            )
            try:
                run_recovery(
                    dom,
                    module,
                    strict=config.strict,
                    mutations=config.mutations,
                    observer=injector,
                )
                continue  # recovery finished before step j: no crash
            except PowerFailure as pf:
                crashed = pf.state
            chain = prefix + (j,)
            try:
                final = recover(
                    crashed,
                    module,
                    strict=config.strict,
                    mutations=config.mutations,
                )
            except RecoveryError as err:
                # The reference recovery succeeded but this re-entry
                # refuses: the crash prefix destroyed recovery's inputs —
                # exactly the non-idempotence the mode exists to expose.
                outcomes.append(
                    CrashOutcome(
                        event_index,
                        "divergent-recovery",
                        detail=(
                            f"re-entry refused after chain {list(chain)} — "
                            f"{type(err).__name__}: {err}"
                        ),
                        injected=len(notes),
                        chain=chain,
                    )
                )
                continue
            if len(chain) < config.depth - 1:
                sweep(crashed, chain, final.steps)
            divergence = diff_recoveries(ref, final)
            if divergence is not None:
                outcomes.append(
                    CrashOutcome(
                        event_index,
                        "divergent-recovery",
                        detail=divergence,
                        injected=len(notes),
                        chain=chain,
                        **report_fields(final.report),
                    )
                )
                continue
            outcomes.append(judge(final, chain))

    sweep(mutated, (), ref.steps)
    return outcomes, truncated


def run_campaign(
    module: Module,
    spawns: Sequence[Tuple[str, Sequence[int]]],
    config: Optional[CampaignConfig] = None,
    name: str = "<module>",
    source=None,
) -> CampaignResult:
    """Sweep crash points over an already-compiled module.

    ``source`` defaults to the replay source,
    ``TraceCampaignSource(module, spawns, config)``, which captures the
    module's event stream once; the reference
    :class:`~repro.fault.oracle.InterpretedSource` is built and passed
    the same way.  The golden result is the source's own
    (``source.golden``).
    """
    config = config or CampaignConfig()
    models = get_models(config.models)
    if source is None:
        from repro.trace.replay import TraceCampaignSource

        source = TraceCampaignSource(module, spawns, config)
    total_events = source.golden.total_events
    points = select_crash_points(total_events, config.sample, config.seed)
    result = CampaignResult(
        workload=name,
        models=tuple(m.name for m in models),
        strict=config.strict,
        seed=config.seed,
        total_events=total_events,
        depth=max(1, config.depth),
    )
    for at in points:
        outcomes, truncated = run_crash_point(
            module, spawns, at, models, config, source
        )
        result.outcomes.extend(outcomes)
        result.truncated_chains += truncated

    if config.minimize and result.failures and not result.failures[0].chain:
        first = result.failures[0]

        def still_fails(index: int, model_names: Tuple[str, ...]) -> bool:
            probe = replace(
                config, models=model_names, minimize=False, depth=1
            )
            outcomes, _ = run_crash_point(
                module,
                spawns,
                index,
                get_models(model_names),
                probe,
                source,
            )
            return outcomes[0].failed

        result.minimized = minimize_failure(
            still_fails, first.event_index, tuple(result.models)
        )
    result.rebuilds = source.rebuilds
    return result


def run_workload_campaign(
    workload: str,
    config: Optional[CampaignConfig] = None,
    scale: float = 0.3,
    cache=None,
) -> CampaignResult:
    """Build a registry workload, compile it with Capri, and sweep it.

    The program is ``workload`` compiled with ``licm(config.threshold)``
    at ``scale``; :func:`run_campaign`'s crash source captures its
    trace once, in memory.  ``cache`` is read by no code: traces are
    never stored.  It stays only because the benchmark harness
    (perfbench/workloads.py) passes ``cache=None``; drop it with the
    next change to the benchmark.
    """
    from repro.api import RunSpec, build_spec
    from repro.compiler import OptConfig

    config = config or CampaignConfig()
    spec = RunSpec(
        workload=workload, scale=scale, config=OptConfig.licm(config.threshold)
    )
    module, spawns = build_spec(spec)
    return run_campaign(module, spawns, config, name=workload)

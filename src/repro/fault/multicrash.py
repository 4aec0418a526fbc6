"""Nested-failure sweeps: crashes injected *into recovery itself*.

The single-crash campaign (:mod:`repro.fault.campaign`) models one power
failure per execution.  Real outages cluster — the repeated-failure
regime of Ben-David et al. and Marathe et al. — so this module sweeps
*crash chains*: a primary crash during execution, then a secondary crash
at a chosen recovery step, then (optionally) another crash during the
re-entered recovery, up to ``CampaignConfig.depth`` total failures.

Per primary crash point:

1. capture the persistent domain from the campaign's source (shared
   with the single-crash path), apply the configured fault models,
2. run one *uninterrupted* reference recovery — its step count bounds
   the secondary sweep and its :class:`RecoveredState` is the
   idempotence oracle's ground truth,
3. for every secondary step index (exhaustive for short recoveries,
   seeded sample otherwise): clone the domain, run
   :func:`~repro.arch.recovery.run_recovery` under a
   :class:`~repro.arch.crash.CrashInjector`, and from the crashed
   domain either recurse (deeper chains) or finish recovery re-entrantly,
4. judge every leaf three ways:

   * **idempotence oracle** — the re-entered recovery must be
     bit-identical to the uninterrupted reference (image, shadow words,
     resume points, quarantine sets, and step-derived stats; the
     image-dependent ``wpq_replayed`` counter is excluded).  Divergence
     is the new failure status ``divergent-recovery``.
   * **online persistency checker** — clean chains must still land on
     the committed prefix (``config.check``).
   * **differential oracle** — resume to completion and compare against
     the golden run, exactly as the single-crash path does.

Chains are budgeted by ``CampaignConfig.max_chains_per_point``; skipped
chains are *counted* (``CampaignResult.truncated_chains``), never
silently dropped.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.arch.crash import CrashInjector, CrashPlan, CrashState, PowerFailure
from repro.arch.recovery import RecoveredState, RecoveryError, run_recovery
from repro.fault.campaign import (
    CampaignConfig,
    CrashOutcome,
    _point_rng,
    judge_recovered,
    report_fields,
    select_crash_points,
)
from repro.fault.models import FaultModel, apply_faults
from repro.fault.oracle import GoldenResult
from repro.ir.module import Module

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


def run_multi_crash_point(
    module: Module,
    spawns: Sequence[Tuple[str, Sequence[int]]],
    golden: GoldenResult,
    event_index: int,
    models: Sequence[FaultModel],
    config: CampaignConfig,
    source,
) -> Tuple[List[CrashOutcome], int]:
    """Sweep crash chains rooted at one primary crash point.

    Returns ``(outcomes, truncated_chains)``.  The first outcome is the
    plain depth-1 leaf (no secondary crash) — depth > 1 strictly extends
    the single-crash sweep, never replaces it.

    Only the *primary* capture consults ``source`` (see
    :func:`~repro.fault.campaign.run_sweep_point`): every secondary crash
    operates on :class:`CrashState` clones inside recovery.
    """
    state, machine, checker = source.capture_at(event_index)
    if checker is not None and not checker.report.ok:
        return (
            [
                CrashOutcome(
                    event_index,
                    "model-violation",
                    detail=checker.report.summary(),
                )
            ],
            0,
        )
    if state is None:
        return [CrashOutcome(event_index, "finished")], 0
    pre_crash_io = list(machine.io_log)

    mutated, notes = apply_faults(
        state, models, _point_rng(config.seed, event_index)
    )

    try:
        ref = run_recovery(
            mutated.clone(),
            module,
            strict=config.strict,
            mutations=config.mutations,
        )
    except RecoveryError as err:
        if notes:
            return (
                [
                    CrashOutcome(
                        event_index,
                        "detected",
                        detail=f"{type(err).__name__}: {err}",
                        injected=len(notes),
                    )
                ],
                0,
            )
        return (
            [
                CrashOutcome(
                    event_index,
                    "error",
                    detail=(
                        "clean crash refused recovery — "
                        f"{type(err).__name__}: {err}"
                    ),
                )
            ],
            0,
        )

    outcomes: List[CrashOutcome] = []
    budget = [max(1, config.max_chains_per_point)]
    truncated = [0]

    def checked_judge(final: RecoveredState, chain: Tuple[int, ...]) -> CrashOutcome:
        if checker is not None and not notes:
            # The checker accumulates violations across chains; only the
            # delta belongs to this one.
            before = len(checker.report.violations)
            checker.check_recovered(final)
            fresh = checker.report.violations[before:]
            if fresh:
                return CrashOutcome(
                    event_index,
                    "model-violation",
                    detail=(
                        f"{len(fresh)} model violations on re-entered "
                        f"recovery (first: {fresh[0]})"
                    ),
                    chain=chain,
                    **report_fields(final.report),
                )
        return judge_recovered(
            module,
            spawns,
            golden,
            event_index,
            final,
            pre_crash_io,
            notes,
            config,
            chain=chain,
        )

    def sweep(domain: CrashState, prefix: Tuple[int, ...]) -> None:
        """Explore secondary crashes into the recovery of ``domain``."""
        try:
            probe = run_recovery(
                domain.clone(),
                module,
                strict=config.strict,
                mutations=config.mutations,
            )
        except RecoveryError as err:
            # The reference recovery succeeded but this re-entry refuses:
            # the crash prefix destroyed recovery's inputs — exactly the
            # non-idempotence the mode exists to expose.
            outcomes.append(
                CrashOutcome(
                    event_index,
                    "divergent-recovery",
                    detail=(
                        f"re-entry refused after chain {list(prefix)} — "
                        f"{type(err).__name__}: {err}"
                    ),
                    injected=len(notes),
                    chain=prefix,
                )
            )
            return
        picks = select_crash_points(
            probe.steps,
            config.secondary_sample,
            _chain_seed(config.seed, event_index, prefix),
        )
        for idx, j in enumerate(picks):
            if budget[0] <= 0:
                truncated[0] += len(picks) - idx
                return
            budget[0] -= 1
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
            if len(chain) < config.depth - 1:
                sweep(crashed, chain)
            try:
                final = run_recovery(
                    crashed.clone(),
                    module,
                    strict=config.strict,
                    mutations=config.mutations,
                )
            except RecoveryError as err:
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
            outcomes.append(checked_judge(final, chain))

    # The depth-1 leaf first (identical to the single-crash sweep's
    # judgement of this point), then the chains.
    outcomes.append(checked_judge(ref, ()))
    sweep(mutated, ())
    return outcomes, truncated[0]

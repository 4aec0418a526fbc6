"""Campaign integration: the replay engine must match the interpreted
reference source (:class:`repro.fault.oracle.InterpretedSource`) outcome
for outcome — single-crash sweeps, fault models and the minimizer,
checker verdicts, and nested crashes."""

import pytest

from repro.fault.campaign import (
    CampaignConfig,
    run_campaign,
    run_workload_campaign,
)
from repro.fault.oracle import InterpretedSource, golden_run


def _verdicts(result):
    return [
        (o.event_index, o.status, o.detail, o.injected, o.findings,
         tuple(o.chain), o.quarantined_entries, tuple(o.fenced_cores),
         o.tainted_addrs)
        for o in result.outcomes
    ]


def _compiled(workload, config, scale):
    from repro.compiler import CapriCompiler, OptConfig
    from repro.workloads import get_workload

    module, spawns = get_workload(workload).build(scale)
    module = CapriCompiler(OptConfig.licm(config.threshold)).compile(module).module
    return module, spawns


def _reference_campaign(workload, config, scale):
    """The campaign re-interpreted to every crash point."""
    module, spawns = _compiled(workload, config, scale)
    return run_campaign(
        module,
        spawns,
        config,
        name=workload,
        golden=golden_run(
            module, spawns, quantum=config.quantum, max_steps=config.max_steps
        ),
        source=InterpretedSource(module, spawns, config),
    )


def _run_both(config_kwargs, workload="genome", scale=0.08):
    config = CampaignConfig(**config_kwargs)
    interpreted = _reference_campaign(workload, config, scale)
    replayed = run_workload_campaign(workload, config, scale=scale, cache=None)
    assert interpreted.total_events == replayed.total_events
    assert _verdicts(interpreted) == _verdicts(replayed)
    assert interpreted.counts() == replayed.counts()
    assert interpreted.ok == replayed.ok
    return interpreted, replayed


def test_clean_sweep_verdicts_identical():
    _run_both(dict(threshold=32, sample=24, minimize=False))


def test_checked_sweep_verdicts_identical():
    _run_both(dict(threshold=32, sample=16, check=True, minimize=False))


def test_fault_model_verdicts_and_minimizer_identical():
    interpreted, replayed = _run_both(
        dict(
            threshold=32,
            sample=12,
            models=("clean", "torn-boundary"),
            strict=False,
            minimize=True,
        )
    )
    a, b = interpreted.minimized, replayed.minimized
    assert (a is None) == (b is None)
    if a is not None:
        assert (a.event_index, a.models) == (b.event_index, b.models)


def test_checked_verdicts_identical_past_the_violation_cap():
    """The cursor checks every point on one long-lived checker; each
    point's report must still be capped the way a fresh checker caps it,
    or once the campaign as a whole passes the cap the reports fill with
    ``+N suppressed`` in place of the point's own violations."""
    from repro.arch.persistence import ProtocolMutations
    from repro.check.violations import _MAX_VIOLATIONS
    from repro.trace.record import capture_trace
    from repro.trace.replay import TraceCampaignSource, golden_from_trace

    flagged = []

    class Tap(TraceCampaignSource):
        def capture_at(self, event_index):
            captured = super().capture_at(event_index)
            flagged.append(captured[2].report)
            return captured

    config = CampaignConfig(
        sample=600,
        check=True,
        minimize=False,
        mutations=ProtocolMutations.single("recovery_skip_redo"),
    )
    interpreted = _reference_campaign("genome", config, 0.05)
    module, spawns = _compiled("genome", config, 0.05)
    trace = capture_trace(module, spawns, quantum=config.quantum)
    replayed = run_campaign(
        module,
        spawns,
        config,
        name="genome",
        golden=golden_from_trace(trace),
        source=Tap(trace, config),
    )
    assert _verdicts(interpreted) == _verdicts(replayed)
    assert sum(
        len(r.violations) + r.suppressed for r in flagged
    ) > 2 * _MAX_VIOLATIONS


def test_multi_crash_verdicts_identical():
    _run_both(
        dict(
            threshold=32,
            sample=6,
            depth=2,
            secondary_sample=4,
            minimize=False,
            check=True,
        )
    )


def test_exhaustive_sweep_single_pass():
    """Exhaustive ascending sweeps are the point of the cursor: the
    whole campaign must complete on one replay system (zero rebuilds)."""
    from repro.compiler import CapriCompiler, OptConfig
    from repro.trace.record import capture_trace
    from repro.trace.replay import TraceCampaignSource, golden_from_trace
    from repro.workloads import get_workload

    config = CampaignConfig(threshold=32, minimize=False)
    module, spawns = get_workload("genome").build(0.05)
    module = (
        CapriCompiler(OptConfig.licm(config.threshold)).compile(module).module
    )
    trace = capture_trace(
        module, spawns, quantum=config.quantum, max_steps=config.max_steps
    )
    source = TraceCampaignSource(trace, config)
    result = run_campaign(
        module,
        spawns,
        config,
        name="genome",
        golden=golden_from_trace(trace),
        source=source,
    )
    assert result.ok
    assert len(result.outcomes) == len(trace)
    assert source.rebuilds == 0
    assert result.to_stats()["rebuilds"] == 0


def test_minimizer_rewinds_are_reported():
    """The failure minimizer bisects *behind* the cursor; every rewind
    rebuilds the replay system from event 0 and ``--json`` says so."""
    from repro.arch.persistence import ProtocolMutations

    config = CampaignConfig(
        threshold=32,
        sample=12,
        mutations=ProtocolMutations.single("recovery_skip_redo"),
    )
    result = run_workload_campaign("genome", config, scale=0.05, cache=None)
    assert not result.ok and result.minimized is not None
    assert result.to_stats()["rebuilds"] > 0

"""Tests for the benchmark's span arithmetic and patching.

Run from the repository root::

    python3 -m pytest perfbench/test_tracer.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from tracer import LAYER_TARGETS, LAYERS, Patcher, Tracer, layer_stats, tap  # noqa: E402

MS = 1_000_000  # ns


def test_self_time_subtracts_direct_children_only():
    # a [0,10] > b [2,6] > c [3,4];  a > d [7,9]
    layers = ["a", "b", "c", "d"]
    stats = layer_stats(
        layers,
        name_ids=[0, 1, 2, 3],
        parents=[-1, 0, 1, 0],
        starts=[0, 2 * MS, 3 * MS, 7 * MS],
        ends=[10 * MS, 6 * MS, 4 * MS, 9 * MS],
    )
    assert stats["a"]["self_s"] == pytest.approx(0.004)  # 10 - 4 - 2
    assert stats["b"]["self_s"] == pytest.approx(0.003)  # 4 - 1
    assert stats["c"]["self_s"] == pytest.approx(0.001)
    assert stats["d"]["self_s"] == pytest.approx(0.002)
    total_self = sum(s["self_s"] for s in stats.values())
    assert total_self == pytest.approx(0.010)  # self times tile the root span


def test_same_layer_nesting_is_one_call():
    # recover [0,10] calls run_recovery [1,9], both arch.recovery; the
    # inner call dispatches to isa [2,5].
    layers = ["arch.recovery", "arch.recovery", "isa"]
    stats = layer_stats(
        layers,
        name_ids=[0, 1, 2],
        parents=[-1, 0, 1],
        starts=[0, 1 * MS, 2 * MS],
        ends=[10 * MS, 9 * MS, 5 * MS],
    )
    assert stats["arch.recovery"]["calls"] == 1
    assert stats["arch.recovery"]["self_s"] == pytest.approx(0.007)
    assert stats["isa"]["calls"] == 1
    assert stats["isa"]["self_s"] == pytest.approx(0.003)


def test_tracer_records_nesting_and_survives_exceptions():
    import repro.arch.recovery as recovery
    from repro.arch.recovery import RecoveryError

    def failing_recover(*args, **kwargs):
        raise RecoveryError("planted")

    targets = [("arch.recovery", "repro.arch.recovery", "recover")]
    seen = []
    original = recovery.recover
    recovery.recover = failing_recover
    try:
        with Tracer(targets, hooks={"repro.arch.recovery:recover":
                                    lambda a, r, e: seen.append(e)}) as tracer:
            with pytest.raises(RecoveryError):
                recovery.recover(None, None)
    finally:
        recovery.recover = original
    assert len(tracer) == 1
    assert tracer.parents[0] == -1
    assert tracer.ends[0] >= tracer.starts[0] > 0
    assert isinstance(seen[0], RecoveryError)
    assert tracer._stack == [-1]


def _bindings():
    """Every place a target is bound, by identity."""
    import repro.arch.recovery
    import repro.check.checker
    import repro.fault.campaign
    import repro.litmus.matrix
    import repro.trace.replay

    return {
        "recovery.recover": repro.arch.recovery.recover,
        "campaign.recover": repro.fault.campaign.recover,
        "campaign.resume_and_finish": repro.fault.campaign.resume_and_finish,
        "replay.capture_crash_state": repro.trace.replay.capture_crash_state,
        "matrix.oracle_snapshots": repro.litmus.matrix.oracle_snapshots,
        "attach": vars(repro.check.checker.PersistencyChecker)["attach"],
        "load": vars(__import__("repro.arch.memctrl", fromlist=["x"]).MemoryHierarchy)["load"],
    }


def test_patching_reaches_by_name_imports_and_restores_everything():
    import repro.fault.campaign
    import repro.litmus.matrix

    before = _bindings()
    with Tracer() as tracer:
        during = _bindings()
        assert repro.fault.campaign.recover is not before["campaign.recover"]
        assert repro.fault.campaign.recover.__wrapped__ is before["campaign.recover"]
        assert repro.litmus.matrix.oracle_snapshots is not before["matrix.oracle_snapshots"]
        assert isinstance(during["attach"], classmethod)
        assert during["attach"].__func__.__wrapped__ is before["attach"].__func__
    after = _bindings()
    assert all(after[k] is before[k] for k in before), [
        k for k in before if after[k] is not before[k]
    ]
    assert len(tracer) == 0


def test_restore_catches_modules_imported_while_patched():
    import types

    import repro.arch.crash

    original = repro.arch.crash.capture_crash_state
    late = types.ModuleType("repro._late_importer")
    with Patcher() as patcher:
        patcher.patch("repro.arch.crash", "capture_crash_state",
                      lambda fn: tap(fn, lambda a, r, e: None))
        # What ``from repro.arch.crash import capture_crash_state`` in a
        # module imported now would bind:
        late.capture_crash_state = repro.arch.crash.capture_crash_state
        sys.modules[late.__name__] = late
    try:
        assert repro.arch.crash.capture_crash_state is original
        assert late.capture_crash_state is original
    finally:
        del sys.modules[late.__name__]


def test_traced_campaign_counts_every_point():
    from repro.fault.campaign import CampaignConfig, run_workload_campaign

    config = CampaignConfig(threshold=32, replay=True, minimize=False, sample=20)
    with Tracer() as tracer:
        result = run_workload_campaign("genome", config, scale=0.05, cache=None)
    calls = tracer.calls_by_target()
    points = len(result.outcomes)
    assert result.ok and points > 0
    assert calls["repro.arch.crash:capture_crash_state"] == points
    assert calls["repro.arch.recovery:recover"] == points
    assert calls["repro.arch.recovery:resume_and_finish"] == points
    stats = tracer.stats()
    assert stats["arch.recovery"]["calls"] == points
    assert stats["check"]["calls"] == 0
    assert stats["isa"]["calls"] == points + 1  # every resume + the capture


def test_benchmark_json_lists_exactly_what_the_traced_run_prints():
    import run

    zero = {"calls": 0, "self_s": 0.0}
    printed = run.layer_metrics(
        {layer: zero for layer in LAYERS}, run._modelled_counters([]),
        run._Collect(), verdicts=[], cache_stats={},
        traced_wall=1.0, speed=1.0, untraced_s=1.0, traced_s=1.0,
    )
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == {name: unit for name, (_, unit) in printed.items()}
    assert {layer for layer, _, _ in LAYER_TARGETS} == set(LAYERS)

"""Shared recoveries match unshared recoveries.

A crash point whose snapshot is the previous point's object (see
``tests/trace/test_shared_snapshots.py``) gets the previous point's
recovery back: ``recover(state, module, strict, mutations, previous=)``
returns ``previous`` itself when it was computed from this very snapshot
with the same module, ``strict`` and ``mutations``.  These tests pin the
rule:

* each part of the key counts: another snapshot object (even an equal
  one), module, ``strict`` or mutation set recovers afresh;
* a recovery that raised is never shared: it runs, and raises, again at
  every point that holds its snapshot;
* a snapshot tampered in place after its recovery is recovered afresh at
  the next point;
* with ``previous`` forced to ``None``, campaigns on genome, ocean (four
  harts), hot-writeback and deep-call, under the clean and all fault
  models, strict and lenient, at depths 1 and 2, with the checker on and
  off, give identical results;
* the protocol runs: 388 for the 5,772 points of the exhaustive genome
  campaign (scale 0.3, threshold 32), 1,710 for the 11,657 points of the
  64-program litmus corpus.

The litmus corpus, faithful and under each planted mutant, is compared
with all sharing off in ``test_shared_snapshots.py``.
"""

from __future__ import annotations

import random
from dataclasses import asdict, replace

import pytest

import repro.arch.recovery as recovery
import repro.fault.campaign as campaign
from repro.api import RunSpec, build_spec
from repro.arch.persistence import ProtocolMutations
from repro.arch.recovery import TornEntryError, recover
from repro.compiler import OptConfig
from repro.fault.campaign import (
    CampaignConfig,
    run_campaign,
    run_crash_point,
    run_workload_campaign,
)
from repro.fault.models import apply_faults, get_models
from repro.litmus.generate import litmus_corpus
from repro.litmus.matrix import run_litmus_program
from repro.trace.replay import TraceCampaignSource

from tests.arch.conftest import build_update_loop, compile_capri


def _unshared(patch) -> None:
    """Force ``previous`` to ``None`` wherever the campaign and the
    litmus matrix recover (the matrix looks ``recover`` up per call)."""
    real = recovery.recover

    def recover(state, module, strict=True, mutations=None, previous=None):
        return real(state, module, strict=strict, mutations=mutations)

    patch.setattr(recovery, "recover", recover)
    patch.setattr(campaign, "recover", recover)


def _count_protocol_runs(patch) -> list:
    """Count the protocol runs ``recover`` starts (chain re-entries call
    ``run_recovery`` through the campaign's own name, and stay out)."""
    runs = []
    real = recovery.run_recovery

    def run_recovery(*args, **kwargs):
        runs.append(1)
        return real(*args, **kwargs)

    patch.setattr(recovery, "run_recovery", run_recovery)
    return runs


# ------------------------------------------------------------------ the key


@pytest.fixture(scope="module")
def program():
    module = compile_capri(build_update_loop(n_iters=40, arr_words=16))
    return module, [("main", [])]


def _config(**overrides):
    return CampaignConfig(threshold=32, minimize=False, **overrides)


@pytest.fixture(scope="module")
def redo_point(program):
    """A snapshot whose buffers hold committed redo that recovery must
    apply (skipping it changes the recovered image), with its torn
    clone."""
    module, spawns = program
    source = TraceCampaignSource(module, spawns, _config())
    skip = ProtocolMutations.single("recovery_skip_redo")
    for k in range(source.golden.total_events):
        state, _, _ = source.capture_at(k)
        if state is None:
            break
        if recover(state, module).nvm_image != recover(
            state, module, mutations=skip
        ).nvm_image:
            torn, notes = apply_faults(
                state, get_models(["torn-entry"]), random.Random(k)
            )
            if notes:
                return state, torn
    raise AssertionError("no point with committed redo in the buffers")


def test_same_snapshot_and_arguments_share(program, redo_point):
    module, _ = program
    state, _ = redo_point
    first = recover(state, module)
    assert first.snapshot is state
    assert recover(state, module, previous=first) is first
    assert recover(state, module, True, None, previous=first) is first


def test_another_snapshot_object_recovers_afresh(program, redo_point):
    """An equal clone is not the same snapshot: only identity shares."""
    module, _ = program
    state, _ = redo_point
    first = recover(state, module)
    clone = state.clone()
    again = recover(clone, module, previous=first)
    assert again is not first and again.snapshot is clone
    assert again.nvm_image == first.nvm_image


def test_another_module_recovers_afresh(program, redo_point):
    module, _ = program
    state, _ = redo_point
    first = recover(state, module)
    other = compile_capri(build_update_loop(n_iters=40, arr_words=16))
    assert recover(state, other, previous=first) is not first


def test_strict_is_part_of_the_key(program, redo_point):
    """Lenient recovery quarantines a torn entry; strict recovery of the
    same snapshot must still refuse it."""
    module, _ = program
    _, torn = redo_point
    lenient = recover(torn, module, strict=False)
    assert not lenient.report.clean
    with pytest.raises(TornEntryError):
        recover(torn, module, strict=True, previous=lenient)


def test_mutations_are_part_of_the_key(program, redo_point):
    module, _ = program
    state, _ = redo_point
    skip = ProtocolMutations.single("recovery_skip_redo")
    faithful = recover(state, module)
    skipped = recover(state, module, mutations=skip, previous=faithful)
    assert skipped is not faithful
    assert skipped.nvm_image == recover(state, module, mutations=skip).nvm_image
    assert skipped.nvm_image != faithful.nvm_image
    # An equal mutation set is the same key.
    assert recover(
        state, module, mutations=ProtocolMutations.single("recovery_skip_redo"),
        previous=skipped,
    ) is skipped


class _OneSnapshot:
    """A crash source that serves one snapshot object at every point, as
    the replay source does while the persistent domain is unchanged."""

    rebuilds = 0

    def __init__(self, state, golden, points: int) -> None:
        self.state = state
        self.golden = replace(golden, total_events=points)

    def capture_at(self, event_index: int):
        return self.state, [], None


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_a_recovery_that_raised_runs_again(program, redo_point, strict, monkeypatch):
    """Strict recovery refuses the torn snapshot at every point that holds
    it, each time by running the protocol; lenient recovery of the same
    points runs it once."""
    module, spawns = program
    _, torn = redo_point
    golden = TraceCampaignSource(module, spawns, _config()).golden
    source = _OneSnapshot(torn, golden, points=5)
    runs = _count_protocol_runs(monkeypatch)
    result = run_campaign(module, spawns, _config(strict=strict), source=source)
    statuses = {o.status for o in result.outcomes}
    if strict:
        assert statuses == {"error"}
        assert "TornEntryError" in result.outcomes[-1].detail
        assert len(runs) == 5 and result.recoveries == 0
    else:
        assert "error" not in statuses
        assert len(runs) == 1 and result.recoveries == 1


def _point_by_point(program, tamper_at=None):
    """Run every point of a clean campaign, each passed the previous
    point's recovery; after point ``tamper_at``'s recovery, edit its
    snapshot in place.  Returns ``[(outcomes, recovered), ...]``."""
    module, spawns = program
    config = _config()
    models = get_models(["clean"])
    source = TraceCampaignSource(module, spawns, config)
    points = []
    recovered = None
    for k in range(source.golden.total_events):
        outcomes, _, recovered = run_crash_point(
            module, spawns, k, models, config, source, recovered
        )
        points.append((outcomes, recovered))
        if k == tamper_at:
            image = recovered.snapshot.nvm_image
            image[next(iter(image))] ^= 1
    return points


def test_snapshot_tampered_after_its_recovery_recovers_afresh(program):
    module, _ = program
    points = _point_by_point(program)
    k = next(
        k
        for k in range(len(points) - 1)
        if points[k + 1][1] is points[k][1] and points[k][1].snapshot.nvm_image
    )
    tampered = _point_by_point(program, tamper_at=k)
    held = tampered[k][1]
    outcomes, again = tampered[k + 1]
    assert again is not held
    assert again.snapshot is not held.snapshot
    assert again.snapshot.nvm_image != held.snapshot.nvm_image
    assert again.nvm_image == points[k + 1][1].nvm_image
    assert outcomes == points[k + 1][0]
    assert outcomes[0].status == "ok"


# ------------------------------------------------------- sharing-off parity


class _Window:
    """The replay source, judged at ``points`` consecutive events from
    ``start`` on: a dense stretch of a long run, where consecutive points
    share snapshots as they do in an exhaustive campaign."""

    def __init__(self, source, start: int, points: int) -> None:
        self.source = source
        self.start = start
        self.golden = replace(source.golden, total_events=points)

    @property
    def rebuilds(self) -> int:
        return self.source.rebuilds

    def capture_at(self, event_index: int):
        return self.source.capture_at(self.start + event_index)


#: name -> (scale, window start or None for every event)
WORKLOADS = {
    "genome": (0.05, None),
    "ocean": (0.05, 20_000),
    "hot-writeback": (0.05, None),
    "deep-call": (0.05, None),
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload(request):
    name = request.param
    scale, start = WORKLOADS[name]
    module, spawns = build_spec(
        RunSpec(workload=name, scale=scale, config=OptConfig.licm(32))
    )
    return name, module, spawns, start


def _campaign(workload, config):
    name, module, spawns, start = workload
    source = TraceCampaignSource(module, spawns, config)
    if config.depth > 1 and start is None:
        start = source.golden.total_events // 2
    if start is not None:
        source = _Window(source, start, 30 if config.depth > 1 else 60)
    return run_campaign(module, spawns, config, name=name, source=source)


def _fields(result) -> dict:
    """Every outcome field, less the count of protocol runs."""
    fields = asdict(result)
    del fields["recoveries"]
    return fields


@pytest.mark.parametrize("check", [False, True], ids=["unchecked", "checked"])
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
@pytest.mark.parametrize("models", ["clean", "all"])
def test_sharing_off_gives_the_same_campaign(
    workload, models, strict, depth, check, monkeypatch
):
    config = _config(
        models=(models,),
        strict=strict,
        depth=depth,
        check=check,
        secondary_sample=3,
        max_chains_per_point=6,
    )
    shared = _campaign(workload, config)
    with monkeypatch.context() as patch:
        _unshared(patch)
        fresh = _campaign(workload, config)
    assert _fields(shared) == _fields(fresh)
    assert shared.outcomes
    if models == "clean":
        # Consecutive clean points share; faulted points recover clones.
        assert 0 < shared.recoveries < fresh.recoveries
    else:
        assert shared.recoveries == fresh.recoveries


# ----------------------------------------------------------- protocol runs


def test_genome_campaign_runs_the_protocol_once_per_distinct_snapshot(monkeypatch):
    runs = _count_protocol_runs(monkeypatch)
    result = run_workload_campaign(
        "genome", CampaignConfig(threshold=32, minimize=False), scale=0.3
    )
    assert len(result.outcomes) == result.total_events == 5_772
    assert result.counts() == {"ok": 5_772}
    assert result.recoveries == len(runs) == 388
    assert "5772 of 5772 events; 388 recoveries computed" in result.summary()
    assert "recoveries" not in result.to_stats()


def test_litmus_corpus_runs_the_protocol_once_per_distinct_snapshot(monkeypatch):
    runs = _count_protocol_runs(monkeypatch)
    verdicts = [run_litmus_program(program) for program in litmus_corpus(range(64))]
    assert sum(v.crash_points for v in verdicts) == 11_657
    assert sum(v.forbidden for v in verdicts) == 0
    assert len(runs) == 1_710


def test_litmus_corpus_with_recoveries_unshared(monkeypatch):
    """Recovery sharing alone off (snapshots still shared): the same
    verdict payloads, and one protocol run per point."""
    corpus = litmus_corpus(range(64))
    shared = [run_litmus_program(p).to_payload() for p in corpus]
    with monkeypatch.context() as patch:
        _unshared(patch)
        runs = _count_protocol_runs(patch)
        fresh = [run_litmus_program(p).to_payload() for p in corpus]
    for payload in shared + fresh:
        del payload["elapsed"]
    assert shared == fresh
    assert len(runs) == sum(p["crash_points"] for p in fresh) == 11_657

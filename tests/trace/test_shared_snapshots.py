"""Shared crash snapshots and checks match fresh captures.

A crash point whose persistent domain did not change since the previous
point gets the previous point's snapshot back
(:func:`~repro.arch.crash.capture_crash_state` with ``previous``), and
:class:`~repro.trace.replay.TraceCampaignSource` then skips the
crash-state comparison when the checker's model did not change either
and the previous comparison was clean.  These tests pin both rules:

* a shared snapshot holds exactly what a fresh capture would;
* a snapshot edited in place, in any of its containers, is never handed
  out again;
* every model mutator moves the model version, and a model change with
  an unchanged domain (a writeback the checker saw) re-runs the
  comparison;
* a comparison that flagged a violation is never reused;
* with sharing turned off, every litmus corpus program, faithful and
  under each planted mutant, produces the same per-point judgements,
  per-point checker reports and verdict payload.
"""

from __future__ import annotations

import pytest

import repro.litmus.matrix as matrix
import repro.trace.replay as replay
from repro.arch.crash import CrashState, capture_crash_state
from repro.arch.nvm import WpqRecord
from repro.arch.persistence import ProtocolMutations
from repro.check.model import PersistencyModel
from repro.check.mutants import MUTANT_EXPECTATIONS
from repro.check.violations import STALE_REDO_OVERWRITE
from repro.fault.campaign import CampaignConfig
from repro.litmus.generate import generate_program, litmus_corpus
from repro.litmus.matrix import litmus_params, run_litmus_program
from repro.trace.replay import TraceCampaignSource


def _contents(state: CrashState) -> tuple:
    """Everything recovery reads, entries and records by identity."""
    return (
        state.nvm_image,
        [[id(e) for e in entries] for entries in state.core_entries],
        state.num_cores,
        state.pc_checkpoints,
        [id(r) for r in state.wpq],
        state.ckpt_shadow,
    )


@pytest.fixture(scope="module")
def program():
    return generate_program(1)


def _source(program, check=True, throttled=True):
    return TraceCampaignSource(
        program.module,
        program.spawns,
        CampaignConfig(
            threshold=32,
            quantum=program.quantum,
            params=litmus_params(throttled),
            check=check,
        ),
    )


def test_shared_snapshot_equals_a_fresh_capture(program):
    source = _source(program)
    previous = None
    shared = 0
    for k in range(len(source.trace)):
        state, _, _ = source.capture_at(k)
        fresh = capture_crash_state(source.system)
        assert fresh is not state
        assert _contents(state) == _contents(fresh), k
        shared += state is previous
        previous = state
    # Most points of a litmus matrix leave the domain as it was.
    assert shared > len(source.trace) // 2


def _full_point(program):
    """A replay system advanced to a point whose snapshot has every
    container non-empty, and that snapshot (un-throttled drains reach
    the checkpoint array early)."""
    source = _source(program, check=False, throttled=False)
    for k in range(len(source.trace)):
        state, _, _ = source.capture_at(k)
        if (
            any(state.core_entries)
            and state.wpq
            and state.pc_checkpoints
            and state.ckpt_shadow
            and state.nvm_image
        ):
            return source.system, state
    raise AssertionError("no point with every container filled")


def _swap_entry(state):
    entries = next(entries for entries in state.core_entries if entries)
    entries[0] = entries[0].clone()


def _swap_wpq_record(state):
    rec = state.wpq[0]
    state.wpq[0] = WpqRecord(rec.addr, rec.value, rec.prev, rec.checksum)


def _retarget_pc(state):
    core, (cont, region_id) = next(iter(state.pc_checkpoints.items()))
    state.pc_checkpoints[core] = (cont, region_id + 1)


def _flip_shadow(state):
    slot = next(iter(state.ckpt_shadow))
    state.ckpt_shadow[slot] ^= 1


def _flip_image(state):
    addr = next(iter(state.nvm_image))
    state.nvm_image[addr] ^= 1


@pytest.mark.parametrize(
    "tamper",
    [_swap_entry, _swap_wpq_record, _retarget_pc, _flip_shadow, _flip_image],
    ids=["core_entries", "wpq", "pc_checkpoints", "ckpt_shadow", "nvm_image"],
)
def test_snapshot_edited_in_place_is_not_shared(program, tamper):
    system, _ = _full_point(program)
    state = capture_crash_state(system)
    assert capture_crash_state(system, state) is state
    expect = _contents(capture_crash_state(system))
    tamper(state)
    fresh = capture_crash_state(system, state)
    assert fresh is not state
    assert _contents(fresh) == expect


def test_snapshot_of_another_core_count_is_not_shared(program):
    system, _ = _full_point(program)
    state = capture_crash_state(system)
    state.core_entries.append([])
    assert capture_crash_state(system, state) is not state


# ---------------------------------------------------------------- model version


def _mirror_addr(model: PersistencyModel) -> int:
    for cm in model.cores.values():
        for addr in cm.merge_map:
            return addr
    raise AssertionError("no live entry")


_MUTATORS = {
    "machine_store": lambda m: m.machine_store(0, 0x100, 1, 0),
    "machine_ckpt": lambda m: m.machine_ckpt(0, 0x4000_0000, 1),
    "machine_boundary": lambda m: m.machine_boundary(0, 0, None),
    "entry_created": lambda m: m.entry_created(0, 0, 0x100, 0, 1),
    "entry_merged": lambda m: m.entry_merged(0, 0, 0x100, 2),
    "redo_drained": lambda m: m.redo_drained(0, 0, 0x100, 2),
    "redo_skipped": lambda m: m.redo_skipped(0, 0, 0x100),
    "boundary_drained": lambda m: m.boundary_drained(0, 0, 0, None, {}, True),
    "writeback": lambda m: m.writeback(0x100, 3),
}


@pytest.mark.parametrize("mutator", sorted(_MUTATORS))
def test_every_mutator_moves_the_version(mutator):
    model = PersistencyModel()
    model.machine_store(0, 0x100, 1, 0)
    model.entry_created(0, 0, 0x100, 0, 1)
    before = model.version
    _MUTATORS[mutator](model)
    assert model.version > before


def _point_with_live_entry(source):
    for k in range(len(source.trace)):
        state, _, facade = source.capture_at(k)
        model = source.checker.model
        if facade.report.ok and any(cm.merge_map for cm in model.cores.values()):
            return k
    raise AssertionError("no clean point with a live entry")


def test_model_change_with_unchanged_domain_rechecks(program):
    """A writeback that reaches the checker but not the system leaves the
    domain as it was; the comparison must still run, and it must keep
    running while its violation stands."""
    source = _source(program)
    k = _point_with_live_entry(source)
    state, _, _ = source.capture_at(k)
    checks = source.checker.model.checks
    again, _, facade = source.capture_at(k)
    assert again is state and facade.report.ok
    assert source.checker.model.checks == checks + 1  # skipped, still counted

    source.checker.on_writeback(_mirror_addr(source.checker.model), -1)
    for _ in range(2):
        shared, _, facade = source.capture_at(k)
        assert shared is state
        kinds = {v.kind for v in facade.report.violations}
        assert STALE_REDO_OVERWRITE in kinds


def test_rebuild_captures_afresh(program):
    source = _source(program)
    late, _, _ = source.capture_at(len(source.trace) - 2)
    early, _, _ = source.capture_at(1)  # behind the cursor: rebuild
    assert source.rebuilds == 1
    assert early is not late
    assert _contents(early) == _contents(capture_crash_state(source.system))


# ---------------------------------------------------------------- sharing off


def _record_run(program, mutations, monkeypatch):
    """One matrix run's per-point judgements and checker reports, and
    its verdict payload less the timing."""
    judged = []
    reports = []
    judge = matrix._judge_point
    capture_at = TraceCampaignSource.capture_at

    def judge_point(program, k, snap, state, *rest):
        failures, checks = judge(program, k, snap, state, *rest)
        judged.append((k, failures, checks))
        return failures, checks

    def record_capture(self, k):
        state, io, facade = capture_at(self, k)
        report = facade.report
        reports.append((
            k,
            list(report.violations),
            report.checks,
            report.suppressed,
            report.events,
        ))
        return state, io, facade

    with monkeypatch.context() as patch:
        patch.setattr(matrix, "_judge_point", judge_point)
        patch.setattr(TraceCampaignSource, "capture_at", record_capture)
        payload = run_litmus_program(program, mutations=mutations).to_payload()
    del payload["elapsed"]
    return judged, reports, payload


@pytest.fixture(scope="module")
def corpus():
    return litmus_corpus(range(64))


@pytest.mark.parametrize("mutant", [None, *MUTANT_EXPECTATIONS])
def test_sharing_off_gives_the_same_payloads(corpus, mutant, monkeypatch):
    mutations = ProtocolMutations.single(mutant) if mutant else None
    real = replay.capture_crash_state

    def unshared(system, previous=None):
        return real(system)

    for program in corpus:
        shared = _record_run(program, mutations, monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(replay, "capture_crash_state", unshared)
            fresh = _record_run(program, mutations, monkeypatch)
        assert shared == fresh, (program.name, mutant)

"""Unit tests of the litmus outcome oracle — a read-only projection of
the reference automaton's contribution rule — plus agreement with a
frozen, independently written copy of that rule."""

from typing import Dict, Optional

from repro.check.model import PersistencyModel
from repro.isa.trace import Observer
from repro.litmus.generate import generate_program, litmus_corpus
from repro.litmus.oracle import (
    OutcomeSnapshot,
    multi_writer_addrs,
    oracle_snapshots,
    outcome_snapshot,
    per_core_last_writes,
)
from repro.trace.record import capture_trace

A, B = 0x10000, 0x10040


def allowed(model, addr):
    return frozenset(model.allowed_values(addr))


def committed_region(model, core):
    last = model.cores[core].last_committed()
    return None if last is None else last.region_id


class TestContributionRule:
    def test_untouched_is_baseline(self):
        m = PersistencyModel()
        assert allowed(m, A) == frozenset((0,))
        m.on_store(0, B, 5, 3)  # touching B records B's baseline, not A's
        assert m.baseline == {B: 3}
        assert allowed(m, A) == frozenset((0,))

    def test_open_store_contributes_rollback(self):
        m = PersistencyModel()
        m.on_store(0, A, 5, 0)
        # uncommitted: recovery rolls the store back to the undo word
        assert allowed(m, A) == frozenset((0,))
        m.on_store(0, A, 6, 5)
        # first-open undo wins, not the last one
        assert allowed(m, A) == frozenset((0,))

    def test_commit_moves_contribution_to_redo(self):
        m = PersistencyModel()
        m.on_store(0, A, 5, 0)
        m.on_boundary(0, 1, None)
        assert allowed(m, A) == frozenset((5,))
        m.on_store(0, A, 9, 5)
        # committed 5 is now this core's rollback target
        assert allowed(m, A) == frozenset((5,))
        m.on_boundary(0, 2, None)
        assert allowed(m, A) == frozenset((9,))

    def test_two_cores_contribute_independently(self):
        m = PersistencyModel()
        m.on_store(0, A, 5, 0)
        m.on_boundary(0, 1, None)
        m.on_store(1, A, 9, 5)
        m.on_boundary(1, 1, None)
        assert allowed(m, A) == frozenset((5, 9))

    def test_empty_region_commits_nothing(self):
        m = PersistencyModel()
        m.on_store(0, A, 5, 0)
        m.on_boundary(1, 3, None)  # *other* core's empty boundary
        assert committed_region(m, 1) is None
        assert allowed(m, A) == frozenset((0,))

    def test_spawn_region_always_commits(self):
        m = PersistencyModel()
        m.on_boundary(0, -1, None)
        assert committed_region(m, 0) == -1

    def test_staging_forces_commit(self):
        m = PersistencyModel()
        m.on_ckpt(0, 2, 77, 0x20000)
        m.on_boundary(0, 4, None)
        assert committed_region(m, 0) == 4

    def test_snapshot_allows(self):
        m = PersistencyModel()
        m.on_store(0, A, 5, 0)
        m.on_boundary(0, 1, None)
        snap = outcome_snapshot(m)
        assert snap.allows(A, 5)
        assert not snap.allows(A, 0)
        assert snap.allows(B, 0)  # untouched addr: baseline only


class TestTraceDerivations:
    def test_snapshots_bracket_the_trace(self):
        p = generate_program(0)
        trace = capture_trace(p.module, p.spawns, quantum=p.quantum)
        snaps = oracle_snapshots(trace)
        assert len(snaps) == len(trace) + 1
        # before anything ran, everything is baseline
        assert snaps[0].allowed == {}
        assert snaps[0].committed_region == {}
        # allowed sets only ever cover touched addrs
        assert set(snaps[-1].allowed) <= set(p.addrs)
        # every hart committed its final explicit region by the end
        final_regions = set(snaps[-1].committed_region.values())
        assert final_regions == {p.metadata["regions"] - 1}

    def test_multi_writer_addrs_are_shared_only(self):
        p = generate_program(0)
        trace = capture_trace(p.module, p.spawns, quantum=p.quantum)
        mw = multi_writer_addrs(trace)
        assert set(mw) <= set(p.shared_addrs)
        assert mw, "hart 0 pins slot 0 — some word must be contended"
        finals = per_core_last_writes(trace)
        for addr in mw:
            assert len(finals[addr]) > 1

    def test_agrees_with_reference_automaton(self):
        """The projection equals the frozen reference rule at every
        crash index of the 64-program corpus, multi-writer sets
        included."""
        checked = multi = 0
        for p in litmus_corpus(range(64)):
            trace = capture_trace(p.module, p.spawns, quantum=p.quantum)
            ref = _ReferenceRule()
            snaps = oracle_snapshots(trace)
            assert len(snaps) == len(trace) + 1
            for k, snap in enumerate(snaps):
                if k:
                    trace.deliver(ref, start=k - 1, stop=k)
                want = ref.snapshot()
                assert snap.allowed == want.allowed, (p.name, k)
                assert snap.committed_region == want.committed_region, (p.name, k)
                multi += sum(len(v) > 1 for v in want.allowed.values())
                checked += 1
        assert checked > 10_000
        assert multi, "the corpus must exercise multi-writer sets"


class _RefCore:
    __slots__ = ("open_first_old", "open_last", "staging", "committed_last", "committed_region")

    def __init__(self) -> None:
        self.open_first_old: Dict[int, int] = {}
        self.open_last: Dict[int, int] = {}
        self.staging: Dict[int, int] = {}
        self.committed_last: Dict[int, int] = {}
        self.committed_region: Optional[int] = None


class _ReferenceRule(Observer):
    """The contribution rule written out independently of the model and
    frozen here: first-open undo, else last committed redo, else the
    baseline; a boundary commits iff its region has open stores, staged
    checkpoints, or is the spawn region (id ``-1``)."""

    def __init__(self) -> None:
        self.cores: Dict[int, _RefCore] = {}
        self.baseline: Dict[int, int] = {}

    def _core(self, core: int) -> _RefCore:
        return self.cores.setdefault(core, _RefCore())

    def on_store(self, core, addr, value, old):
        st = self._core(core)
        self.baseline.setdefault(addr, old)
        st.open_first_old.setdefault(addr, old)
        st.open_last[addr] = value

    on_atomic = on_store

    def on_ckpt(self, core, reg, value, addr):
        self._core(core).staging[addr] = value

    def on_boundary(self, core, region_id, continuation):
        st = self._core(core)
        if st.open_last or st.staging or region_id == -1:
            st.committed_last.update(st.open_last)
            st.committed_region = region_id
            st.open_first_old = {}
            st.open_last = {}
            st.staging = {}

    def allowed_for(self, addr):
        out = set()
        for st in self.cores.values():
            if addr in st.open_first_old:
                out.add(st.open_first_old[addr])
            elif addr in st.committed_last:
                out.add(st.committed_last[addr])
        return frozenset(out or (self.baseline.get(addr, 0),))

    def snapshot(self) -> OutcomeSnapshot:
        return OutcomeSnapshot(
            allowed={addr: self.allowed_for(addr) for addr in self.baseline},
            committed_region={
                core: st.committed_region for core, st in self.cores.items()
            },
        )

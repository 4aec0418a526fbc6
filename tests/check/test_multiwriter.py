"""Multi-writer membership checks.

For addresses written by more than one core the cross-core commit
order is ambiguous, so the checker cannot demand an exact value — but
region-level strict persistency still pins the *candidate set*: every
touching core contributes exactly one value (its rollback target while
a region is open, its latest committed redo otherwise), and recovery
must land on one of them.  These tests drive
:meth:`PersistencyModel.allowed_values` directly, then stress the full
checker on a Splash-3 stand-in at 4 harts where lock words and shared
counters are genuinely contended.
"""

import pytest

from repro.api import RunSpec, build_spec
from repro.arch.crash import CrashPlan, run_built_until_crash
from repro.arch.params import SimParams
from repro.arch.recovery import recover
from repro.arch.system import build_system
from repro.check.checker import PersistencyChecker
from repro.check.model import MULTI_WRITER, PersistencyModel
from repro.check.mutants import checked_run
from repro.check.violations import LOST_REDO
from repro.compiler import OptConfig
from repro.isa.trace import TeeObserver

CONT = "resume@loop"
A = 0x100
THRESHOLD = 32
HARTS = 4


def stress_params() -> SimParams:
    """Full-size caches (no regular-path writebacks, so no membership
    skips) with a throttled write port to keep the proxy FIFOs deep."""
    return SimParams.scaled().with_(nvm_write_parallelism=8)


class TestAllowedValues:
    def test_untouched_addr_is_baseline(self):
        m = PersistencyModel()
        assert m.allowed_values(A) == {0}

    def test_committed_last_per_core(self):
        m = PersistencyModel()
        m.machine_store(0, A, 5, 0)
        m.machine_boundary(0, 1, CONT)
        m.machine_store(1, A, 9, 5)
        m.machine_boundary(1, 2, CONT)
        assert m.writers[A] == MULTI_WRITER
        assert m.allowed_values(A) == {5, 9}
        assert m.multi_writer_addrs() == [A]
        assert m.single_writer_addrs() == []

    def test_open_store_contributes_rollback_target(self):
        m = PersistencyModel()
        m.machine_store(0, A, 5, 0)
        m.machine_boundary(0, 1, CONT)
        # Core 1 stores over core 0's committed value but never commits:
        # recovery undoes it back to 5, so 9 must NOT be allowed.
        m.machine_store(1, A, 9, 5)
        assert m.allowed_values(A) == {5}
        # ... unless rollback is out of scope (finalize: nothing open).
        assert m.allowed_values(A, include_rollback=False) == {5}

    def test_rollback_target_is_first_old_of_open_run(self):
        m = PersistencyModel()
        m.machine_store(0, A, 5, 0)
        m.machine_store(0, A, 6, 5)  # same open region, merged store
        # Undo replays in reverse: the region rolls back to 0, not 5.
        assert m.allowed_values(A) == {0}

    def test_reopened_word_rolls_back_past_own_commit(self):
        m = PersistencyModel()
        m.machine_store(0, A, 5, 0)
        m.machine_boundary(0, 1, CONT)
        m.machine_store(1, A, 9, 5)
        m.machine_boundary(1, 2, CONT)
        # Core 0 reopens the word over core 1's commit: its rollback
        # target is 9 (the word before its open store), not its own
        # committed 5.
        m.machine_store(0, A, 7, 9)
        assert m.allowed_values(A) == {9}
        assert m.allowed_values(A, include_rollback=False) == {5, 9}

    def test_committed_last_tracks_latest_region(self):
        m = PersistencyModel()
        m.machine_store(0, A, 5, 0)
        m.machine_boundary(0, 1, CONT)
        m.machine_store(0, A, 7, 5)
        m.machine_boundary(0, 2, CONT)
        m.machine_store(1, A, 9, 7)
        m.machine_boundary(1, 3, CONT)
        # Core 0's older redo (5) is superseded in its own FIFO; only
        # each core's latest committed value can be the last to land.
        assert m.allowed_values(A) == {7, 9}

    def test_writeback_addrs_are_recorded_even_without_prevention(self):
        m = PersistencyModel(stale_read_prevention=False)
        m.writeback(A, 42)
        assert A in m.wb_addrs


@pytest.fixture(scope="module")
def ocean():
    module, spawns = build_spec(
        RunSpec(workload="ocean", scale=0.5, config=OptConfig.licm(THRESHOLD))
    )
    assert len(spawns) == HARTS
    return module, spawns


@pytest.fixture(scope="module")
def contended():
    """4 harts doing nothing but locked shared-counter updates
    (ocean's synchronisation phase, isolated), so the lock word and the
    counter slots are multi-writer from the first few quanta — unlike
    ocean itself, whose disjoint grid phase fills ~97% of the run.
    Returns (module, spawns, crash_point) with the crash landing
    mid-contention."""
    from repro.compiler import CapriCompiler, OptConfig
    from repro.ir.builder import IRBuilder
    from repro.ir.verifier import verify_module
    from repro.workloads.generators import emit_locked_update

    b = IRBuilder("mw_stress")
    lock = b.module.alloc("lock", 1)
    shared = b.module.alloc("shared", 8)
    with b.function("worker", params=["tid", "trips"]) as f:
        emit_locked_update(f, lock, f.li(shared), 8, f.param(1), f.param(0))
        f.ret(f.param(0))
    verify_module(b.module)
    config = OptConfig.licm().with_threshold(THRESHOLD)
    module = CapriCompiler(config).compile(b.module).module
    spawns = [("worker", [t, 12]) for t in range(HARTS)]
    checker, error = checked_run(module, spawns, stress_params(), THRESHOLD)
    assert error is None and checker.report.ok, checker.report.summary()
    assert checker.model.multi_writer_addrs()
    return module, spawns, int(checker.report.events * 0.6)


def checkable(model):
    """Multi-writer words the membership checks cover (no writeback)."""
    return [a for a in model.multi_writer_addrs() if a not in model.wb_addrs]


class TestSplashStress:
    def test_clean_run_checks_multi_writer_words(self, ocean):
        module, spawns = ocean
        machine, system = build_system(
            module, spawns, params=stress_params(), threshold=THRESHOLD
        )
        checker = PersistencyChecker.attach(system)
        machine.run(TeeObserver(checker, system))
        system.finish()
        checker.finalize(system)
        assert checker.report.ok, checker.report.summary()
        # The lock word and the shared counters are contended by all
        # 4 harts — the membership checks must actually have fired:
        # corrupting one such word in the final image is caught.
        victims = checkable(checker.model)
        assert victims
        system.nvm.image[victims[0]] = 0xDEADBEEF
        checker.finalize(system)
        flagged = [(v.kind, v.core, v.addr) for v in checker.report.violations]
        assert flagged == [(LOST_REDO, -1, victims[0])]

    def test_crash_recover_membership_clean(self, contended):
        module, spawns, crash_point = contended
        machine, system = build_system(
            module, spawns, params=stress_params(), threshold=THRESHOLD
        )
        checker = PersistencyChecker.attach(system)
        state = run_built_until_crash(
            machine, system, CrashPlan(crash_point), extra_observer=checker
        )
        assert state is not None
        checker.check_crash_state(state)
        recovered = recover(state, module)
        checker.check_recovered(recovered)
        assert checker.report.ok, checker.report.summary()
        # Nothing was quarantined and contended words remain checkable,
        # so the membership checks covered them (the next test shows a
        # corrupted one is caught).
        assert not recovered.report.quarantined_cores
        assert checkable(checker.model)

    def test_tampered_multi_writer_word_is_flagged(self, contended):
        module, spawns, crash_point = contended
        machine, system = build_system(
            module, spawns, params=stress_params(), threshold=THRESHOLD
        )
        checker = PersistencyChecker.attach(system)
        state = run_built_until_crash(
            machine, system, CrashPlan(crash_point), extra_observer=checker
        )
        recovered = recover(state, module)
        victims = checkable(checker.model)
        assert victims, "stress workload must leave checkable contended words"
        recovered.nvm_image[victims[0]] = 0xDEADBEEF
        checker.check_recovered(recovered)
        assert not checker.report.ok
        assert LOST_REDO in checker.report.kinds()

    def test_quarantine_skips_membership(self, contended):
        module, spawns, crash_point = contended
        machine, system = build_system(
            module, spawns, params=stress_params(), threshold=THRESHOLD
        )
        checker = PersistencyChecker.attach(system)
        state = run_built_until_crash(
            machine, system, CrashPlan(crash_point), extra_observer=checker
        )
        recovered = recover(state, module)
        recovered.report.quarantined_cores.append(0)
        victims = checkable(checker.model)
        recovered.nvm_image[victims[0]] = 0xDEADBEEF
        checker.check_recovered(recovered)
        # The same corruption is flagged without a quarantine (previous
        # test); with one, the membership checks stand down.
        assert checker.report.ok, checker.report.summary()

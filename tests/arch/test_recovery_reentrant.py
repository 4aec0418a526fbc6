"""Re-entrant recovery: the protocol itself is crashable and idempotent.

The tentpole contract (docs/INTERNALS.md §5.6): recovery executes as an
ordered sequence of durable steps over the persistent domain, keeps its
inputs (proxy buffers, WPQ journal) intact until a final recovery-complete
commit, and therefore converges — re-running recovery over a
recovery-crashed domain produces a state bit-identical to an
uninterrupted recovery.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.crash import (
    CrashInjector,
    CrashPlan,
    PowerFailure,
    run_until_crash,
)
from repro.arch.recovery import recover, resume_and_finish, run_recovery
from repro.fault.models import apply_faults, get_models
from repro.fault.campaign import diff_recoveries
from repro.fault.oracle import differential_check, golden_run
from repro.isa.trace import Observer

from tests.arch.conftest import (
    build_pointer_chase,
    build_update_loop,
    compile_capri,
    data_memory,
)


def _crash_state(module, spawns, at):
    return run_until_crash(module, spawns, CrashPlan(at), threshold=32)


def _reenter(domain, module, at_step, strict=False):
    """Crash recovery at durable step ``at_step``; return the crashed
    domain, or None if recovery finished first (plan past end)."""
    work = domain.clone()
    injector = CrashInjector(
        None, CrashPlan(at_event=at_step), capture=lambda: work
    )
    try:
        run_recovery(work, module, strict=strict, observer=injector)
    except PowerFailure as pf:
        return pf.state
    return None


class TestStepEngine:
    def test_step_engine_matches_recover(self):
        """run_recovery over a clone is the same protocol recover() runs:
        identical image, resumes, shadow, report, and stats."""
        module = compile_capri(build_update_loop(n_iters=30))
        state = _crash_state(module, [("main", [])], 400)
        assert state is not None
        a = recover(state, module)
        b = run_recovery(state.clone(), module)
        assert diff_recoveries(a, b) is None
        assert b.steps > 0 and b.committed

    def test_observer_sees_every_durable_step(self):
        """Each durable step emits exactly one observer event — the hook
        CrashInjector counts — so steps == events."""

        class Counter(Observer):
            def __init__(self):
                self.events = 0

            def on_store(self, *a, **k):
                self.events += 1

            def on_ckpt(self, *a, **k):
                self.events += 1

            def on_boundary(self, *a, **k):
                self.events += 1

            def on_fence(self, *a, **k):
                self.events += 1

        module = compile_capri(build_update_loop(n_iters=30))
        state = _crash_state(module, [("main", [])], 400)
        assert state is not None
        counter = Counter()
        rec = run_recovery(state.clone(), module, observer=counter)
        assert counter.events == rec.steps >= 1

    def test_commit_clears_durable_inputs(self):
        """The final commit step retires the proxy journal: entries and
        WPQ cleared, PC checkpoints replaced by the resume continuations."""
        module = compile_capri(build_update_loop(n_iters=30))
        state = _crash_state(module, [("main", [])], 400)
        domain = state.clone()
        rec = run_recovery(domain, module)
        assert rec.committed
        assert all(not es for es in domain.core_entries)
        assert domain.wpq == []
        for core, resume in enumerate(rec.resumes):
            if resume is not None:
                cont, rid = domain.pc_checkpoints[core]
                assert cont == resume.continuation
                assert rid == resume.region_id


class TestReentry:
    def test_reentry_bit_identical_at_every_step(self):
        """Crash recovery at every durable step; re-entering over the
        crashed domain must reproduce the uninterrupted recovery exactly."""
        module = compile_capri(build_update_loop(n_iters=20))
        state = _crash_state(module, [("main", [])], 300)
        assert state is not None
        ref = run_recovery(state.clone(), module)
        assert ref.steps > 2
        for step in range(ref.steps):
            crashed = _reenter(state, module, step)
            assert crashed is not None, f"no crash at step {step}"
            final = run_recovery(crashed.clone(), module)
            assert diff_recoveries(ref, final) is None, f"step {step}"

    def test_plan_past_end_is_noop(self):
        module = compile_capri(build_update_loop(n_iters=20))
        state = _crash_state(module, [("main", [])], 300)
        ref = run_recovery(state.clone(), module)
        assert _reenter(state, module, ref.steps + 5) is None

    def test_inputs_survive_until_commit(self):
        """A crash at any pre-commit step leaves the proxy buffers and
        WPQ journal exactly as the outage left them — the invariant that
        makes re-entry possible at all."""
        module = compile_capri(build_update_loop(n_iters=20))
        state = _crash_state(module, [("main", [])], 300)
        ref = run_recovery(state.clone(), module)

        def journal(dom):
            return (
                [[(e.kind, e.addr, e.checksum) for e in es]
                 for es in dom.core_entries],
                list(dom.wpq),
            )

        want = journal(state)
        for step in (0, ref.steps // 2, ref.steps - 1):
            crashed = _reenter(state, module, step)
            assert crashed is not None
            assert journal(crashed) == want, f"step {step}"

    def test_reentry_chain_converges(self):
        """Crash recovery repeatedly (a chain of nested failures), then
        let it finish: still bit-identical, and the resumed execution
        still matches the crash-free reference."""
        module = compile_capri(build_pointer_chase(depth=8))
        spawns = [("main", [])]
        golden = golden_run(module, spawns)
        state = _crash_state(module, spawns, 250)
        assert state is not None
        ref = run_recovery(state.clone(), module)
        domain = state.clone()
        for step in (1, 3, 2, 1):
            crashed = _reenter(domain, module, step)
            if crashed is None:
                break
            domain = crashed
        final = run_recovery(domain, module)
        assert diff_recoveries(ref, final) is None
        finished = resume_and_finish(final, module, spawns)
        verdict = differential_check(golden, finished)
        assert verdict.equivalent, verdict.detail


class TestLenientReentry:
    def test_multicore_simultaneous_torn_boundaries(self):
        """Torn boundary records on *both* cores at once: lenient
        recovery quarantines/rolls back each core independently, stays
        contained — and is still idempotent under re-entry."""
        from repro.ir import IRBuilder, verify_module

        b = IRBuilder("mc")
        arr = b.module.alloc("arr", 128)
        with b.function("worker", params=["base", "n"]) as f:
            with f.for_range(f.param(1)) as i:
                idx = f.and_(i, 63)
                addr = f.add(f.param(0), f.shl(idx, 3))
                f.store(f.add(f.load(addr), 1), addr)
            f.ret()
        verify_module(b.module)
        module = compile_capri(b.module, threshold=16)
        spawns = [("worker", [arr, 40]), ("worker", [arr + 64 * 8, 40])]

        # A slow NVM drain keeps boundary records buffered in the proxy
        # long enough that both cores hold one at the same instant.
        from repro.arch import SimParams

        slow = SimParams.scaled().with_(
            nvm_write_ns=3000.0, nvm_write_parallelism=4
        )
        state = None
        for at in range(100, 1400, 37):
            cand = run_until_crash(
                module, spawns, CrashPlan(at), threshold=16, params=slow
            )
            if cand is None:
                break
            if all(
                any(e.is_boundary for e in es) for es in cand.core_entries
            ):
                state = cand
                break
        assert state is not None, "no snapshot with boundaries on all cores"

        # Tear the *last* boundary record on every core (checksum no
        # longer matches the payload — a mid-write outage on each).
        for es in state.core_entries:
            torn = [e for e in es if e.is_boundary][-1]
            torn.checksum ^= 0x1
        rec = recover(state, module, strict=False)
        assert not rec.report.clean
        assert sum(
            1 for f in rec.report.findings if f.kind == "torn-entry"
        ) >= 2
        finished = resume_and_finish(rec, module, spawns)
        verdict = differential_check(
            golden_run(module, spawns), finished, report=rec.report
        )
        assert verdict.equivalent or verdict.contained_by(rec.report)

        # Re-entrancy holds for quarantining recoveries too.
        ref = run_recovery(state.clone(), module, strict=False)
        for step in (0, ref.steps // 2, ref.steps - 1):
            crashed = _reenter(state, module, step)
            assert crashed is not None
            final = run_recovery(crashed.clone(), module, strict=False)
            assert diff_recoveries(ref, final) is None, f"step {step}"

    @given(
        at=st.integers(min_value=50, max_value=900),
        model_seed=st.integers(min_value=0, max_value=2**31),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_idempotence_across_fault_matrix(self, at, model_seed, frac):
        """Property: for any crash point, any injected corruption, and
        any nested-crash step, recover(crashed-recovery) == recover(once).
        Idempotence must hold even when recovery quarantines damage."""
        module = compile_capri(build_update_loop(n_iters=25, arr_words=8))
        state = _crash_state(module, [("main", [])], at)
        if state is None:
            return
        mutated, _ = apply_faults(
            state, get_models(["all"]), random.Random(model_seed)
        )
        ref = run_recovery(mutated.clone(), module, strict=False)
        step = min(int(frac * ref.steps), max(ref.steps - 1, 0))
        crashed = _reenter(mutated, module, step)
        if crashed is None:
            return
        final = run_recovery(crashed.clone(), module, strict=False)
        assert diff_recoveries(ref, final) is None, f"step {step}"

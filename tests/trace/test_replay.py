"""Replay equivalence: the batched columnar replay must be observably
identical to re-interpreting the program — the crash source's system
run crash-free, crash states and pre-crash I/O (its golden result is
pinned in ``test_source_parity.py``)."""

import dataclasses

import pytest

from repro.arch.crash import CrashPlan, run_until_crash
from repro.arch.params import SimParams
from repro.arch.system import run_workload
from repro.check.checker import PersistencyChecker
from repro.check.mutants import checked_run
from repro.compiler import CapriCompiler, OptConfig
from repro.fault.campaign import CampaignConfig
from repro.isa.trace import TeeObserver
from repro.trace.record import capture_trace
from repro.trace.replay import TraceCampaignSource, build_replay_system
from repro.workloads import get_workload


def _canon_entries(entries):
    return [
        (e.region_seq, e.addr, e.undo, e.redo, e.redo_valid, e.is_boundary)
        for e in entries
    ]


def _canon_state(state):
    return {
        "nvm": dict(state.nvm_image),
        "entries": [_canon_entries(es) for es in state.core_entries],
        "cores": state.num_cores,
        "pc": dict(state.pc_checkpoints),
        "wpq": list(state.wpq),
        "shadow": dict(state.ckpt_shadow),
    }


@pytest.fixture(scope="module", params=["genome", "hot-writeback"])
def captured_program(request):
    """(compiled module, spawns, trace) per workload the crash-free
    equivalence is pinned on."""
    module, spawns = get_workload(request.param).build(0.2)
    compiled = CapriCompiler(OptConfig.licm(32)).compile(module).module
    return compiled, spawns, capture_trace(compiled, spawns, quantum=32)


def _replay(trace, check=False):
    """The crash source's own system driven over the whole trace: the
    checker teed in front of it exactly as :func:`run_workload` does."""
    system = build_replay_system(trace, threshold=32)
    checker = None
    target = system
    if check:
        checker = PersistencyChecker.attach(system)
        target = TeeObserver(checker, system)
    trace.deliver(target)
    metrics = system.finish()
    if checker is not None:
        checker.finalize(system)
    return metrics, checker


def test_crash_free_replay_system_metrics_bit_identical(captured_program):
    module, spawns, trace = captured_program
    interpreted, _ = run_workload(module, spawns, threshold=32, quantum=32)
    replayed, _ = _replay(trace)
    for f in dataclasses.fields(interpreted):
        assert getattr(interpreted, f.name) == getattr(replayed, f.name), (
            f.name
        )


def test_checked_replay_is_clean(captured_program):
    module, spawns, trace = captured_program
    # A clean workload must replay clean under the online checker, having
    # checked exactly what the checked interpreted run checks.
    _, checker = _replay(trace, check=True)
    reference, _ = checked_run(module, spawns, SimParams.scaled(), 32)
    assert reference.report.ok, reference.report.summary()
    assert checker.report.ok, checker.report.summary()
    assert checker.report.events == reference.report.events
    assert checker.report.checks == reference.report.checks


def _interpreted(module, spawns, k):
    """The reference crash state: interpret the IR to event ``k``."""
    state = run_until_crash(module, spawns, CrashPlan(k), threshold=32, quantum=32)
    assert state is not None, k
    return _canon_state(state)


def test_replay_until_crash_matches_interpreted(captured):
    """A replay to one crash point on a fresh cursor leaves the state
    interpreting the IR to that point leaves."""
    module, spawns, trace = captured
    n = len(trace)
    for k in (0, 1, n // 3, n - 1):
        source = TraceCampaignSource(module, spawns, CampaignConfig(threshold=32))
        replayed, _, _ = source.capture_at(k)
        assert replayed is not None, k
        assert _canon_state(replayed) == _interpreted(module, spawns, k), k


def test_replay_until_crash_past_end_returns_none(captured):
    module, spawns, trace = captured
    n = len(trace)
    assert run_until_crash(module, spawns, CrashPlan(n), threshold=32) is None
    source = TraceCampaignSource(module, spawns, CampaignConfig(threshold=32))
    state, _, _ = source.capture_at(n)
    assert state is None


def test_cursor_single_pass_matches_fresh_replays(captured):
    """Ascending capture_at calls on one cursor must equal a fresh
    interpreted run to each point — the single-pass replay is
    invisible."""
    module, spawns, trace = captured
    n = len(trace)
    points = sorted({0, 1, n // 4, n // 3, n // 2, (3 * n) // 4, n - 1})
    cursor = TraceCampaignSource(module, spawns, CampaignConfig(threshold=32))
    for k in points:
        state, _, checker = cursor.capture_at(k)
        assert _canon_state(state) == _interpreted(module, spawns, k), k
        assert checker is None
    assert cursor.rebuilds == 0


def test_cursor_rewind_rebuilds_and_stays_correct(captured):
    module, spawns, trace = captured
    n = len(trace)
    cursor = TraceCampaignSource(module, spawns, CampaignConfig(threshold=32))
    late, _, _ = cursor.capture_at(n - 1)
    assert cursor.rebuilds == 0
    early, _, _ = cursor.capture_at(n // 2)  # behind the cursor: rebuild
    assert cursor.rebuilds == 1
    assert _canon_state(early) == _interpreted(module, spawns, n // 2)


def test_cursor_past_end_runs_out_and_reports_none(captured):
    module, spawns, trace = captured
    n = len(trace)
    # The interpreted run ends before a crash at the last index + 1, too.
    assert run_until_crash(module, spawns, CrashPlan(n), threshold=32) is None
    cursor = TraceCampaignSource(module, spawns, CampaignConfig(threshold=32))
    state, io, checker = cursor.capture_at(n + 5)
    assert state is None and checker is None
    assert io == [tuple(ev) for ev in trace.io_log]
    # The terminal finish() drained the system; the next in-range point
    # must transparently rebuild and still be correct.
    k = n // 2
    state, _, _ = cursor.capture_at(k)
    assert _canon_state(state) == _interpreted(module, spawns, k)
    assert cursor.rebuilds >= 1


def test_cursor_pre_crash_io_matches_machine():
    """The campaign reads the pre-crash I/O (effects that escaped the
    persistence domain) off ``capture_at``; the cursor reconstructs it
    from the trace's I/O positions and must agree with the interrupted
    machine's log at every boundary case."""
    from repro.compiler import CapriCompiler, OptConfig
    from repro.fault.oracle import InterpretedSource
    from repro.ir import IRBuilder, verify_module
    from repro.trace.record import capture_trace

    b = IRBuilder("logger")
    arr = b.module.alloc("records", 8)
    with b.function("main") as f:
        with f.for_range(8) as i:
            v = f.add(f.mul(i, 7), 3)
            f.store(v, f.add(arr, f.shl(i, 3)))
            f.io_write(1, v)
        f.ret()
    verify_module(b.module)
    module = CapriCompiler(OptConfig.licm(8)).compile(b.module).module
    spawns = [("main", [])]
    trace = capture_trace(module, spawns, quantum=32)
    positions = trace.io_positions()
    assert positions, "logger must perform I/O"

    # The machine logs an I/O write before it delivers the event, so a
    # crash at an I/O event's index finds the write escaped; one event
    # earlier, it has not.
    mid = positions[len(positions) // 2]
    reference = InterpretedSource(module, spawns, CampaignConfig(threshold=32))
    first = positions[0]
    for k in (first - 1, first, first + 1, mid - 1, mid, mid + 1, len(trace) - 1):
        cursor = TraceCampaignSource(module, spawns, CampaignConfig(threshold=32))
        _, replayed_io, _ = cursor.capture_at(k)
        _, io, _ = reference.capture_at(k)
        assert replayed_io == io, k


"""Pins the observer event-ordering contract (repro.isa.trace docstring).

Every downstream consumer — the Capri system, the crash injector, the
persistency checker — relies on these properties; a machine change that
breaks one must fail here, not in a flaky campaign.
"""

import pytest

from repro.compiler import CapriCompiler, OptConfig
from repro.ir import IRBuilder, verify_module
from repro.isa.machine import Machine
from repro.isa.trace import (
    EV_ATOMIC,
    EV_BOUNDARY,
    EV_CKPT,
    EV_LOAD,
    EV_RETIRE,
    EV_STORE,
    CollectingObserver,
    TeeObserver,
    TickCountingObserver,
)
from repro.workloads import get_workload

#: The initial words of the known-loads program; none is 0, so a load
#: event that dropped its value would show.
WORDS = [7, -3, 1 << 40, 12345, -(1 << 62), 99]


@pytest.fixture(scope="module")
def compiled():
    module, spawns = get_workload("genome").build(0.15)
    module = CapriCompiler(OptConfig.licm(64)).compile(module).module
    return module, spawns


@pytest.fixture(scope="module")
def known_loads():
    """A compiled program whose loads read known words: each initial word
    of an array, then the word the program stored over it.  Returns
    ``(module, spawns, loaded words in order)``."""
    b = IRBuilder("known_loads")
    arr = b.module.alloc("words", len(WORDS), init=WORDS)
    with b.function("main") as f:
        with f.for_range(len(WORDS)) as i:
            addr = f.add(arr, f.shl(i, 3))
            f.store(f.add(f.load(addr), 1000), addr)
            f.load(addr)
        f.ret()
    verify_module(b.module)
    module = CapriCompiler(OptConfig.licm(8)).compile(b.module).module
    expected = [v for w in WORDS for v in (w, w + 1000)]
    return module, [("main", [])], expected


def _run(module, spawns, observer):
    machine = Machine(module, quantum=32)
    for name, args in spawns:
        machine.spawn(name, args)
    machine.run(observer)
    return machine


def test_store_old_value_is_architectural(compiled):
    """Rule 1: on_store's ``old`` is the value the store overwrote."""
    module, spawns = compiled
    obs = CollectingObserver()
    _run(module, spawns, obs)
    stores = obs.of_kind(EV_STORE)
    assert stores, "workload must store"
    last = {}
    checked = 0
    for _, core, addr, value, old in stores:
        if addr in last:
            assert old == last[addr], (
                f"store to {addr:#x} reports old={old}, last written "
                f"value was {last[addr]}"
            )
            checked += 1
        last[addr] = value
    assert checked > 0


def test_load_carries_the_loaded_word(known_loads):
    """Rule 1: on_load's ``value`` is the word the load read."""
    module, spawns, expected = known_loads
    obs = CollectingObserver()
    _run(module, spawns, obs)
    assert [value for _, _, _, value in obs.of_kind(EV_LOAD)] == expected


def test_load_value_is_architectural(compiled):
    """Rule 1 on a workload: each load's ``value`` is the last word the
    stream wrote to its address (a store, atomic or checkpoint store),
    or the module's initial word."""
    module, spawns = compiled
    obs = CollectingObserver()
    _run(module, spawns, obs)
    memory = dict(module.initial_data)
    nonzero = 0
    for event in obs.events:
        kind = event[0]
        if kind in (EV_STORE, EV_ATOMIC):
            memory[event[2]] = event[3]
        elif kind == EV_CKPT:
            memory[event[4]] = event[3]
        elif kind == EV_LOAD:
            _, core, addr, value = event
            assert value == memory.get(addr, 0), (
                f"load from {addr:#x} on core {core} reports {value}, "
                f"memory holds {memory.get(addr, 0)}"
            )
            nonzero += value != 0
    assert nonzero > 0, "workload must load non-zero words"


def test_per_core_event_order_is_deterministic(compiled):
    """Rule 2: two identical runs deliver identical per-core streams."""
    module, spawns = compiled
    a, b = CollectingObserver(), CollectingObserver()
    _run(module, spawns, a)
    _run(module, spawns, b)
    assert a.events == b.events


def test_spawn_prologue_ckpts_then_spawn_boundary(compiled):
    """Rule 3: a hart's first events are its spawn-argument checkpoints
    followed by the implicit region_id == -1 boundary, before any
    retire."""
    module, spawns = compiled
    obs = CollectingObserver()
    _run(module, spawns, obs)
    cores = {e[1] for e in obs.events}
    for core in cores:
        stream = [e for e in obs.events if e[1] == core]
        i = 0
        while i < len(stream) and stream[i][0] == EV_CKPT:
            i += 1
        assert i < len(stream) and stream[i][0] == EV_BOUNDARY
        assert stream[i][2] == -1, "spawn boundary must carry region -1"
        assert all(e[0] != EV_RETIRE for e in stream[:i])


def test_tee_observer_is_transparent(compiled):
    """TeeObserver delivers every event to every branch, in order."""
    module, spawns = compiled
    solo = CollectingObserver()
    _run(module, spawns, solo)
    first, second = CollectingObserver(), CollectingObserver()
    _run(module, spawns, TeeObserver(first, second))
    assert first.events == solo.events
    assert second.events == solo.events


def test_tick_counter_matches_crash_index_universe(compiled):
    """Rule 5: one tick per callback — TickCountingObserver's total is
    the number of events any observer sees (the CrashPlan universe)."""
    module, spawns = compiled
    tick, collect = TickCountingObserver(), CollectingObserver()
    _run(module, spawns, TeeObserver(tick, collect))
    assert tick.events == len(collect.events)


def test_columnar_trace_is_verbatim_transcript(compiled):
    """Rule 6 (repro.trace): the columnar ``ExecTrace`` is a lossless
    transcript of the observer stream — ``trace.event(i)`` must equal
    the ``CollectingObserver`` tuple ``i``, element for element (a
    load's word included), for every event of the run."""
    from repro.trace.record import capture_trace

    module, spawns = compiled
    obs = CollectingObserver()
    _run(module, spawns, obs)
    trace = capture_trace(module, spawns, quantum=32)
    assert len(trace) == len(obs.events)
    for i, expected in enumerate(obs.events):
        got = trace.event(i)
        assert got == expected, (
            f"event {i}: trace {got!r} != observer {expected!r}"
        )
    # Every event kind the workload exercises must appear in the trace
    # under the same tag; a silently dropped callback would shrink the
    # crash-index universe.
    assert {e[0] for e in obs.events} == {
        trace.event(i)[0] for i in range(len(trace))
    }


def test_columnar_deliver_replays_the_stream(compiled):
    """Rule 6, replay side: ``trace.deliver(observer)`` re-drives an
    observer with the exact stream the machine produced, and slicing by
    ``start``/``stop`` concatenates back to the whole."""
    from repro.trace.record import capture_trace

    module, spawns = compiled
    obs = CollectingObserver()
    _run(module, spawns, obs)
    trace = capture_trace(module, spawns, quantum=32)

    replayed = CollectingObserver()
    trace.deliver(replayed)
    assert replayed.events == obs.events

    sliced = CollectingObserver()
    mid = len(trace) // 3
    trace.deliver(sliced, 0, mid)
    trace.deliver(sliced, mid, len(trace))
    assert sliced.events == obs.events


def test_boundary_before_drain(compiled):
    """Rule 4: no region's redo data drains before its boundary event.

    Pinned end-to-end: the persistency checker's model flags any
    pre-boundary drain as premature-persist, so a clean checked run is
    the contract's witness.
    """
    from repro.check.mutants import checked_run, matrix_params

    module, spawns = compiled
    checker, error = checked_run(module, spawns, matrix_params(), 64)
    assert error is None
    assert checker.report.ok, checker.report.summary()

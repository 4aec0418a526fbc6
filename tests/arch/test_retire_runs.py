"""Retire runs cost the Capri system what single retires cost.

:class:`~repro.arch.system.CapriSystem` takes its retires in runs
(:meth:`repro.isa.trace.Observer.on_retire_run`).  A run of ``n`` must
give the cycle count of ``n`` separate ``cycle += cpi_base`` additions,
and a whole run of the system must report the same
:class:`SystemMetrics`, bit for bit, as when every retire arrives on its
own (``TeeObserver`` delivers them one at a time).

:meth:`CoreTimer.retire_run` takes a run as one addition while it stays
below the timer's ``edge`` and folds it otherwise; the property tests
below hold that to the per-retire loop, and count the folds.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.arch.core as core_module

from repro.arch.core import CoreTimer
from repro.arch.params import SimParams
from repro.arch.system import CapriSystem, build_system
from repro.compiler import CapriCompiler, OptConfig
from repro.isa.trace import TeeObserver
from repro.workloads import get_workload
from tests.arch.test_io import build_logger

#: A cycle count from which 36 single additions of 0.5 and one addition
#: of 36 * 0.5 round to different floats.
START = 0.7329193656745141
N = 36


def test_timer_run_matches_single_retires():
    single, run = CoreTimer(SimParams.scaled()), CoreTimer(SimParams.scaled())
    single.cycle = run.cycle = START
    for _ in range(N):
        single.retire()
    run.retire_run(N)
    assert repr(run.cycle) == repr(single.cycle) == "18.732919365674512"
    assert run.retired == single.retired == N
    # One multiply-add would round differently.
    assert repr(START + N * single.params.cpi_base) == "18.732919365674515"


def test_system_run_matches_single_retires():
    single, batched = (
        CapriSystem(SimParams.scaled(), num_cores=2, threshold=32) for _ in range(2)
    )
    for system in (single, batched):
        system.cores[1].add_latency(START)
    for _ in range(N):
        single.on_retire(1, "BinOp")
    batched.on_retire_run(1, N)
    assert repr(batched.cores[1].cycle) == repr(single.cores[1].cycle)
    assert batched.cores[1].cycle == 18.732919365674512
    assert [c.retired for c in batched.cores] == [c.retired for c in single.cores]
    assert batched.cores[0].cycle == 0.0


def _timer(cpi: float, start: float) -> CoreTimer:
    timer = CoreTimer(SimParams.scaled().with_(cpi_base=cpi))
    timer.cycle = start
    return timer


@contextmanager
def _counting_folds():
    """Count :meth:`CoreTimer.retire_run`'s left folds (its ``reduce``
    calls) inside the block."""
    calls = []
    fold = core_module.reduce

    def counted(*args):
        calls.append(1)
        return fold(*args)

    core_module.reduce = counted
    try:
        yield calls
    finally:
        core_module.reduce = fold


@pytest.fixture
def folds():
    with _counting_folds() as calls:
        yield calls


def test_horizon_takes_runs_inside_the_binade_as_one_addition(folds):
    timer, single = _timer(0.5, START), _timer(0.5, START)
    timer.retire_run(N)  # the first run folds and sets the edge above 18.7
    for _ in range(N):
        single.retire()
    assert (len(folds), timer.edge) == (1, 32.0)
    for _ in range(26):  # up to 31.73: one addition each
        timer.retire_run(1)
        single.retire()
        assert repr(timer.cycle) == repr(single.cycle)
    assert len(folds) == 1
    timer.retire_run(3)  # crosses 32: folds, and the edge moves up
    for _ in range(3):
        single.retire()
    assert repr(timer.cycle) == repr(single.cycle)
    assert (len(folds), timer.edge) == (2, 64.0)
    # A latency past the edge makes the next run fold.
    timer.add_latency(40.0)
    single.add_latency(40.0)
    timer.retire_run(5)
    for _ in range(5):
        single.retire()
    assert repr(timer.cycle) == repr(single.cycle)
    assert (len(folds), timer.edge) == (3, 128.0)


def test_run_starting_below_the_edge_and_crossing_it_folds(folds):
    """A run that starts inside the edge's binade but ends past the edge
    is a fold: one addition would round differently."""
    timer, single = _timer(0.5, START), _timer(0.5, START)
    timer.retire_run(1)  # 1.23...: the edge is 2.0
    timer.retire_run(N)  # crosses 2, 4, 8 and 16
    for _ in range(N + 1):
        single.retire()
    assert repr(timer.cycle) == repr(single.cycle) == "19.232919365674512"
    assert len(folds) == 2


#: Starting cycle counts: zero, the 36-retire start, tiny values, dyadic
#: values, values just below a power of two, arbitrary ones, and counts
#: so large that a retire may be under half an ulp (it adds nothing).
_STARTS = st.one_of(
    st.just(0.0),
    st.just(START),
    st.floats(min_value=5e-324, max_value=1e-3),
    st.builds(lambda k, e: k * 2.0**e, st.integers(0, 2**20), st.integers(-30, 10)),
    st.builds(
        lambda e, k: 2.0**e - k * math.ulp(2.0**e) / 2,
        st.integers(-10, 40),
        st.integers(1, 2**12),
    ),
    st.floats(min_value=0.0, max_value=1e9),
    st.floats(min_value=2.0**50, max_value=2.0**56),
)
#: Charges between runs: memory and checkpoint latencies the system
#: makes (0.7, 1.0, 20.0, ...), and arbitrary non-negative floats.
_LATENCIES = st.one_of(
    st.sampled_from([0.7, 1.0, 7.0, 8.0, 20.0, 400.0]),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=5e3),
    st.floats(min_value=0.0, max_value=1e-6),
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("run"), st.one_of(st.integers(1, 64), st.integers(1, 5_000))
        ),
        st.tuples(st.just("latency"), _LATENCIES),
        st.tuples(st.just("stall"), st.floats(min_value=-10.0, max_value=5e3)),
    ),
    min_size=1,
    max_size=12,
)


@pytest.mark.parametrize("cpi", [0.5, 0.25, 1.0, 2.0, 0.7])
@settings(max_examples=150, deadline=None)
@given(start=_STARTS, steps=_STEPS)
def test_horizon_is_the_left_fold_bit_for_bit(cpi, start, steps):
    """Runs interleaved with latencies and stalls give, bit for bit, the
    cycle count of one ``+=`` per retire.  With a power-of-two ``cpi``
    each fold lands in a binade no earlier fold reached (so every other
    run was one addition) while ``cpi`` is at least an ulp of the cycle
    count; with any other ``cpi`` every run folds."""
    timer, single = _timer(cpi, start), _timer(cpi, start)
    runs, binades = 0, set()
    with _counting_folds() as calls:
        for kind, arg in steps:
            if kind == "run":
                timer.retire_run(arg)
                for _ in range(arg):
                    single.retire()
                runs += 1
                binades.add(math.frexp(timer.cycle)[1])
            elif kind == "latency":
                timer.add_latency(arg)
                single.add_latency(arg)
            else:
                timer.stall_until(timer.cycle + arg)
                single.stall_until(single.cycle + arg)
            assert repr(timer.cycle) == repr(single.cycle)
            assert timer.retired == single.retired
            assert repr(timer.stall_cycles) == repr(single.stall_cycles)
    if cpi == 0.7:
        assert len(calls) == runs and timer.edge == 0.0
    elif timer.cycle < 2.0**50:
        assert len(calls) <= len(binades)


def _compiled(name: str, scale: float):
    module, spawns = get_workload(name).build(scale)
    config = OptConfig.licm().with_threshold(32)
    return CapriCompiler(config).compile(module).module, spawns


_PROGRAMS = {
    "genome": lambda: _compiled("genome", 0.05),
    "ocean": lambda: _compiled("ocean", 0.05),
    "deep-call": lambda: _compiled("deep-call", 0.1),
    "logger": lambda: (
        CapriCompiler(OptConfig.licm(32)).compile(build_logger(20)[0]).module,
        [("main", ())],
    ),
}


@pytest.fixture(scope="module", params=sorted(_PROGRAMS))
def program(request):
    module, spawns = _PROGRAMS[request.param]()
    assert len(spawns) == (4 if request.param == "ocean" else 1)
    return module, spawns


@pytest.mark.parametrize("quantum", [1, 32])
def test_metrics_identical_batched_and_single(program, quantum, monkeypatch):
    module, spawns = program

    runs = []
    run_retires = CapriSystem.on_retire_run

    def counted(self, core, n):
        runs.append(n)
        run_retires(self, core, n)

    monkeypatch.setattr(CapriSystem, "on_retire_run", counted)
    metrics = []
    for single in (False, True):
        machine, system = build_system(module, spawns, threshold=32, quantum=quantum)
        machine.run(TeeObserver(system) if single else system)
        metrics.append(dataclasses.asdict(system.finish()))
        # The batched run took every retire in runs, some of them long;
        # the single run took none.
        assert sum(runs) == machine.total_retired == metrics[-1]["retired"]
        assert quantum == 1 or max(runs) > 1
    assert metrics[0] == metrics[1]

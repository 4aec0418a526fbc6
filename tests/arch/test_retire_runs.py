"""Retire runs cost the Capri system what single retires cost.

:class:`~repro.arch.system.CapriSystem` takes its retires in runs
(:meth:`repro.isa.trace.Observer.on_retire_run`).  A run of ``n`` must
make ``n`` separate ``cycle += cpi_base`` additions, and a whole run of
the system must report the same :class:`SystemMetrics`, bit for bit, as
when every retire arrives on its own (``TeeObserver`` delivers them one
at a time).
"""

from __future__ import annotations

import dataclasses

import pytest

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
    batched.on_retire_run(1, ["BinOp"] * N)
    assert repr(batched.cores[1].cycle) == repr(single.cores[1].cycle)
    assert batched.cores[1].cycle == 18.732919365674512
    assert [c.retired for c in batched.cores] == [c.retired for c in single.cores]
    assert batched.cores[0].cycle == 0.0


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

    def counted(self, core, kinds):
        runs.append(len(kinds))
        run_retires(self, core, kinds)

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

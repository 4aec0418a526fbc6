"""A hart keeps its caller-frame tuple between calls and returns: every
region-boundary continuation must still equal the tuple rebuilt from the
live call stack, across calls, returns and a resume mid-call."""

from __future__ import annotations

import pytest

from repro.api import RunSpec, build_spec
from repro.compiler import OptConfig
from repro.isa import Machine
from repro.isa.trace import Observer


class _FrameCheck(Observer):
    """At each boundary, compare the continuation's frames with a fresh
    rebuild; remember the first mid-call boundary's state for a resume."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.boundaries = 0
        self.mid_call = 0
        self.mismatches = []
        self.resume_point = None

    def on_boundary(self, core, region_id, continuation):
        hart = self.machine.harts[core]
        fresh = tuple(f.snapshot() for f in hart.callstack)
        self.boundaries += 1
        if continuation.callstack != fresh:
            self.mismatches.append((self.boundaries, continuation))
        if fresh:
            self.mid_call += 1
            if self.resume_point is None:
                self.resume_point = (
                    continuation,
                    list(hart.regs),
                    dict(self.machine.memory),
                )


@pytest.mark.parametrize(
    "workload, scale", [("deep-call", 0.1), ("531.deepsjeng_r", 0.2)]
)
def test_every_boundary_continuation_equals_a_fresh_rebuild(workload, scale):
    module, spawns = build_spec(
        RunSpec(workload=workload, scale=scale, config=OptConfig.licm(32))
    )
    machine = Machine(module)
    for name, args in spawns:
        machine.spawn(name, args)
    check = _FrameCheck(machine)
    machine.run(check)
    assert check.mismatches == []
    assert check.mid_call > 0 and check.boundaries > check.mid_call

    # Resumed at a mid-call boundary, the hart's stack comes from the
    # continuation: the kept tuple must start over from it.
    continuation, regs, memory = check.resume_point
    resumed = Machine(module)
    resumed.memory = memory
    resumed.resume(0, continuation, regs)
    again = _FrameCheck(resumed)
    resumed.run(again)
    assert again.mismatches == []
    assert again.boundaries > 0

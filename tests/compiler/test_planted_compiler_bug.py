"""A compiler bug fails every path that compiles, loudly.

A planted LICM bug deletes one checkpoint store after the pass runs.
``CapriCompiler.compile`` verifies every checkpointing compile, so the
bug must surface as :class:`CapriInvariantError` naming the uncovered
definition: from ``build_spec``, as a failed spec in a sweep whose
table refuses to build, and from a crash campaign before it judges a
single crash point.
"""

from __future__ import annotations

import re
from typing import List

import pytest

from repro.api import RunSpec, build_spec
from repro.compiler import OptConfig, pipeline
from repro.compiler.verify_capri import CapriInvariantError
from repro.fault import campaign
from repro.fault.campaign import CampaignConfig, run_workload_campaign
from repro.ir.instructions import CheckpointStore
from repro.sweep import SweepError, run_specs
from repro.sweep.engine import FAILED

WORKLOAD = "genome"
SCALE = 0.05
THRESHOLD = 32
#: The function whose first checkpoint the planted bug deletes.
VICTIM = "main"


@pytest.fixture
def deleted(monkeypatch) -> List[int]:
    """Plant the bug; returns the registers whose checkpoint it deleted."""
    real = pipeline.move_checkpoints_out_of_loops
    regs: List[int] = []

    def buggy_licm(func, facts):
        moved = real(func, facts)
        if func.name == VICTIM:
            for block in func.blocks.values():
                for i, instr in enumerate(block.instrs):
                    if isinstance(instr, CheckpointStore):
                        regs.append(instr.src.index)
                        del block.instrs[i]
                        return moved
        return moved

    monkeypatch.setattr(pipeline, "move_checkpoints_out_of_loops", buggy_licm)
    return regs


def spec() -> RunSpec:
    return RunSpec(
        workload=WORKLOAD, scale=SCALE, config=OptConfig.licm(THRESHOLD)
    )


def names_the_definition(message: str, regs: List[int]) -> bool:
    assert len(regs) == 1, regs
    return re.search(
        rf"\b{VICTIM}: def of r{regs[0]} at \S+\[\d+\] reaches boundary block",
        message,
    ) is not None


def test_build_spec_raises_naming_the_definition(deleted):
    with pytest.raises(CapriInvariantError) as excinfo:
        build_spec(spec())
    assert names_the_definition(str(excinfo.value), deleted), excinfo.value


def test_sweep_marks_the_spec_failed_and_refuses_a_table(deleted):
    report = run_specs([spec()], workers=0, cache=None)
    assert report.failures == 1
    (failed,) = report.failed_statuses()
    assert failed.state == FAILED and failed.spec == spec()
    assert "CapriInvariantError" in failed.error
    assert names_the_definition(failed.error, deleted), failed.error
    with pytest.raises(SweepError, match="1 of 2 sweep specs failed"):
        report.table()


def test_campaign_raises_before_judging_any_point(deleted, monkeypatch):
    def judged(*args, **kwargs):
        pytest.fail("the campaign reached its crash points")

    monkeypatch.setattr(campaign, "run_campaign", judged)
    with pytest.raises(CapriInvariantError) as excinfo:
        run_workload_campaign(
            WORKLOAD, CampaignConfig(threshold=THRESHOLD, sample=4),
            scale=SCALE,
        )
    assert names_the_definition(str(excinfo.value), deleted), excinfo.value

"""A litmus program with a cross-core dependence, pinned as today's behaviour.

The generated corpus writes only immediates to immediate addresses, so no
stored value depends on another core's store and the faithful matrix is
forbidden-free by construction.  This hand-written two-hart program is the
smallest one that is not: each hart increments a shared counter with an
atomic ``add``, folds the old value into its accumulator and stores it to
its private word, then checkpoints the accumulator and closes the region.

Recovery resumes every hart at its interrupted region, so a hart whose
atomic had already taken effect runs it again and the counter ends one too
high (3, where {0, 1, 2} is allowed).  The differential oracle and the
litmus ``final`` judge flag those points; the persistency checker does
not.  These counts pin the bug (ROADMAP items 1 and 13), not a wanted
outcome: once recovery stops re-running a completed region's atomics,
every count below becomes 0 and this test should assert that all three
judges agree every point is ``ok``.
"""

import pytest

from repro.fault.campaign import CampaignConfig, run_campaign
from repro.ir import IRBuilder
from repro.ir.instructions import CheckpointStore, RegionBoundary
from repro.ir.values import Imm
from repro.ir.verifier import verify_module
from repro.litmus.generate import (
    _PAD_LOADS,
    LitmusProgram,
    private_addr,
    shared_addr,
)
from repro.litmus.matrix import litmus_params, run_litmus_program

COUNTER = shared_addr(0)


def cross_core_program() -> LitmusProgram:
    """Two harts, one region each, both incrementing ``COUNTER``."""
    b = IRBuilder("cross-core")
    for h in range(2):
        with b.function(f"hart{h}") as f:
            acc = f.li(h + 1)
            old = f.atomic("add", Imm(COUNTER), 1)
            f.add(acc, old, dst=acc)
            f.store(acc, Imm(private_addr(h)))
            f.emit(CheckpointStore(acc))
            f.emit(RegionBoundary(0))
            f.add(acc, h + 7, dst=acc)
            f.store(acc, Imm(private_addr(h)))
            for _ in range(_PAD_LOADS):
                f.load(Imm(COUNTER))
            f.ret()
    verify_module(b.module)
    return LitmusProgram(
        name="cross-core",
        seed=0,
        module=b.module,
        spawns=[("hart0", ()), ("hart1", ())],
        shared_addrs=[COUNTER],
        private_addrs=[private_addr(0), private_addr(1)],
        quantum=4,
    )


@pytest.fixture(scope="module")
def program():
    return cross_core_program()


def test_program_shape(program):
    assert program.instr_counts() == [33, 33]


def test_campaign_flags_seven_points_and_checker_is_silent(program):
    config = CampaignConfig(
        threshold=32,
        quantum=program.quantum,
        params=litmus_params(),
        check=True,
    )
    result = run_campaign(program.module, program.spawns, config,
                          name=program.name)
    assert result.total_events == 128
    assert result.counts() == {"ok": 121, "mismatch": 7}
    assert result.failures[0].event_index == 11
    assert result.minimized.event_index == 11
    # Each detail names the golden writers of the words it lists: both
    # harts wrote the counter, and each its own private word.
    for failure in result.failures:
        assert f"{COUNTER:#x} written by cores 0, 1;" in failure.detail
        assert f"{private_addr(0):#x} written by core 0" in failure.detail
        assert f"{private_addr(1):#x} written by core 1" in failure.detail


def test_litmus_final_judge_flags_the_same_points(program):
    verdict = run_litmus_program(program)
    assert verdict.crash_points == 128
    assert verdict.forbidden == 7
    witness = verdict.witness
    assert witness.event_index == 11
    assert witness.failures
    assert {f["component"] for f in witness.failures} == {"final"}
    counter = [f for f in witness.failures if f["addr"] == COUNTER]
    assert counter == [{"component": "final", "addr": COUNTER, "got": 3,
                        "allowed": [0, 1, 2]}]

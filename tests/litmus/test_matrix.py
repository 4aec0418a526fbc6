"""The litmus crash matrix: judging, witnesses, drain regimes."""

import json

import pytest

from repro.arch.persistence import ProtocolMutations
from repro.litmus.generate import generate_program
from repro.litmus.matrix import (
    EXPECTED_MISSES,
    LitmusMutantsResult,
    param_points,
    run_litmus_program,
)


@pytest.fixture(scope="module")
def program():
    return generate_program(1)  # 2 harts — the fastest corpus member


class TestFingerprint:
    def test_param_points_are_two_regimes(self):
        throttled, fast = param_points()
        assert throttled.nvm_write_parallelism < fast.nvm_write_parallelism


class TestUnmutatedMatrix:
    def test_faithful_protocol_has_no_forbidden_outcomes(self, program):
        verdict = run_litmus_program(program)
        assert verdict.ok
        assert verdict.forbidden == 0
        assert verdict.witness is None
        # one crash point per observer event, several checks per point
        assert verdict.crash_points > 100
        assert verdict.checks > verdict.crash_points
        assert verdict.mutations == ()
        assert verdict.content_hash == program.content_hash()

    def test_payload_round_trip(self, program):
        # The payload shape is pinned: perfbench's litmus-corpus digest
        # hashes it, so a new field would move that digest.
        verdict = run_litmus_program(program)
        payload = verdict.to_payload()
        assert json.loads(json.dumps(payload)) == payload
        assert list(payload) == [
            "schema", "name", "seed", "content_hash", "mutations",
            "crash_points", "forbidden", "checks", "elapsed", "witness",
            "replay_rebuilds",
        ]
        assert payload["schema"] == 1
        assert (payload["forbidden"], payload["checks"]) == (
            verdict.forbidden,
            verdict.checks,
        )


    def test_program_observing_checkpoint_storage_is_refused(self, program):
        # The final-image judge reads the resumed machine's memory
        # unmasked, so checkpoint words must never be among its addrs.
        from dataclasses import replace

        from repro.ir.module import ckpt_slot_addr

        slot = ckpt_slot_addr(0, 0, 0)
        bad = replace(program, private_addrs=[*program.private_addrs, slot])
        with pytest.raises(ValueError, match=f"{slot:#x}"):
            run_litmus_program(bad)


class TestTeeth:
    def test_planted_mutant_yields_confirmed_minimal_witness(self, program):
        verdict = run_litmus_program(
            program,
            mutations=ProtocolMutations.single("skip_undo_log"),
            stop_on_forbidden=True,
        )
        assert verdict.forbidden >= 1
        w = verdict.witness
        assert w is not None
        assert w.mutations == ("skip_undo_log",)
        assert w.confirmed, "direct re-run must reproduce the forbidden outcome"
        assert w.failures
        # the sweep ascends and stops on the first hit: the witness
        # crash index is the event-minimal forbidden point
        assert 0 <= w.event_index < verdict.crash_points
        assert verdict.forbidden == 1

    def test_recovery_mutant_detected(self, program):
        verdict = run_litmus_program(
            program,
            mutations=ProtocolMutations.single("recovery_skip_redo"),
            stop_on_forbidden=True,
        )
        assert verdict.forbidden >= 1


class TestMutantsResult:
    def test_ok_respects_expected_miss_budget(self):
        detected = {m: True for m in ("a", "b", "c", "d")}
        r = LitmusMutantsResult(
            programs=1,
            control_forbidden=0,
            detected=dict(detected),
            expected_misses=("c",),
        )
        assert r.ok  # everything caught beats the budget
        detected["c"] = False
        r2 = LitmusMutantsResult(
            programs=1,
            control_forbidden=0,
            detected=dict(detected),
            expected_misses=("c",),
        )
        assert r2.ok  # the one miss is the budgeted one
        detected["b"] = False
        r3 = LitmusMutantsResult(
            programs=1,
            control_forbidden=0,
            detected=dict(detected),
            expected_misses=("c",),
        )
        assert not r3.ok  # unbudgeted miss

    def test_control_forbidden_fails_ok(self):
        r = LitmusMutantsResult(
            programs=1, control_forbidden=1, detected={"a": True}
        )
        assert not r.ok

    def test_expected_misses_are_the_invalidation_pair(self):
        assert set(EXPECTED_MISSES) == {
            "drop_invalidation",
            "invalidate_everything",
        }

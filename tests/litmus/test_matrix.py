"""The litmus crash matrix: judging, witnesses, caching, fingerprints."""

import pytest

from repro.arch.persistence import ProtocolMutations
from repro.litmus.generate import generate_program
from repro.litmus.matrix import (
    EXPECTED_MISSES,
    LitmusMutantsResult,
    LitmusVerdict,
    litmus_params,
    param_points,
    run_litmus_program,
    verdict_fingerprint,
)


@pytest.fixture(scope="module")
def program():
    return generate_program(1)  # 2 harts — the fastest corpus member


class TestFingerprint:
    def test_sensitive_to_inputs(self, program):
        base = verdict_fingerprint(program, 32, litmus_params(), None)
        other_program = generate_program(2)
        assert verdict_fingerprint(other_program, 32, litmus_params(), None) != base
        assert verdict_fingerprint(program, 64, litmus_params(), None) != base
        assert (
            verdict_fingerprint(program, 32, litmus_params(throttled=False), None)
            != base
        )
        assert (
            verdict_fingerprint(
                program, 32, litmus_params(), ProtocolMutations.single("skip_undo_log")
            )
            != base
        )

    def test_stable_across_calls(self, program):
        again = generate_program(1)
        assert verdict_fingerprint(program, 32, litmus_params(), None) == (
            verdict_fingerprint(again, 32, litmus_params(), None)
        )

    def test_param_points_are_two_regimes(self):
        throttled, fast = param_points()
        assert throttled.nvm_write_parallelism < fast.nvm_write_parallelism


class TestUnmutatedMatrix:
    def test_faithful_protocol_has_no_forbidden_outcomes(self, program):
        verdict = run_litmus_program(program, cache=None)
        assert verdict.ok
        assert verdict.forbidden == 0
        assert verdict.witness is None
        # one crash point per observer event, several checks per point
        assert verdict.crash_points > 100
        assert verdict.checks > verdict.crash_points
        assert verdict.mutations == ()
        assert verdict.content_hash == program.content_hash()

    def test_payload_round_trip(self, program):
        verdict = run_litmus_program(program, cache=None)
        again = LitmusVerdict.from_payload(verdict.to_payload())
        assert again.cached
        assert (again.name, again.forbidden, again.checks) == (
            verdict.name,
            verdict.forbidden,
            verdict.checks,
        )


class TestTeeth:
    def test_planted_mutant_yields_confirmed_minimal_witness(self, program):
        verdict = run_litmus_program(
            program,
            mutations=ProtocolMutations.single("skip_undo_log"),
            cache=None,
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
            cache=None,
            stop_on_forbidden=True,
        )
        assert verdict.forbidden >= 1


class TestCaching:
    def test_warm_path_round_trips(self, program, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        cold = run_litmus_program(program)
        assert not cold.cached
        warm = run_litmus_program(program)
        assert warm.cached
        assert (warm.forbidden, warm.checks, warm.crash_points) == (
            cold.forbidden,
            cold.checks,
            cold.crash_points,
        )

    def test_deps_token_stored(self, program, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.sweep.cache import resolve_cache

        run_litmus_program(program)
        store = resolve_cache("default")
        fp = verdict_fingerprint(program, 32, litmus_params(), None)
        payload = store.get(fp, kind="litmus")
        assert payload is not None
        assert "litmus" in payload["deps"]


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

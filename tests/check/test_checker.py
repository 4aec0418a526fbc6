"""End-to-end checker tests: clean runs, tamper detection, integration."""

import pytest

from repro.api import RunSpec, build_spec
from repro.arch.crash import CrashPlan, run_built_until_crash
from repro.arch.persistence import ProtocolMutations
from repro.arch.system import build_system, run_workload
from repro.check import PersistencyViolationError
from repro.check.checker import PersistencyChecker
from repro.check.mutants import checked_run, matrix_params
from repro.check.violations import (
    CORRUPT_UNDO,
    LOST_REDO,
    OUT_OF_ORDER_DRAIN,
    CheckReport,
    Violation,
)
from repro.compiler import OptConfig

SCALE = 0.25
THRESHOLD = 32


@pytest.fixture(scope="module")
def genome():
    return build_spec(
        RunSpec(workload="genome", scale=SCALE, config=OptConfig.licm(THRESHOLD))
    )


@pytest.fixture(scope="module")
def params():
    return matrix_params()


class TestCleanRuns:
    def test_clean_run_is_violation_free(self, genome, params):
        module, spawns = genome
        checker, error = checked_run(module, spawns, params, THRESHOLD)
        assert error is None
        assert checker.report.ok
        assert checker.report.events > 0
        assert checker.report.checks > 0

    def test_run_workload_check_flag(self, genome):
        module, spawns = genome
        metrics, _ = run_workload(
            module, spawns, threshold=THRESHOLD, check=True
        )
        assert metrics.exec_cycles > 0

    def test_attach_refuses_volatile_system(self, genome):
        module, spawns = genome
        _, system = build_system(module, spawns, persistence=False)
        with pytest.raises(ValueError):
            PersistencyChecker.attach(system)


class TestMutantsOnline:
    def test_skipped_undo_log_is_corrupt_undo(self, genome, params):
        module, spawns = genome
        checker, _ = checked_run(
            module,
            spawns,
            params,
            THRESHOLD,
            mutations=ProtocolMutations.single("skip_undo_log"),
        )
        assert CORRUPT_UNDO in checker.report.kinds()

    def test_reordered_drain_is_out_of_order(self, genome, params):
        module, spawns = genome
        checker, _ = checked_run(
            module,
            spawns,
            params,
            THRESHOLD,
            mutations=ProtocolMutations.single("reorder_phase2"),
        )
        assert OUT_OF_ORDER_DRAIN in checker.report.kinds()

    def test_violations_carry_witness_windows(self, genome, params):
        module, spawns = genome
        checker, _ = checked_run(
            module,
            spawns,
            params,
            THRESHOLD,
            mutations=ProtocolMutations.single("skip_undo_log"),
        )
        first = checker.report.violations[0]
        assert first.witness, "violation must carry a witness window"
        assert first.event_index > 0
        # The summary names the class; raise_if_violated raises typed.
        with pytest.raises(PersistencyViolationError):
            checker.report.raise_if_violated()


class TestReportSummary:
    def test_only_suppressed_violations(self):
        """Regression: a report whose violations all fell past the cap
        (a delta taken off a full report) must summarise, not raise."""
        report = CheckReport(suppressed=3)
        assert not report.ok
        assert report.summary() == (
            "persistency check FAILED — 0 violations (+3 suppressed)"
        )

    def test_merge_applies_the_cap(self):
        report = CheckReport()
        flood = [Violation(LOST_REDO, 0, "x", i) for i in range(70)]
        report.merge(flood, suppressed=2)
        assert len(report.violations) == 64
        assert report.violations == flood[:64]
        assert report.suppressed == 6 + 2
        assert report.summary().startswith(
            "persistency check FAILED — 64 violations (+8 suppressed) "
            "[lost-redo×64]; first: [lost-redo] event 0: x"
        )


class TestCrashStateChecks:
    def test_crash_state_clean_then_tampered(self, genome, params):
        module, spawns = genome
        machine, system = build_system(
            module, spawns, params=params, threshold=THRESHOLD
        )
        checker = PersistencyChecker.attach(system)
        state = run_built_until_crash(
            machine, system, CrashPlan(1500), extra_observer=checker
        )
        assert state is not None
        checker.check_crash_state(state)
        assert checker.report.ok, checker.report.summary()

        tampered = state.clone()
        victim = next(
            e
            for entries in tampered.core_entries
            for e in entries
            if not e.is_boundary
        )
        victim.redo ^= 0xDEAD
        checker.check_crash_state(tampered)
        assert not checker.report.ok
        assert LOST_REDO in checker.report.kinds()


class TestApiIntegration:
    def test_runspec_check_round_trip(self):
        from repro.api import RunSpec, execute_spec

        spec = RunSpec(workload="genome", scale=SCALE, check=True)
        assert spec.fingerprint() != spec.with_(check=False).fingerprint()
        assert spec.baseline().check is False
        assert "check" in spec.describe()
        result = execute_spec(spec)
        assert result.metrics.exec_cycles > 0

    def test_harness_threads_check_flag(self):
        from repro.eval.harness import EvalHarness

        h = EvalHarness(scale=SCALE, check=True)
        assert h.spec("genome").check is True
        # Baselines are volatile — never checked.
        assert h.spec("genome").baseline().check is False

    def test_campaign_second_oracle_clean(self):
        from repro.fault.campaign import CampaignConfig, run_workload_campaign

        cc = CampaignConfig(sample=6, models=("clean",), check=True)
        res = run_workload_campaign("genome", cc, scale=0.1, cache=None)
        assert res.ok, res.summary()
        assert all(o.status in ("ok", "finished") for o in res.outcomes)

    def test_campaign_second_oracle_with_faults(self):
        from repro.fault.campaign import CampaignConfig, run_workload_campaign

        cc = CampaignConfig(
            sample=5,
            models=("dropped-valid-bits",),
            check=True,
            minimize=False,
        )
        res = run_workload_campaign("genome", cc, scale=0.1, cache=None)
        assert res.ok, res.summary()

    def test_model_violation_is_a_failure_status(self):
        from repro.fault.campaign import FAILURE_STATUSES

        assert "model-violation" in FAILURE_STATUSES

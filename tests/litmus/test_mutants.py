"""Litmus teeth: the planted-mutant sweep via the public entry point.

The full 12-mutant × 6-seed × 2-regime sweep lives in CI
(`litmus-smoke`); here a representative mutant subset keeps the tier-1
suite fast while still proving the sweep machinery end to end:
detection across both mutation layers (pipeline + recovery), witness
plumbing, and the expected-miss budget.
"""

from repro.litmus.generate import litmus_corpus
from repro.litmus.matrix import EXPECTED_MISSES, run_litmus_mutants

#: One mutant per detection mechanism: undo corruption (pipeline,
#: value-visible), drain reordering (pipeline, only the order component
#: sees it), recovery-path redo skip, and one budgeted expected miss.
SUBSET = (
    "skip_undo_log",
    "reorder_phase2",
    "recovery_skip_redo",
    "drop_invalidation",
)


class TestMutantSweep:
    def test_subset_sweep_meets_budget(self):
        programs = litmus_corpus((1,))
        result = run_litmus_mutants(programs, mutants=list(SUBSET))
        assert result.control_forbidden == 0
        assert result.detected["skip_undo_log"]
        assert result.detected["reorder_phase2"]
        assert result.detected["recovery_skip_redo"]
        # the invalidation mutant needs regular-path writebacks litmus
        # runs never produce — the budgeted miss
        assert not result.detected["drop_invalidation"]
        assert result.ok
        assert result.detection_rate == (3, 4)

    def test_witnesses_are_confirmed_and_carry_the_mutation(self):
        programs = litmus_corpus((1,))
        result = run_litmus_mutants(programs, mutants=["skip_undo_log"])
        w = result.witnesses["skip_undo_log"]
        assert w["confirmed"] is True
        assert w["mutations"] == ["skip_undo_log"]
        assert w["failures"]

    def test_expected_misses_constant(self):
        assert EXPECTED_MISSES == ("drop_invalidation", "invalidate_everything")

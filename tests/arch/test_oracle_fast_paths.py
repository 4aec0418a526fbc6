"""The differential oracle's log-area mask, its equal-image fast path and
its I/O check."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.recovery import RecoveryReport
from repro.fault.oracle import GoldenResult, data_image, differential_check
from repro.ir.module import (
    CKPT_BASE,
    CKPT_END,
    DATA_BASE,
    Module,
    ckpt_slot_addr,
    is_ckpt_addr,
)
from repro.isa.machine import Machine


def _machine(memory):
    machine = Machine(Module("oracle"))
    machine.memory = dict(memory)
    return machine


class TestDataImageMask:
    def test_bounds_match_is_ckpt_addr(self):
        probes = [
            DATA_BASE,
            CKPT_BASE - 8,
            CKPT_BASE,
            CKPT_BASE + 8,
            ckpt_slot_addr(63, 511, 63),
            CKPT_END - 8,
            CKPT_END,
            CKPT_END + 8,
        ]
        machine = _machine({addr: i + 1 for i, addr in enumerate(probes)})
        expected = {
            addr: value
            for addr, value in machine.memory.items()
            if not is_ckpt_addr(addr)
        }
        assert data_image(machine) == expected
        assert sorted(expected) == [DATA_BASE, CKPT_BASE - 8, CKPT_END, CKPT_END + 8]

    def test_ckpt_end_is_past_the_last_slot(self):
        assert is_ckpt_addr(ckpt_slot_addr(63, 511, 63))
        assert not is_ckpt_addr(CKPT_END)
        assert CKPT_END == ckpt_slot_addr(63, 511, 63) + 8


class TestDifferentialCheck:
    def _golden(self, data):
        return GoldenResult(data=dict(data), io_log=[], total_events=0)

    def test_equal_images_are_equivalent(self):
        golden = self._golden({DATA_BASE: 5, DATA_BASE + 8: 0})
        finished = _machine({DATA_BASE: 5, DATA_BASE + 8: 0, CKPT_BASE: 9})
        verdict = differential_check(golden, finished)
        assert verdict.equivalent and verdict.mismatched_addrs == []

    def test_absent_word_reads_as_zero(self):
        # Unequal dicts, identical memory contents: the full scan runs and
        # still finds nothing.
        golden = self._golden({DATA_BASE: 5, DATA_BASE + 8: 0})
        finished = _machine({DATA_BASE: 5})
        assert differential_check(golden, finished).equivalent

    def test_mismatches_sorted(self):
        golden = self._golden({DATA_BASE: 5, DATA_BASE + 16: 7})
        finished = _machine({DATA_BASE + 8: 1, DATA_BASE + 16: 7, DATA_BASE: 4})
        verdict = differential_check(golden, finished)
        assert not verdict.equivalent
        assert verdict.mismatched_addrs == [DATA_BASE, DATA_BASE + 8]


def _masked_verdict(golden, finished):
    """The comparison on a masked copy of the resumed memory, as the
    oracle made it before it compared in place."""
    final = data_image(finished)
    addrs = set(golden.data) | set(final)
    return sorted(
        addr for addr in addrs if golden.data.get(addr, 0) != final.get(addr, 0)
    )


#: Data words, and checkpoint words at both ends of the log area.
_ADDRS = st.sampled_from(
    [DATA_BASE + 8 * i for i in range(6)]
    + [CKPT_BASE, CKPT_BASE + 8, CKPT_END - 8, CKPT_END]
)
_IMAGE = st.dictionaries(_ADDRS, st.integers(-2, 2))


@settings(max_examples=300, deadline=None)
@given(golden=_IMAGE, memory=_IMAGE)
def test_in_place_comparison_matches_the_masked_copy(golden, memory):
    golden = GoldenResult(
        data={a: v for a, v in golden.items() if not is_ckpt_addr(a)},
        io_log=[],
        total_events=0,
    )
    finished = _machine(memory)
    verdict = differential_check(golden, finished)
    expected = _masked_verdict(golden, finished)
    assert verdict.mismatched_addrs == expected
    assert verdict.equivalent == (not expected)
    assert finished.memory == memory  # compared, not edited


class TestIoCheck:
    """At-least-once delivery: duplicates pass, lost or invented events fail."""

    GOLDEN_IO = [(0, 1, 10), (0, 1, 20)]

    def _check(self, pre_crash, resumed, golden_io=GOLDEN_IO, report=None):
        golden = GoldenResult(data={}, io_log=list(golden_io), total_events=0)
        finished = _machine({})
        finished.io_log = list(resumed)
        return differential_check(golden, finished, pre_crash, report)

    def test_replayed_duplicate_is_equivalent(self):
        verdict = self._check([(0, 1, 10)], [(0, 1, 10), (0, 1, 20)])
        assert verdict.equivalent and verdict.io_ok

    def test_lost_event_is_not_equivalent(self):
        verdict = self._check([(0, 1, 10)], [])
        assert not verdict.equivalent and not verdict.io_ok

    def test_fabricated_value_is_not_equivalent(self):
        # The golden sequence is still a subsequence of what was observed;
        # the 999 was never emitted by the crash-free run.
        verdict = self._check([(0, 1, 10)], [(0, 1, 999), (0, 1, 20)])
        assert not verdict.equivalent and not verdict.io_ok

    def test_fabricated_port_is_not_equivalent(self):
        verdict = self._check([(0, 1, 10)], [(0, 2, 10), (0, 1, 20)])
        assert not verdict.io_ok

    def test_io_from_a_silent_core_is_not_equivalent(self):
        verdict = self._check([(0, 1, 10)], [(0, 1, 20), (1, 1, 10)])
        assert not verdict.io_ok

    def test_fenced_core_is_exempt(self):
        report = RecoveryReport(quarantined_cores=[1])
        report.add("bad_ckpt", 1, "fenced")
        verdict = self._check(
            [(0, 1, 10), (1, 1, 5)],
            [(0, 1, 20), (1, 1, 999)],
            golden_io=[(0, 1, 10), (0, 1, 20), (1, 1, 5), (1, 1, 6)],
            report=report,
        )
        assert verdict.equivalent and verdict.io_ok

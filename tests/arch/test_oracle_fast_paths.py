"""The differential oracle's log-area mask, its equal-image fast path and
its I/O check."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.recovery import RecoveryReport
from repro.fault.oracle import GoldenResult, differential_check
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


def _golden(image, io_log=(), writers=None):
    """The golden result of a run that ended with memory ``image``."""
    return GoldenResult(
        image=dict(image),
        io_log=list(io_log),
        total_events=0,
        writers=dict(writers or {}),
    )


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
        golden = _golden({addr: i + 1 for i, addr in enumerate(probes)})
        expected = {
            addr: value
            for addr, value in golden.image.items()
            if not is_ckpt_addr(addr)
        }
        assert golden.data == expected
        assert sorted(expected) == [DATA_BASE, CKPT_BASE - 8, CKPT_END, CKPT_END + 8]

    def test_ckpt_end_is_past_the_last_slot(self):
        assert is_ckpt_addr(ckpt_slot_addr(63, 511, 63))
        assert not is_ckpt_addr(CKPT_END)
        assert CKPT_END == ckpt_slot_addr(63, 511, 63) + 8


class TestDifferentialCheck:
    def test_equal_images_are_equivalent(self):
        golden = _golden({DATA_BASE: 5, DATA_BASE + 8: 0, CKPT_BASE: 1})
        finished = _machine({DATA_BASE: 5, DATA_BASE + 8: 0, CKPT_BASE: 9})
        verdict = differential_check(golden, finished)
        assert verdict.equivalent and verdict.mismatched_addrs == []

    def test_image_equal_to_the_golden_one_is_equivalent(self):
        image = {DATA_BASE: 5, DATA_BASE + 8: 0, CKPT_BASE: 9}
        verdict = differential_check(_golden(image), _machine(image))
        assert verdict.equivalent and verdict.mismatched_addrs == []

    def test_same_size_image_with_another_word_is_not_equivalent(self):
        golden = _golden({DATA_BASE: 5, DATA_BASE + 8: 0, CKPT_BASE: 9})
        finished = _machine({DATA_BASE: 5, DATA_BASE + 8: 3, CKPT_BASE: 9})
        verdict = differential_check(golden, finished)
        assert not verdict.equivalent
        assert verdict.mismatched_addrs == [DATA_BASE + 8]

    def test_equal_image_still_checks_io(self):
        image = {DATA_BASE: 5}
        golden = _golden(image, io_log=[(0, 1, 10)])
        verdict = differential_check(golden, _machine(image))
        assert not verdict.equivalent and not verdict.io_ok

    def test_absent_word_reads_as_zero(self):
        # Unequal dicts, identical memory contents: the full scan runs and
        # still finds nothing.
        golden = _golden({DATA_BASE: 5, DATA_BASE + 8: 0})
        finished = _machine({DATA_BASE: 5})
        assert differential_check(golden, finished).equivalent

    def test_mismatches_sorted(self):
        golden = _golden({DATA_BASE: 5, DATA_BASE + 16: 7})
        finished = _machine({DATA_BASE + 8: 1, DATA_BASE + 16: 7, DATA_BASE: 4})
        verdict = differential_check(golden, finished)
        assert not verdict.equivalent
        assert verdict.mismatched_addrs == [DATA_BASE, DATA_BASE + 8]


def _masked_verdict(golden, finished):
    """The comparison on a masked copy of the resumed memory, as the
    oracle made it before it compared in place."""
    final = {a: v for a, v in finished.memory.items() if not is_ckpt_addr(a)}
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
    golden = _golden(golden)
    finished = _machine(memory)
    verdict = differential_check(golden, finished)
    expected = _masked_verdict(golden, finished)
    assert verdict.mismatched_addrs == expected
    assert verdict.equivalent == (not expected)
    assert finished.memory == memory  # compared, not edited


_DATA_ADDRS = [DATA_BASE + 8 * i for i in range(6)]
_CKPT_ADDRS = [CKPT_BASE, CKPT_BASE + 8, CKPT_END - 8]
#: Edits that turn the golden image into a resumed one: a checkpoint slot
#: set or dropped, a zero word added or dropped, or a data word set.
_EDIT = st.one_of(
    st.tuples(st.just("slot"), st.sampled_from(_CKPT_ADDRS), st.integers(-2, 2)),
    st.tuples(st.just("drop"), st.sampled_from(_CKPT_ADDRS), st.just(0)),
    st.tuples(st.just("add-zero"), st.sampled_from(_DATA_ADDRS), st.just(0)),
    st.tuples(st.just("drop-zero"), st.sampled_from(_DATA_ADDRS), st.just(0)),
    st.tuples(st.just("word"), st.sampled_from(_DATA_ADDRS), st.integers(-2, 2)),
)


def _edited(image, edits):
    memory = dict(image)
    for kind, addr, value in edits:
        if kind == "drop" or (kind == "drop-zero" and memory.get(addr) == 0):
            memory.pop(addr, None)
        elif kind in ("slot", "word") or (kind == "add-zero" and addr not in memory):
            memory[addr] = value
    return memory


@settings(max_examples=500, deadline=None)
@given(image=_IMAGE, edits=st.lists(_EDIT, max_size=4))
def test_equal_image_fast_path_matches_the_set_path(image, edits):
    """A resumed image near the golden one gets the verdict the masked
    comparison gives, whether or not it equals the golden image."""
    golden = _golden(image)
    finished = _machine(_edited(image, edits))
    verdict = differential_check(golden, finished)
    expected = _masked_verdict(golden, finished)
    assert verdict.mismatched_addrs == expected
    assert verdict.equivalent == (not expected)
    if finished.memory == golden.image:
        assert verdict.equivalent
    if all(kind != "word" for kind, _, _ in edits):
        # Slots and zero words alone never make a divergence.
        assert verdict.equivalent


def test_golden_names_the_writers_of_diverging_words():
    golden = _golden(
        {DATA_BASE: 1, DATA_BASE + 8: 2},
        writers={DATA_BASE: frozenset({1, 0}), DATA_BASE + 8: frozenset({2})},
    )
    assert golden.describe([DATA_BASE, DATA_BASE + 8, DATA_BASE + 16]) == (
        f"{DATA_BASE:#x} written by cores 0, 1; "
        f"{DATA_BASE + 8:#x} written by core 2; "
        f"{DATA_BASE + 16:#x} written by no core"
    )


class TestIoCheck:
    """At-least-once delivery: duplicates pass, lost or invented events fail."""

    GOLDEN_IO = [(0, 1, 10), (0, 1, 20)]

    def _check(self, pre_crash, resumed, golden_io=GOLDEN_IO, report=None):
        golden = _golden({}, io_log=golden_io)
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

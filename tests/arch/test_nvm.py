"""Unit tests for the NVM main-memory model: image, port timing, counters."""

import pytest

from repro.arch.nvm import NVMain
from repro.arch.params import SimParams


def make_nvm(**kw):
    return NVMain(SimParams.scaled().with_(**kw))


class TestImage:
    def test_reads_default_zero(self):
        nvm = make_nvm()
        assert nvm.read_word(0x1000) == 0
        assert nvm.reads == 1

    def test_peek_does_not_count(self):
        nvm = make_nvm()
        nvm.peek(0x1000)
        assert nvm.reads == 0

    def test_initial_image(self):
        nvm = NVMain(SimParams.scaled(), initial={0x10: 7})
        assert nvm.peek(0x10) == 7

    def test_writeback_applies_words(self):
        nvm = make_nvm()
        nvm.writeback_words(0.0, {0x10: 1, 0x18: 2})
        assert nvm.peek(0x10) == 1 and nvm.peek(0x18) == 2
        assert nvm.writes_writeback == 2

    def test_redo_and_ckpt_counters(self):
        nvm = make_nvm()
        nvm.redo_write(0.0, 0x10, 5)
        nvm.ckpt_write(0.0, 0x4000_0000, 9)
        assert nvm.writes_redo == 1
        assert nvm.writes_ckpt == 1
        assert nvm.total_writes == 2


class TestWritePort:
    """Every producer returns the issue time of its (last) write."""

    def test_issue_spacing(self):
        nvm = make_nvm()
        interval = nvm.params.nvm_write_interval_cycles
        t0 = nvm.redo_write(0.0, 0x10, 1)
        t1 = nvm.ckpt_write(0.0, 0x4000_0000, 2)
        t2 = nvm.writeback_words(0.0, {0x18: 3})
        assert t0 == 0.0
        assert t1 == pytest.approx(interval)
        assert t2 == pytest.approx(2 * interval)

    def test_issue_after_idle_starts_at_now(self):
        nvm = make_nvm()
        nvm.redo_write(0.0, 0x10, 1)
        t = nvm.redo_write(10_000.0, 0x18, 2)
        assert t == 10_000.0

    def test_throughput_matches_parallelism(self):
        fast = make_nvm(nvm_write_parallelism=600)
        slow = make_nvm(nvm_write_parallelism=2)
        for i in range(10):
            fast.redo_write(0.0, 0x10, i)
            slow.redo_write(0.0, 0x10, i)
        assert slow.write_free_at > fast.write_free_at

    def test_writeback_occupies_port_per_word(self):
        nvm = make_nvm()
        last = nvm.writeback_words(0.0, {0x10: 1, 0x18: 2, 0x20: 3})
        assert last >= 2 * nvm.params.nvm_write_interval_cycles - 1e-9


class TestPcCheckpoints:
    def test_starts_empty(self):
        assert make_nvm().pc_checkpoints == {}

    def test_survives_as_plain_dict(self):
        nvm = make_nvm()
        nvm.pc_checkpoints[0] = ("cont", 3)
        assert dict(nvm.pc_checkpoints) == {0: ("cont", 3)}

"""Crash-free runs compute no integrity checksums.

Proxy entries, WPQ records and checkpoint-slot shadow words carry FNV
checksums that only crash capture, the fault models and recovery read.
They are computed on demand — an entry's or record's on first read, a
slot's shadow word from the value ``ckpt_write`` wrote — so a run that
never crashes never computes one.  These tests count every call into the
checksum functions and the FNV kernel during crash-free runs of a real
workload, and pin the on-demand rules themselves.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.arch.nvm as nvm
import repro.arch.proxy as proxy
import repro.arch.recovery as recovery
from repro.api import RunSpec, build_spec, execute_spec
from repro.arch.nvm import NVMain, WpqRecord, word_checksum
from repro.arch.params import SimParams
from repro.arch.proxy import KIND_DATA, ProxyEntry, entry_checksum
from repro.compiler import OptConfig
from repro.ir.module import ckpt_slot_addr
from repro.trace.record import capture_trace
from repro.trace.replay import build_replay_system

SPEC = RunSpec(workload="genome", scale=0.1, config=OptConfig.licm(256))

#: Every name a checksum is computed through, by the module that calls it.
_COUNTED = [
    (proxy, "entry_checksum"),
    (proxy, "_fnv_int"),
    (proxy, "_fnv_mix"),
    (nvm, "word_checksum"),
    (nvm, "_fnv_int"),
    (nvm, "_fnv_mix"),
    (recovery, "word_checksum"),
]


@pytest.fixture
def checksum_calls(monkeypatch):
    """Count calls to every checksum function and FNV kernel entry."""
    calls: Counter = Counter()
    for module, name in _COUNTED:
        key = f"{module.__name__}.{name}"

        def counting(*args, _original=getattr(module, name), _key=key):
            calls[_key] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_interpreted_run_computes_no_checksum(checksum_calls):
    result = execute_spec(SPEC)
    assert result.metrics.nvm_writes_ckpt > 0  # slots were written
    assert result.metrics.proxy_entries > 0
    assert dict(checksum_calls) == {}


def test_replayed_run_computes_no_checksum(checksum_calls):
    trace = capture_trace(*build_spec(SPEC), quantum=SPEC.quantum)
    system = build_replay_system(
        trace, params=SPEC.effective_params, threshold=256
    )
    trace.deliver(system)
    system.finish()
    assert dict(checksum_calls) == {}


def test_counting_sees_a_first_read(checksum_calls):
    """The counters are live: reading one checksum is seen."""
    entry = ProxyEntry(KIND_DATA, 0, 0.0, addr=8, undo=1, redo=2)
    assert entry.intact
    assert checksum_calls["repro.arch.proxy.entry_checksum"] == 1


class TestOnDemandRules:
    def test_refresh_clears_and_clone_copies_the_unread_checksum(self):
        e = ProxyEntry(KIND_DATA, 0, 0.0, addr=8, undo=1, redo=2)
        assert e.intact
        fresh = e.clone()
        fresh.redo = 5
        fresh.refresh_checksum()
        # Not computed yet, and a clone keeps it that way.
        assert fresh.clone()._checksum is None
        assert fresh.checksum == entry_checksum(fresh)
        assert e.intact

    def test_wpq_verdict_is_computed_once(self, monkeypatch):
        rec = WpqRecord(0x2000, 17, None)
        assert rec.checksum == word_checksum(0x2000, 17)
        torn = WpqRecord(rec.addr, rec.value ^ 1, rec.prev, rec.checksum)
        calls = []

        def counting(addr, value):
            calls.append((addr, value))
            return word_checksum(addr, value)

        monkeypatch.setattr(nvm, "word_checksum", counting)
        assert rec.intact and not torn.intact
        assert not torn.intact and rec.intact
        assert calls == [(torn.addr, torn.value)]

    def test_shadow_word_names_the_value_written_not_the_image(self):
        mem = NVMain(SimParams.scaled())
        slot = ckpt_slot_addr(0, 3, 1)
        mem.ckpt_write(0.0, slot, 41)
        mem.ckpt_write(0.0, slot, 42)
        mem.image[slot] ^= 0xFF  # a flip behind the shadow word's back
        assert mem.ckpt_shadow == {slot: word_checksum(slot, 42)}
        mem.ckpt_write(0.0, slot, 7)
        assert mem.ckpt_shadow == {slot: word_checksum(slot, 7)}

"""The integrity checksums are bit-identical to byte-at-a-time FNV-1a.

Proxy entries, WPQ records and checkpoint-array shadow words all carry
an FNV-1a integrity word that recovery re-verifies at every crash point.
The kernel in :mod:`repro.arch.nvm` folds a run of trailing zero bytes
with one multiply instead of one loop iteration per byte.  These tests
pin it against the straightforward per-byte algorithm, kept here as the
oracle, and pin literal checksums so any drift in the encoding
(field order, the bool and ``None`` bytes, the sorted ``ckpts`` order)
fails loudly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.nvm import _FNV_OFFSET, WpqRecord, _fnv_mix, word_checksum
from repro.arch.proxy import KIND_BOUNDARY, KIND_DATA, ProxyEntry
from repro.ir.module import ckpt_slot_addr
from repro.isa.machine import Continuation

_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1


def reference_mix(h: int, value) -> int:
    """Byte-at-a-time FNV-1a over the checksum encoding: every int as 16
    little-endian two's-complement bytes, bools as one byte 0x01/0x02,
    ``None`` as 0x00, strings as UTF-8, tuples element by element."""
    if value is None:
        data = b"\x00"
    elif isinstance(value, bool):
        data = b"\x01" if value else b"\x02"
    elif isinstance(value, int):
        data = value.to_bytes(16, "little", signed=True)
    elif isinstance(value, str):
        data = value.encode()
    elif isinstance(value, tuple):
        for v in value:
            h = reference_mix(h, v)
        return h
    else:
        raise TypeError(value)
    for b in data:
        h = ((h ^ b) * _PRIME) & _MASK
    return h


def reference_word(addr: int, value: int) -> int:
    return reference_mix(reference_mix(_FNV_OFFSET, addr), value)


_EDGES = [0, 1, -1, 255, 256, (1 << 63) - 1, -(1 << 63), (1 << 127) - 1, -(1 << 127)]
ints = st.one_of(
    st.sampled_from(_EDGES),
    st.integers(min_value=-(1 << 127), max_value=(1 << 127) - 1),
    st.integers(min_value=0, max_value=1 << 40),
)
hashes = st.integers(min_value=0, max_value=_MASK)
scalars = st.one_of(ints, st.booleans(), st.none(), st.text(max_size=8))
values = st.recursive(
    scalars, lambda inner: st.tuples(inner, inner) | st.tuples(inner), max_leaves=8
)


class TestKernelMatchesReference:
    @pytest.mark.parametrize("value", _EDGES)
    def test_edges(self, value):
        assert _fnv_mix(_FNV_OFFSET, value) == reference_mix(_FNV_OFFSET, value)

    @settings(max_examples=400, deadline=None)
    @given(h=hashes, value=ints)
    def test_ints(self, h, value):
        assert _fnv_mix(h, value) == reference_mix(h, value)

    @settings(max_examples=300, deadline=None)
    @given(addr=ints, value=ints)
    def test_word_checksum(self, addr, value):
        assert word_checksum(addr, value) == reference_word(addr, value)

    @settings(max_examples=300, deadline=None)
    @given(h=hashes, value=values)
    def test_bools_none_strings_tuples(self, h, value):
        assert _fnv_mix(h, value) == reference_mix(h, value)

    @pytest.mark.parametrize("value", [1 << 127, -(1 << 127) - 1, 1 << 200])
    def test_out_of_range_raises(self, value):
        with pytest.raises(OverflowError):
            reference_mix(_FNV_OFFSET, value)
        with pytest.raises(OverflowError):
            _fnv_mix(_FNV_OFFSET, value)
        with pytest.raises(OverflowError):
            word_checksum(0, value)


def _data_entry() -> ProxyEntry:
    return ProxyEntry(KIND_DATA, 3, 12.5, addr=0x1008, undo=7, redo=-42)


def _boundary_entry() -> ProxyEntry:
    frame = ("caller", "after_call", 4, (1, 2, 3), 0)
    cont = Continuation("worker", "loop_body", 2, (frame,))
    return ProxyEntry(
        KIND_BOUNDARY,
        5,
        99.0,
        region_id=12,
        continuation=cont,
        ckpts={
            ckpt_slot_addr(0, 1, 1): 99,
            ckpt_slot_addr(0, 0, 1): -1,
            ckpt_slot_addr(0, 2, 1): (1 << 63) - 1,
        },
    )


def _reference_entry(e: ProxyEntry) -> int:
    """The entry encoding spelled out field by field, over the oracle."""
    cont = e.continuation
    key = (
        (None,)
        if cont is None
        else (cont.func_name, cont.label, cont.index, len(cont.callstack))
    )
    fields = (e.kind, e.addr, e.undo, e.redo, e.redo_valid, e.region_seq)
    h = _FNV_OFFSET
    for v in fields + (e.region_id, key):
        h = reference_mix(h, v)
    for slot in sorted(e.ckpts):
        h = reference_mix(h, (slot, e.ckpts[slot]))
    return h


class TestLiteralChecksums:
    """Values computed with the byte-at-a-time kernel, before the zero-run
    fold existed."""

    def test_data_entry(self):
        e = _data_entry()
        assert e.checksum == 0x920B2FD18637BD1F
        e.redo_valid = False
        e.refresh_checksum()
        assert e.checksum == 0xB33F5CA6BFB3CF10

    def test_boundary_entry(self):
        assert _boundary_entry().checksum == 0xA25B32E1E9E6E633

    def test_checkpoint_slot_word(self):
        slot = ckpt_slot_addr(1, 3, 2)
        assert word_checksum(slot, (1 << 40) + 5) == 0x4A931B996FDFF607
        assert word_checksum(slot, -(1 << 63)) == 0x4916E5BAAB2A0531

    def test_entries_match_reference_encoding(self):
        for e in (_data_entry(), _boundary_entry()):
            assert e.checksum == _reference_entry(e)

    @settings(max_examples=200, deadline=None)
    @given(
        addr=ints,
        undo=ints,
        redo=ints,
        valid=st.booleans(),
        seq=st.integers(0, 1 << 32),
        ckpts=st.dictionaries(ints, ints, max_size=4),
    )
    def test_random_entries_match_reference(
        self, addr, undo, redo, valid, seq, ckpts
    ):
        e = ProxyEntry(
            KIND_BOUNDARY,
            seq,
            0.0,
            addr=addr,
            undo=undo,
            redo=redo,
            region_id=-1,
            ckpts=ckpts,
        )
        e.redo_valid = valid
        e.refresh_checksum()
        assert e.checksum == _reference_entry(e)

    def test_wpq_record(self):
        rec = WpqRecord(0x2000, 17, None)
        assert rec.checksum == reference_word(0x2000, 17)
        assert rec.intact

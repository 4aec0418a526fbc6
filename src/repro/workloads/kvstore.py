"""The ``kv_store`` workload: an ordinary open-addressing hash table.

The paper's Section 1 motivation made executable: a linear-probing hash
table written with *no* transactions, no pmalloc, no flushes and no
recovery code, made crash-consistent purely by compiling it under Capri.
It started life as ``examples/kv_store.py``; promoting it into the
registry means the sweep engine, the fault campaign, and the
persistency checker all share one builder instead of private copies.

Two entry points:

* :func:`build_kv_store` — the registry builder: the table plus a
  seeded batch driver (``main``) issuing a put/get/delete mix, exactly
  like every other benchmark stand-in.
* :func:`build_kv_service_module` — the same module with its
  :class:`KvLayout` (table/stats/result addresses), for callers that
  spawn the per-operation entry points (``kv_put``/``kv_get``/
  ``kv_delete``) directly — one request per hart activation
  (``examples/kv_store.py`` and the tombstone regression tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.ir.module import Module

#: Registry name.
KV_STORE = "kv_store"

#: Slots in the table (power of two); each slot is [key, value].
TABLE_SLOTS = 128

#: Slot values with special meaning in the key word.
EMPTY = 0
TOMBSTONE = -1

#: Largest key the drivers generate (keys are 1..KEY_SPACE).
KEY_SPACE = 64


@dataclass(frozen=True)
class KvLayout:
    """Data-segment addresses of one built kv module."""

    table: int
    stats: int  # [puts, deletes, misses, probes]
    result: int  # [found, value] — written by kv_get
    slots: int

    def slot_addr(self, index: int) -> int:
        return self.table + 16 * index


def dump_table(memory: Dict[int, int], layout: KvLayout) -> Dict[int, int]:
    """Live key -> value mapping from a (machine or NVM) word image."""
    live: Dict[int, int] = {}
    for i in range(layout.slots):
        k = memory.get(layout.slot_addr(i), 0)
        if k not in (EMPTY, TOMBSTONE):
            live[k] = memory.get(layout.slot_addr(i) + 8, 0)
    return live


def _build(slots: int) -> Tuple[Module, KvLayout]:
    """The table and its operations — plain code, no persistence logic."""
    from repro.ir import IRBuilder, verify_module

    b = IRBuilder(KV_STORE)
    table = b.module.alloc("table", 2 * slots)
    stats = b.module.alloc("stats", 4)
    result = b.module.alloc("result", 2)

    def slot_addr(f, idx):
        return f.add(table, f.shl(f.mul(idx, 2), 3))

    def hash_index(f, key):
        h = f.mul(key, 0x9E3779B1)
        return f.and_(f.xor(h, f.shr(h, 16)), slots - 1)

    with b.function("kv_put", params=["key", "value"]) as f:
        idx = hash_index(f, f.param(0))
        # Earliest tombstone in the probe chain; claimed only after the
        # whole chain (up to the first EMPTY) proves the key absent —
        # inserting at the first tombstone blindly would leave a stale
        # duplicate of an existing key further down the chain.
        free = f.li(-1)
        with f.for_range(slots):
            addr = slot_addr(f, idx)
            k = f.load(addr)
            with f.if_then(f.cmp("seq", k, f.param(0))):
                f.store(f.param(0), addr)  # two plain stores: the torn-
                f.store(f.param(1), addr, offset=8)  # write hazard, solved
                f.store(f.add(f.load(stats), 1), stats)
                f.ret(1)
            tomb = f.cmp("seq", k, TOMBSTONE)
            with f.if_then(f.and_(tomb, f.cmp("slt", free, 0))):
                f.add(idx, 0, dst=free)
            with f.if_then(f.cmp("seq", k, EMPTY)):
                with f.if_then(f.cmp("slt", free, 0)):
                    f.add(idx, 0, dst=free)
                ins = slot_addr(f, free)
                f.store(f.param(0), ins)
                f.store(f.param(1), ins, offset=8)
                f.store(f.add(f.load(stats), 1), stats)
                f.ret(1)
            f.add(idx, 1, dst=idx)
            f.and_(idx, slots - 1, dst=idx)
            f.store(f.add(f.load(stats, offset=24), 1), stats, offset=24)
        with f.if_then(f.cmp("slt", f.li(-1), free)):
            ins = slot_addr(f, free)  # chain fully probed: reuse a tombstone
            f.store(f.param(0), ins)
            f.store(f.param(1), ins, offset=8)
            f.store(f.add(f.load(stats), 1), stats)
            f.ret(1)
        f.ret(0)  # table full

    with b.function("kv_get", params=["key"]) as f:
        f.store(0, result)
        f.store(0, result, offset=8)
        idx = hash_index(f, f.param(0))
        with f.for_range(slots):
            addr = slot_addr(f, idx)
            k = f.load(addr)
            with f.if_then(f.cmp("seq", k, f.param(0))):
                f.store(1, result)
                f.store(f.load(addr, offset=8), result, offset=8)
                f.ret(1)
            with f.if_then(f.cmp("seq", k, EMPTY)):
                f.store(f.add(f.load(stats, offset=16), 1), stats, offset=16)
                f.ret(0)  # not present
            f.add(idx, 1, dst=idx)
            f.and_(idx, slots - 1, dst=idx)
        f.ret(0)

    with b.function("kv_delete", params=["key"]) as f:
        idx = hash_index(f, f.param(0))
        with f.for_range(slots):
            addr = slot_addr(f, idx)
            k = f.load(addr)
            with f.if_then(f.cmp("seq", k, f.param(0))):
                f.store(TOMBSTONE, addr)
                f.store(0, addr, offset=8)
                f.store(f.add(f.load(stats, offset=8), 1), stats, offset=8)
                f.ret(1)
            with f.if_then(f.cmp("seq", k, EMPTY)):
                f.store(f.add(f.load(stats, offset=16), 1), stats, offset=16)
                f.ret(0)
            f.add(idx, 1, dst=idx)
            f.and_(idx, slots - 1, dst=idx)
        f.ret(0)

    # The batch driver every registry runner (sweeps, campaigns, the
    # checker) uses: a seeded put/get/delete mix over a small key space.
    with b.function("main", params=["ops"]) as f:
        rng = f.li(0xBEEF)
        with f.for_range(f.param(0)):
            f.mul(rng, 0x9E3779B1, dst=rng)
            f.xor(rng, f.shr(rng, 13), dst=rng)
            key = f.add(f.and_(rng, KEY_SPACE - 1), 1)  # keys 1..KEY_SPACE
            kind = f.and_(f.shr(rng, 20), 7)
            with f.if_else(f.cmp("slt", kind, 2)) as br:
                f.call("kv_delete", [key], returns=True)
                br.otherwise()
                with f.if_else(f.cmp("slt", kind, 4)) as br2:
                    f.call("kv_get", [key], returns=True)
                    br2.otherwise()
                    value = f.and_(f.shr(rng, 8), 0xFFFF)
                    f.call("kv_put", [key, value], returns=True)
        f.ret()

    verify_module(b.module)
    return b.module, KvLayout(table=table, stats=stats, result=result, slots=slots)


def build_kv_store(
    scale: float = 1.0, ops: int = None
) -> Tuple[Module, List[Tuple[str, Sequence[int]]]]:
    """Registry builder: the table plus the seeded batch driver."""
    if ops is None:
        ops = max(1, int(240 * scale))
    module, _layout = _build(TABLE_SLOTS)
    return module, [("main", [ops])]


def build_kv_service_module(slots: int = TABLE_SLOTS) -> Tuple[Module, KvLayout]:
    """The module plus its data layout, for per-operation spawning."""
    return _build(slots)

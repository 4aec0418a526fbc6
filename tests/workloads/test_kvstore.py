"""The kv_store workload: table semantics, especially tombstone probing."""

import pytest

from repro.isa import Machine
from repro.workloads.kvstore import (
    EMPTY,
    TOMBSTONE,
    build_kv_service_module,
    build_kv_store,
    dump_table,
)


@pytest.fixture(scope="module")
def built():
    return build_kv_service_module(slots=16)  # small table: chains collide


def _machine(built):
    module, _ = built
    return Machine(module)


def _op(machine, fn, args):
    machine.harts.clear()
    machine.spawn(fn, args)
    machine.run()


def _table(machine, built):
    return dump_table(machine.memory, built[1])


def test_put_get_delete_roundtrip(built):
    m = _machine(built)
    _op(m, "kv_put", [5, 50])
    _op(m, "kv_put", [6, 60])
    _op(m, "kv_delete", [5])
    assert _table(m, built) == {6: 60}


def test_overwrite_keeps_single_slot(built):
    m = _machine(built)
    _op(m, "kv_put", [9, 1])
    _op(m, "kv_put", [9, 2])
    _op(m, "kv_put", [9, 3])
    layout = built[1]
    slots_with_key = [
        i for i in range(layout.slots)
        if m.memory.get(layout.slot_addr(i), 0) == 9
    ]
    assert len(slots_with_key) == 1
    assert _table(m, built) == {9: 3}


def test_put_past_tombstone_finds_existing_key(built):
    """Regression: a tombstone in a key's probe chain must not cause a
    re-put of that key to insert a duplicate (seen as a stale value
    after a colliding delete)."""
    m = _machine(built)
    layout = built[1]
    # Fill a chain: with 16 slots, keys colliding mod 16 probe linearly.
    # Find three keys that land on the same home slot.
    def home(key):
        h = (key * 0x9E3779B1) & 0xFFFFFFFFFFFFFFFF
        return (h ^ (h >> 16)) & (layout.slots - 1)

    base = home(1)
    chain = [k for k in range(1, 200) if home(k) == base][:3]
    assert len(chain) == 3
    a, b, c = chain
    _op(m, "kv_put", [a, 100])
    _op(m, "kv_put", [b, 200])  # probes past a's slot
    _op(m, "kv_put", [c, 300])  # probes past both
    _op(m, "kv_delete", [a])    # tombstone at the chain head
    _op(m, "kv_put", [c, 999])  # must UPDATE c, not insert at the tombstone
    table = _table(m, built)
    assert table[c] == 999
    assert a not in table
    slots_with_c = [
        i for i in range(layout.slots)
        if m.memory.get(layout.slot_addr(i), 0) == c
    ]
    assert len(slots_with_c) == 1, "duplicate slot for an existing key"
    # And a later delete removes c for good (no resurrection).
    _op(m, "kv_delete", [c])
    assert c not in _table(m, built)


def test_tombstone_slots_are_reused(built):
    m = _machine(built)
    layout = built[1]
    _op(m, "kv_put", [3, 30])
    _op(m, "kv_delete", [3])
    _op(m, "kv_put", [3, 31])
    occupied = [
        i for i in range(layout.slots)
        if m.memory.get(layout.slot_addr(i), 0) not in (EMPTY, TOMBSTONE)
    ]
    assert len(occupied) == 1  # the tombstone was reclaimed
    assert _table(m, built) == {3: 31}


def test_table_full_returns_zero():
    built = build_kv_service_module(slots=4)
    m = _machine(built)
    keys = [1, 2, 3, 4, 5]
    results = []
    for key in keys:
        m.harts.clear()
        m.spawn("kv_put", [key, key])
        m.run()
        # kv_put's return value lands in the hart's return register; the
        # table dump is the observable we trust here instead.
    table = _table(m, built)
    assert len(table) == 4  # fifth put found no slot


def test_randomized_differential_against_dict():
    import random

    built = build_kv_service_module(slots=32)
    m = _machine(built)
    rng = random.Random(1234)
    model = {}
    for _ in range(300):
        key = rng.randrange(1, 25)
        action = rng.random()
        if action < 0.5:
            value = rng.randrange(1, 1 << 20)
            _op(m, "kv_put", [key, value])
            model[key] = value
        else:
            _op(m, "kv_delete", [key])
            model.pop(key, None)
        assert _table(m, built) == model


def test_batch_driver_runs_and_populates():
    module, spawns = build_kv_store(scale=0.5)
    machine = Machine(module)
    for fn, args in spawns:
        machine.spawn(fn, args)
    machine.run()
    # The driver issues a put-heavy mix over keys 1..64.
    from repro.workloads.kvstore import KvLayout, TABLE_SLOTS

    layout = KvLayout(
        table=module.symbols["table"], stats=module.symbols["stats"],
        result=module.symbols["result"], slots=TABLE_SLOTS,
    )
    table = dump_table(machine.memory, layout)
    assert table and all(1 <= k <= 64 for k in table)

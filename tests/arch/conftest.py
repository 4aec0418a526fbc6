"""Shared workload builders for architecture tests."""

from __future__ import annotations

from typing import Optional, Tuple

import pytest

from repro.compiler import CapriCompiler, OptConfig
from repro.ir import IRBuilder, verify_module
from repro.ir.module import Module, is_ckpt_addr
from repro.isa import Machine


def data_memory(machine: Machine) -> dict:
    """Final data-segment memory (checkpoint storage masked out)."""
    return {a: v for a, v in machine.memory.items() if not is_ckpt_addr(a)}


def build_update_loop(n_iters: int = 100, arr_words: int = 64) -> Module:
    """Read-modify-write loop: *not* idempotent across naive re-execution,
    so double-applied or lost regions show up immediately."""
    b = IRBuilder("update_loop")
    arr = b.module.alloc("arr", arr_words, init=list(range(arr_words)))
    with b.function("kernel", params=["base", "n"]) as f:
        acc = f.li(0)
        with f.for_range(f.param(1)) as i:
            idx = f.and_(i, arr_words - 1)
            addr = f.add(f.param(0), f.shl(idx, 3))
            v = f.load(addr)
            f.store(f.add(v, f.mul(i, 3)), addr)
            f.add(acc, v, dst=acc)
        f.ret(acc)
    with b.function("main") as f:
        s = f.call("kernel", [arr, n_iters], returns=True)
        f.store(s, arr)
        f.ret(s)
    verify_module(b.module)
    return b.module


def build_pointer_chase(depth: int = 30) -> Module:
    """Linked-structure update with calls and branches."""
    b = IRBuilder("chase")
    nodes = b.module.alloc("nodes", 2 * depth)
    # node i: [value, next_index]; chain 0 -> 1 -> ... -> depth-1 -> -1
    init = []
    for i in range(depth):
        init += [i * 7, i + 1 if i + 1 < depth else -1]
    b.module.initial_data.update(
        {nodes + k * 8: v for k, v in enumerate(init)}
    )
    with b.function("bump", params=["base", "idx"]) as f:
        addr = f.add(f.param(0), f.shl(f.mul(f.param(1), 2), 3))
        v = f.load(addr)
        f.store(f.add(v, 1), addr)
        f.ret(f.load(addr, offset=8))  # next index
    with b.function("main") as f:
        idx = f.li(0)
        with f.while_loop(lambda: f.cmp("sge", idx, 0)):
            nxt = f.call("bump", [nodes, idx], returns=True)
            f.move(idx, nxt)
        f.ret(idx)
    verify_module(b.module)
    return b.module


def compile_capri(module: Module, threshold: int = 32, config=None) -> Module:
    cfg = config or OptConfig.licm(threshold)
    return CapriCompiler(cfg).compile(module).module


def reference_run(module: Module, func: str = "main", args=()) -> Tuple[int, dict]:
    m = Machine(module)
    rv = m.run_function(func, args)
    return rv, data_memory(m)


def entry_payloads(core_entries) -> list:
    """Every durable field and the checksum of per-core entry lists —
    what sharing an entry must never change."""
    return [
        [
            (
                e.kind,
                e.addr,
                e.undo,
                e.redo,
                e.redo_valid,
                e.region_seq,
                e.region_id,
                e.continuation,
                dict(e.ckpts),
                e.checksum,
            )
            for e in entries
        ]
        for entries in core_entries
    ]


def mergeable_addr(pipe, held) -> Optional[int]:
    """An address whose valid current-region front-end entry (the one
    the next same-address store merges into) is among the entries
    ``held``, with a valid data entry for another address held too."""
    ids = {id(e) for e in held}
    for addr, entry in pipe._fe_merge.items():
        if id(entry) in ids and entry.redo_valid and any(
            not e.is_boundary and e.redo_valid and e.addr != addr for e in held
        ):
            return addr
    return None


def edit_through_hardware(pipe, addr: int) -> None:
    """Edit live entries the legitimate ways: a front-end merge into
    ``addr``'s entry, a Section 5.3.2 valid-bit scan of another address,
    then the planted ``invalidate_all``.  Each edit must take effect."""
    target = pipe._fe_merge[addr]
    merges = pipe.entries_merged
    # Stamped at the target's creation, so no transfer moves it first.
    pipe.record_store(target.create_time, addr, target.redo + 1, target.redo)
    assert pipe.entries_merged == merges + 1
    assert pipe._fe_merge[addr].redo == target.redo + 1
    other = next(
        e
        for e in pipe.entries_in_order()
        if not e.is_boundary and e.redo_valid and e.addr != addr
    )
    assert pipe.invalidate_matching(other.addr) >= 1
    assert pipe.invalidate_all() >= 1
    assert not any(
        e.redo_valid for e in pipe.entries_in_order() if not e.is_boundary
    )

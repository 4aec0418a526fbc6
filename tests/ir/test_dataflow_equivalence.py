"""Bitset dataflow against the frozenset implementation it replaced.

``repro.ir.reaching`` and ``repro.ir.liveness`` solve over int bitsets and
decode to frozensets on demand.  The reference below is the previous
frozenset-of-tuples implementation — a worklist solver with union meet,
per-block gen/kill over ``(label, index, reg)`` sites, and the per-index
set rebuild behind ``reaching_defs_of`` — kept here as the oracle.  Every
public fact is compared at every position: on each function of every
registry workload at each compiler pipeline stage, and on random CFGs.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, FrozenSet, List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.checkpoints import insert_checkpoints
from repro.compiler.clone import clone_module
from repro.compiler.licm import move_checkpoints_out_of_loops
from repro.compiler.pruning import prune_checkpoints
from repro.compiler.regions import form_regions
from repro.compiler.unrolling import speculative_unroll
from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.ir.instructions import BinOp, CheckpointStore, Load, Move, Ret, Store
from repro.ir.liveness import compute_liveness
from repro.ir.reaching import compute_reaching_defs
from repro.ir.values import Imm, Reg
from repro.workloads import get_workload, workload_names

from tests.ir.test_cfg_properties import random_cfg

Site = Tuple[str, int, int]


# ---------------------------------------------------------------------------
# reference: the frozenset implementation
# ---------------------------------------------------------------------------

def _ref_solve_backward(cfg: CFG, transfer: Callable) -> Dict[str, FrozenSet]:
    in_sets: Dict[str, FrozenSet] = {label: frozenset() for label in cfg.rpo}
    worklist = deque(reversed(cfg.rpo))
    queued = set(worklist)
    while worklist:
        label = worklist.popleft()
        queued.discard(label)
        out = frozenset().union(
            *(in_sets[s] for s in cfg.succs[label] if s in in_sets)
        )
        new_in = transfer(label, out)
        if new_in != in_sets[label]:
            in_sets[label] = new_in
            for pred in cfg.preds[label]:
                if pred in in_sets and pred not in queued:
                    worklist.append(pred)
                    queued.add(pred)
    return in_sets


def _ref_solve_forward(cfg: CFG, transfer: Callable) -> Dict[str, FrozenSet]:
    out_sets: Dict[str, FrozenSet] = {label: frozenset() for label in cfg.rpo}
    worklist = deque(cfg.rpo)
    queued = set(worklist)
    while worklist:
        label = worklist.popleft()
        queued.discard(label)
        in_set = frozenset().union(
            *(out_sets[p] for p in cfg.preds[label] if p in out_sets)
        )
        new_out = transfer(label, in_set)
        if new_out != out_sets[label]:
            out_sets[label] = new_out
            for succ in cfg.succs[label]:
                if succ in out_sets and succ not in queued:
                    worklist.append(succ)
                    queued.add(succ)
    return out_sets


def ref_reaching(func: Function, cfg: CFG):
    """``(reach_in, reach_out, defs_of)`` as frozensets of sites."""
    gen: Dict[str, FrozenSet[Site]] = {}
    kill_regs: Dict[str, FrozenSet[int]] = {}
    defs_of: Dict[int, Set[Site]] = {}
    for label in cfg.rpo:
        last_def: Dict[int, Site] = {}
        for i, instr in enumerate(func.blocks[label].instrs):
            for d in instr.defs():
                site = (label, i, d.index)
                last_def[d.index] = site
                defs_of.setdefault(d.index, set()).add(site)
        gen[label] = frozenset(last_def.values())
        kill_regs[label] = frozenset(last_def.keys())

    def transfer(label, in_set):
        killed = kill_regs[label]
        survive = frozenset(s for s in in_set if s[2] not in killed)
        return survive | gen[label]

    reach_out = _ref_solve_forward(cfg, transfer)
    reach_in = {
        label: frozenset().union(
            *(reach_out[p] for p in cfg.preds[label] if p in reach_out)
        )
        for label in cfg.rpo
    }
    return reach_in, reach_out, {r: frozenset(s) for r, s in defs_of.items()}


def ref_reaching_at(func: Function, reach_in, label: str) -> List[Set[Site]]:
    """Sites reaching before each index 0..len(instrs) of ``label``."""
    live = set(reach_in[label])
    out = [set(live)]
    for i, instr in enumerate(func.blocks[label].instrs):
        for d in instr.defs():
            live = {s for s in live if s[2] != d.index}
            live.add((label, i, d.index))
        out.append(set(live))
    return out


def ref_liveness(func: Function, cfg: CFG):
    """``(live_in, live_out)`` as frozensets of register indices."""
    use_def = {}
    for label in cfg.rpo:
        uses: Set[int] = set()
        defs: Set[int] = set()
        for instr in func.blocks[label].instrs:
            for u in instr.uses():
                if u.index not in defs:
                    uses.add(u.index)
            for d in instr.defs():
                defs.add(d.index)
        use_def[label] = (frozenset(uses), frozenset(defs))

    def transfer(label, out):
        use, defs = use_def[label]
        return use | (out - defs)

    live_in = _ref_solve_backward(cfg, transfer)
    live_out = {
        label: frozenset().union(*(live_in[s] for s in cfg.succs[label]))
        for label in cfg.rpo
    }
    return live_in, live_out


def ref_live_before(func: Function, live_out, label: str) -> List[FrozenSet[int]]:
    """Registers live before each index 0..len(instrs) of ``label``."""
    instrs = func.blocks[label].instrs
    live = set(live_out[label])
    out = [frozenset(live)]
    for instr in reversed(instrs):
        for d in instr.defs():
            live.discard(d.index)
        for u in instr.uses():
            live.add(u.index)
        out.append(frozenset(live))
    return out[::-1]


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

def assert_equivalent(func: Function, stage: str = "") -> None:
    where = (func.name, stage)
    cfg = CFG(func)
    rdefs = compute_reaching_defs(func, cfg)
    reach_in, reach_out, defs_of = ref_reaching(func, cfg)
    assert dict(rdefs.reach_in) == reach_in, where
    assert dict(rdefs.reach_out) == reach_out, where
    assert dict(rdefs.defs_of) == defs_of, where
    for label in cfg.rpo:
        for index, live in enumerate(ref_reaching_at(func, reach_in, label)):
            for reg in range(func.num_regs):
                want = {s for s in live if s[2] == reg}
                got = rdefs.reaching_defs_of(func, label, index, reg)
                assert got == want, (*where, label, index, reg)

    liveness = compute_liveness(func, cfg)
    live_in, live_out = ref_liveness(func, cfg)
    assert dict(liveness.live_in) == live_in, where
    assert dict(liveness.live_out) == live_out, where
    for label in cfg.rpo:
        for index, live in enumerate(ref_live_before(func, live_out, label)):
            got = liveness.live_before_index(func, label, index)
            assert got == live, (*where, label, index)


#: Pipeline stages, each applied on top of the previous one.
STAGES = (
    ("raw", lambda f, t: None),
    ("unrolled", lambda f, t: speculative_unroll(f, threshold=t, max_unroll=32)),
    ("regions", lambda f, t: form_regions(f, threshold=t, count_ckpt_estimates=True)),
    ("checkpoints", lambda f, t: insert_checkpoints(f)),
    ("pruned", lambda f, t: prune_checkpoints(f)),
    ("licm", lambda f, t: move_checkpoints_out_of_loops(f)),
)


@pytest.mark.parametrize("name", workload_names())
def test_registry_workloads_every_stage(name):
    module, _ = get_workload(name).build(0.05)
    module = clone_module(module)
    for func in module.functions.values():
        for stage, apply in STAGES:
            apply(func, 64)
            assert_equivalent(func, stage)


NREGS = 4
_reg = st.integers(min_value=0, max_value=NREGS - 1).map(Reg)
_operand = st.one_of(_reg, st.integers(min_value=0, max_value=9).map(Imm))
_instr = st.one_of(
    st.builds(Move, _reg, _operand),
    st.builds(BinOp, st.just("add"), _reg, _operand, _operand),
    st.builds(Load, _reg, _reg),
    st.builds(Store, _operand, _reg),
    st.builds(CheckpointStore, _reg),
)


@st.composite
def random_program(draw) -> Function:
    """A random CFG whose blocks read and write a few registers."""
    func = draw(random_cfg())
    func.num_regs = NREGS
    for block in func.blocks.values():
        block.instrs[:0] = draw(st.lists(_instr, max_size=5))
    return func


@given(func=random_program())
@settings(max_examples=300, deadline=None)
def test_random_cfgs(func):
    assert_equivalent(func)


def test_use_after_in_block_def_is_not_upward_exposed():
    func = Function("f", num_regs=2)
    block = func.new_block("entry")
    block.append(Move(Reg(0), Imm(1)))
    block.append(BinOp("add", Reg(1), Reg(0), Reg(0)))
    block.append(Store(Reg(1), Reg(1)))
    block.append(Ret())
    assert compute_liveness(func).live_in["entry"] == frozenset()
    assert_equivalent(func)

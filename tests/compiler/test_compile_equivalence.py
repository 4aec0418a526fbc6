"""The compiler's incremental and mask-based helpers against the forms
they replaced.

* Greedy region merging (``regions._merge_regions``) updates the
  worst-case weights of only the blocks a dropped boundary can change,
  and restores them when the drop breaks the budget.  The reference
  below is the previous quadratic loop, which re-ran the whole-CFG
  ``_max_region_weights`` sweep once per optional block.
* ``checkpoints.boundaries_served`` and LICM's ``_LoopScan`` test bits of
  liveness and reaching-definition masks.  The references are the
  previous frozenset and instruction-rescanning forms.
* The pipeline hands one :class:`~repro.compiler.facts.FunctionFacts`
  from region formation through checkpoint insertion, pruning and LICM.
  After every pass the shared facts must equal fresh analyses, and the
  output must equal running each pass on its own.

Inputs are random graphs with random weights, thresholds and mandatory
sets, and random structured programs (``tests.compiler.conftest``).
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CapriCompiler, OptConfig
from repro.compiler.checkpoints import boundaries_served, checkpoint_sites, insert_checkpoints
from repro.compiler.clone import clone_module
from repro.compiler.facts import FunctionFacts
from repro.compiler.licm import _LoopScan, move_checkpoints_out_of_loops
from repro.compiler.pruning import prune_checkpoints
from repro.compiler.regions import _merge_regions, form_regions, form_regions_with_facts
from repro.compiler.unrolling import speculative_unroll
from repro.ir.cfg import CFG, natural_loops
from repro.ir.function import Function
from repro.ir.instructions import Branch, CheckpointStore, Jump, Ret
from repro.ir.liveness import compute_liveness
from repro.ir.printer import format_module
from repro.ir.reaching import compute_reaching_defs
from repro.ir.values import Reg
from repro.workloads import get_workload

from tests.compiler.conftest import random_program


# ---------------------------------------------------------------------------
# references: the forms the incremental and mask-based code replaced
# ---------------------------------------------------------------------------

def ref_max_region_weights(
    cfg: CFG, weights: Dict[str, int], boundaries: Set[str]
) -> Dict[str, int]:
    g: Dict[str, int] = {}
    for label in reversed(cfg.rpo):
        succ_max = 0
        for s in cfg.succs[label]:
            if s not in boundaries and s in g:
                succ_max = max(succ_max, g[s])
        g[label] = weights[label] + succ_max
    return {b: g[b] for b in boundaries if b in g}


def ref_merge(
    cfg: CFG, weights: Dict[str, int], mandatory: Set[str], threshold: int
) -> Tuple[Set[str], Dict[str, int]]:
    boundaries = set(cfg.rpo)
    for label in cfg.rpo:
        if label in mandatory:
            continue
        boundaries.discard(label)
        region_weights = ref_max_region_weights(cfg, weights, boundaries)
        if any(w > threshold for w in region_weights.values()):
            boundaries.add(label)
    return boundaries, ref_max_region_weights(cfg, weights, boundaries)


def ref_boundaries_served(func, liveness, rdefs, label, ckpt_index) -> frozenset:
    instr = func.blocks[label].instrs[ckpt_index]
    reg = instr.src.index
    block = func.blocks[label]
    def_index = None
    for i in range(ckpt_index - 1, -1, -1):
        if any(d.index == reg for d in block.instrs[i].defs()):
            def_index = i
            break
    served = set()
    for region in func.meta.get("regions", []):
        b_label = region.entry_block
        if reg not in liveness.live_in[b_label]:
            continue
        reach = rdefs.reach_in[b_label]
        if def_index is not None:
            if (label, def_index, reg) in reach:
                served.add(b_label)
        else:
            served.add(b_label)
    return frozenset(served)


def ref_serves_boundary_inside_loop(
    func, cfg, liveness, loop, region_entries, ckpt_label, ckpt_index, reg
) -> bool:
    instrs = func.blocks[ckpt_label].instrs
    for i in range(ckpt_index + 1, len(instrs)):
        if any(d.index == reg for d in instrs[i].defs()):
            return False
    seen: Set[str] = set()
    work = [s for s in cfg.succs[ckpt_label] if s in loop.body]
    while work:
        label = work.pop()
        if label in seen:
            continue
        seen.add(label)
        if label in region_entries and reg in liveness.live_in[label]:
            return True
        redefined = any(
            any(d.index == reg for d in instr.defs())
            for instr in func.blocks[label].instrs
        )
        if redefined:
            continue
        work.extend(s for s in cfg.succs[label] if s in loop.body)
    return False


# ---------------------------------------------------------------------------
# greedy merging
# ---------------------------------------------------------------------------

@st.composite
def random_graph(draw) -> CFG:
    """A CFG of up to 14 blocks with arbitrary jump/branch edges: loops,
    irreducible cycles and retreating edges into optional blocks."""
    n = draw(st.integers(min_value=1, max_value=14))
    labels = [f"b{i}" for i in range(n)]
    func = Function("g", num_regs=1)
    for label in labels:
        block = func.new_block(label)
        kind = draw(st.sampled_from(["ret", "jump", "branch", "branch"]))
        if kind == "ret" or n == 1:
            block.append(Ret())
        elif kind == "jump":
            block.append(Jump(draw(st.sampled_from(labels))))
        else:
            t, f = draw(st.sampled_from(labels)), draw(st.sampled_from(labels))
            block.append(Branch(Reg(0), t, f))
    return CFG(func)


def test_merge_ends_region_paths_at_retreating_edges():
    # b0 -> b1 -> b2 -> {b1, b3}: the edge b2 -> b1 retreats, so dropping
    # b1 cannot grow b2's region, which would then weigh 10.
    func = Function("loop", num_regs=1)
    func.new_block("b0").append(Jump("b1"))
    func.new_block("b1").append(Jump("b2"))
    func.new_block("b2").append(Branch(Reg(0), "b1", "b3"))
    func.new_block("b3").append(Ret())
    cfg = CFG(func)
    weights = {"b0": 0, "b1": 5, "b2": 5, "b3": 0}
    mandatory = {"b0", "b2"}
    boundaries, g = _merge_regions(cfg, weights, mandatory, 9)
    assert boundaries == {"b0", "b2"}
    assert (g["b0"], g["b2"]) == (5, 5)
    assert ref_merge(cfg, weights, mandatory, 9) == (boundaries, {"b0": 5, "b2": 5})


@given(cfg=random_graph(), data=st.data())
@settings(max_examples=400, deadline=None)
def test_merge_matches_quadratic_reference(cfg, data):
    weights = {
        label: data.draw(st.integers(min_value=0, max_value=12))
        for label in cfg.rpo
    }
    # Region formation splits blocks until each fits the threshold.
    threshold = data.draw(
        st.integers(min_value=max(weights.values()), max_value=40)
    )
    mandatory = {cfg.entry} | data.draw(st.sets(st.sampled_from(cfg.rpo)))
    boundaries, g = _merge_regions(cfg, weights, mandatory, threshold)
    want_boundaries, want_weights = ref_merge(cfg, weights, mandatory, threshold)
    assert boundaries == want_boundaries
    assert {b: g[b] for b in boundaries} == want_weights
    assert all(w <= threshold for w in want_weights.values())


def test_merge_restores_weights_after_a_rejected_drop():
    # b0 -> b1 -> b2 -> b3: dropping b2 breaks the budget and must put
    # the weights of b1 and b0 back, or b0's region reports 10.
    func = Function("chain", num_regs=1)
    for i in range(4):
        func.new_block(f"b{i}").append(Jump(f"b{i + 1}") if i < 3 else Ret())
    cfg = CFG(func)
    weights = {"b0": 0, "b1": 5, "b2": 5, "b3": 0}
    boundaries, g = _merge_regions(cfg, weights, {"b0"}, 9)
    assert boundaries == {"b0", "b2"}
    assert (g["b0"], g["b2"]) == (5, 5)
    assert ref_merge(cfg, weights, {"b0"}, 9) == (boundaries, {"b0": 5, "b2": 5})


# ---------------------------------------------------------------------------
# mask-based boundaries_served and LICM helpers
# ---------------------------------------------------------------------------

def _instrumented(seed: int, threshold: int, prune: bool) -> List[Function]:
    """Functions of a random program after unrolling, region formation,
    checkpoint insertion and (optionally) pruning, each pass on its own,
    plus a few checkpoint stores at random positions: with no definition
    before them, with a redefinition after them, or duplicated."""
    module, _ = random_program(seed)
    module = clone_module(module)
    rng = random.Random(seed)
    for func in module.functions.values():
        speculative_unroll(func, threshold=threshold, max_unroll=4)
        form_regions(func, threshold=threshold)
        insert_checkpoints(func)
        if prune:
            prune_checkpoints(func)
        labels = list(func.blocks)
        for _ in range(rng.randint(0, 6)):
            instrs = func.blocks[rng.choice(labels)].instrs
            reg = rng.randrange(func.num_regs)
            instrs.insert(rng.randrange(len(instrs)), CheckpointStore(Reg(reg)))
    return list(module.functions.values())


_seeds = st.integers(min_value=0, max_value=10**6)
_thresholds = st.sampled_from([8, 16, 32, 64])


@given(seed=_seeds, threshold=_thresholds, prune=st.booleans())
@settings(max_examples=80, deadline=None)
def test_boundaries_served_matches_reference(seed, threshold, prune):
    for func in _instrumented(seed, threshold, prune):
        cfg = CFG(func)
        liveness = compute_liveness(func, cfg)
        rdefs = compute_reaching_defs(func, cfg)
        for label, index in checkpoint_sites(func):
            got = boundaries_served(func, cfg, liveness, rdefs, label, index)
            assert got == ref_boundaries_served(func, liveness, rdefs, label, index)


@given(seed=_seeds, threshold=_thresholds, prune=st.booleans())
@settings(max_examples=80, deadline=None)
def test_licm_scan_matches_reference(seed, threshold, prune):
    for func in _instrumented(seed, threshold, prune):
        cfg = CFG(func)
        liveness = compute_liveness(func, cfg)
        entries = {r.entry_block for r in func.meta["regions"]}
        scan = _LoopScan(func, cfg, liveness.in_mask, liveness.def_mask, entries)
        for loop in natural_loops(cfg):
            for label in sorted(loop.body):
                ckpts = [
                    (i, instr.src.index)
                    for i, instr in enumerate(func.blocks[label].instrs)
                    if isinstance(instr, CheckpointStore)
                ]
                got = scan.checkpoints(label)
                assert [(i, reg) for i, reg, _ in got] == ckpts
                for index, reg, redefined_later in got:
                    want = ref_serves_boundary_inside_loop(
                        func, cfg, liveness, loop, entries, label, index, reg
                    )
                    assert (
                        not redefined_later and scan.serves_inside(loop, label, reg)
                    ) == want, (func.name, label, index)


def test_licm_scan_sees_later_redefinitions():
    checked = {False: 0, True: 0}
    for seed in range(40):
        for func in _instrumented(seed, 16, prune=False):
            cfg = CFG(func)
            liveness = compute_liveness(func, cfg)
            entries = {r.entry_block for r in func.meta["regions"]}
            scan = _LoopScan(func, cfg, liveness.in_mask, liveness.def_mask, entries)
            for loop in natural_loops(cfg):
                for label in loop.body:
                    for _, _, redefined_later in scan.checkpoints(label):
                        checked[redefined_later] += 1
    # The property tests above exercise both outcomes of the in-block check.
    assert checked[False] > 0 and checked[True] > 0


# ---------------------------------------------------------------------------
# shared facts
# ---------------------------------------------------------------------------

def assert_facts_fresh(func: Function, facts: FunctionFacts, where) -> None:
    cfg = CFG(func)
    assert facts.cfg.rpo == cfg.rpo and facts.cfg.succs == cfg.succs, where
    liveness = compute_liveness(func, cfg)
    for name in ("in_mask", "out_mask", "use_mask", "def_mask"):
        assert getattr(facts.liveness, name) == getattr(liveness, name), (where, name)
    rdefs = compute_reaching_defs(func, cfg)
    shared = facts.rdefs
    assert shared.sites == rdefs.sites, where
    assert shared.in_mask == rdefs.in_mask, where
    assert shared.out_mask == rdefs.out_mask, where
    assert shared.reg_mask == rdefs.reg_mask, where
    fresh_loops = natural_loops(cfg)
    assert [(l.header, l.body, l.latches, l.depth) for l in facts.loops] == [
        (l.header, l.body, l.latches, l.depth) for l in fresh_loops
    ], where


def _shared_pipeline(module, threshold: int, check: bool):
    """The pipeline's passes with one shared FunctionFacts per function;
    with ``check``, the facts are compared with fresh analyses after
    every pass that keeps them."""
    for func in module.functions.values():
        speculative_unroll(func, threshold=threshold, max_unroll=32)
        regions, facts = form_regions_with_facts(func, threshold, True)
        if check:
            assert_facts_fresh(func, facts, (func.name, "regions"))
        insert_checkpoints(func, facts)
        if check:
            assert_facts_fresh(func, facts, (func.name, "checkpoints"))
        prune_checkpoints(func, facts)
        if check:
            assert_facts_fresh(func, facts, (func.name, "pruned"))
        move_checkpoints_out_of_loops(func, facts)


def _standalone_pipeline(module, threshold: int):
    for func in module.functions.values():
        speculative_unroll(func, threshold=threshold, max_unroll=32)
        form_regions(func, threshold=threshold)
        insert_checkpoints(func)
        prune_checkpoints(func)
        move_checkpoints_out_of_loops(func)


def _render(module) -> str:
    parts = [format_module(module)]
    for func in module.functions.values():
        for region in func.meta["regions"]:
            parts.append(repr(region))
        for key in ("checkpoints_inserted", "checkpoints_pruned", "checkpoints_licm"):
            parts.append(f"{func.name} {key} {func.meta[key]}")
    return "\n".join(parts)


@given(seed=_seeds, threshold=_thresholds)
@settings(max_examples=80, deadline=None)
def test_shared_facts_match_fresh_analyses(seed, threshold):
    module, _ = random_program(seed)
    shared, alone = clone_module(module), clone_module(module)
    _shared_pipeline(shared, threshold, check=True)
    _standalone_pipeline(alone, threshold)
    assert _render(shared) == _render(alone)


def test_facts_recomputed_when_an_edit_changes_liveness():
    # A checkpoint store with no definition before it in its block is an
    # upward-exposed use; deleting it changes liveness, so the shared
    # facts must not keep the old sets.
    module, _ = random_program(11)
    func = clone_module(module).functions["main"]
    form_regions(func, threshold=32)
    facts = FunctionFacts(func)
    reg = func.num_regs
    func.num_regs += 1
    last = func.blocks[facts.cfg.rpo[-1]]
    last.instrs.insert(1, CheckpointStore(Reg(reg)))
    edited = [last.label]
    facts.edited(edited)
    assert reg in facts.liveness.live_in[func.entry.label]
    facts.rdefs  # computed now, re-keyed or dropped below
    del last.instrs[1]
    facts.edited(edited)
    assert_facts_fresh(func, facts, "deleted")
    assert reg not in facts.liveness.live_in[func.entry.label]


@pytest.mark.parametrize("name", ["genome", "ocean", "505.mcf_r", "oskernel"])
def test_shared_facts_on_workloads(name):
    module, _ = get_workload(name).build(0.05)
    for threshold in (32, 256):
        shared, alone = clone_module(module), clone_module(module)
        _shared_pipeline(shared, threshold, check=True)
        _standalone_pipeline(alone, threshold)
        assert _render(shared) == _render(alone)
        compiled = CapriCompiler(OptConfig.licm(threshold)).compile(module).module
        assert format_module(compiled) == format_module(shared)

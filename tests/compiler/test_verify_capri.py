"""Tests for the static Capri-invariant verifier.

Positive: every compiled configuration of every workload passes.
Negative: hand-sabotaged instrumentation is caught — deleted checkpoints,
oversized regions, impure recovery blocks.
Pipeline: ``CapriCompiler.compile`` runs the verifier on every
checkpointing compile, and on no region-only or volatile one.
Reference: the coverage check, one gen/kill problem on the IR's dataflow
solver, gives the verdict of the per-definition path search it replaced
(kept here), names the same definition, and names a boundary that
search also reaches uncovered.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

import pytest

import repro
from repro.compiler import CapriCompiler, OptConfig, pipeline
from repro.compiler.verify_capri import (
    CapriInvariantError,
    check_checkpoint_coverage,
    check_recovery_blocks,
    check_region_budget,
    verify_capri_function,
    verify_capri_module,
)
from repro.compiler.regions import RegionInfo
from repro.eval.figures import FIG8_THRESHOLDS
from repro.ir import CFG, IRBuilder, verify_module
from repro.ir.function import Function, RecoveryBlock
from repro.ir.instructions import (
    CheckpointStore,
    Jump,
    Load,
    Move,
    RegionBoundary,
    Ret,
    Store,
)
from repro.ir.liveness import compute_liveness
from repro.ir.reaching import compute_reaching_defs
from repro.ir.values import Imm, Reg
from repro.workloads import get_workload, workload_names

from tests.compiler.conftest import build_loop_kernel, random_program


def compile_kernel(threshold=32, config=None):
    module, _ = build_loop_kernel(n=30)
    cfg = config or OptConfig.licm(threshold)
    return CapriCompiler(cfg).compile(module).module


def check_coverage(func: Function) -> None:
    """Invariant 2 alone, over a fresh CFG and liveness of ``func``."""
    cfg = CFG(func)
    check_checkpoint_coverage(func, cfg, compute_liveness(func, cfg))


# ---------------------------------------------------------------------------
# reference: the per-definition path search the dataflow check replaced
# ---------------------------------------------------------------------------

DefSite = Tuple[str, int, int]


def _uncovered_boundaries(
    func: Function,
    cfg: CFG,
    live_in,
    recovered: Dict[str, Set[int]],
    d_label: str,
    d_index: int,
    reg: int,
) -> Set[str]:
    """Every boundary block one definition of ``reg`` reaches uncovered.

    Walks every path from just after the def, stopping a path when the
    register is checkpointed (slot now correct) or redefined (a later def
    takes responsibility).  A region boundary reached where ``reg`` is
    live is uncovered unless the region carries a recovery block for
    ``reg``.  The walk goes on past every boundary, so it returns all of
    them rather than whichever its DFS stack reaches first.
    """

    def scan_block(label: str, start: int) -> bool:
        """Whether a path falls through the block with the def alive."""
        for instr in func.blocks[label].instrs[start:]:
            if isinstance(instr, CheckpointStore) and instr.src.index == reg:
                return False
            if any(d.index == reg for d in instr.defs()):
                return False
        return True

    found: Set[str] = set()
    if not scan_block(d_label, d_index + 1):
        return found
    work = list(cfg.succs.get(d_label, []))
    seen: Set[str] = set()
    while work:
        label = work.pop()
        if label in seen or label not in func.blocks:
            continue
        seen.add(label)
        block = func.blocks[label]
        if block.instrs and isinstance(block.instrs[0], RegionBoundary):
            if reg in live_in.get(label, frozenset()):
                if reg not in recovered.get(label, set()):
                    found.add(label)
        if scan_block(label, 0):
            work.extend(cfg.succs.get(label, []))
    return found


def reference_violation(func: Function) -> Optional[Tuple[DefSite, Set[str]]]:
    """The first definition site, in (RPO, instruction) order, that the
    path search finds uncovered, with every boundary it reaches
    uncovered; ``None`` when every region live-in is restorable."""
    cfg = CFG(func)
    live_in = compute_liveness(func, cfg).live_in
    recovered = {
        r.entry_block: {
            rb.target for rb in func.recovery_blocks.get(r.region_id, [])
        }
        for r in func.meta["regions"]
    }
    for site in compute_reaching_defs(func, cfg).sites:
        found = _uncovered_boundaries(func, cfg, live_in, recovered, *site)
        if found:
            return site, found
    return None


_VIOLATION = re.compile(
    r"def of r(\d+) at (.+)\[(\d+)\] reaches boundary block (.+) \(r\d+ live\)"
)


def assert_matches_reference(func: Function) -> bool:
    """Assert the dataflow check and the path search agree on ``func``;
    return whether they flag it."""
    expected = reference_violation(func)
    try:
        check_coverage(func)
    except CapriInvariantError as exc:
        assert expected is not None, f"only the dataflow flags: {exc}"
        (d_label, d_index, reg), boundaries = expected
        match = _VIOLATION.search(str(exc))
        assert match, str(exc)
        got_reg, got_label, got_index, got_boundary = match.groups()
        assert (got_label, int(got_index), int(got_reg)) == (
            d_label, d_index, reg
        ), str(exc)
        assert ast.literal_eval(got_boundary) in boundaries, (
            str(exc), boundaries,
        )
        return True
    assert expected is None, f"only the path search flags: {expected}"
    return False


def assert_module_clean(module) -> None:
    for func in module.functions.values():
        assert not assert_matches_reference(func), func.name


def checkpoint_sites(module):
    """(function, label, index) of every checkpoint store, in module order."""
    return [
        (func, label, i)
        for func in module.functions.values()
        for label, block in func.blocks.items()
        for i, instr in enumerate(block.instrs)
        if isinstance(instr, CheckpointStore)
    ]


class TestPositive:
    """Every compile verifies clean, and the path search agrees."""

    # The budget bounds every path between boundaries, so at 32 it also
    # bounds every region the kernel executes.
    @pytest.mark.parametrize("threshold", [16, 32, 64, 256])
    def test_loop_kernel_all_thresholds(self, threshold):
        out = compile_kernel(threshold)
        verify_capri_module(out, threshold)
        assert_module_clean(out)

    @pytest.mark.parametrize(
        "config_name", ["+ckpt", "+unrolling", "+pruning", "+licm"]
    )
    def test_every_ladder_config(self, config_name):
        for threshold in (16, 32, 64, 256):
            cfg = OptConfig.ladder(threshold)[config_name]
            out = compile_kernel(config=cfg)
            verify_capri_module(out, threshold)
            assert_module_clean(out)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_programs(self, seed):
        module, _ = random_program(seed)
        out = CapriCompiler(OptConfig.licm(16)).compile(module).module
        verify_capri_module(out, 16)
        assert_module_clean(out)

    def test_inlined_config(self):
        module, _ = get_workload("oskernel").build(0.2)
        out = CapriCompiler(OptConfig.inlined(64)).compile(module).module
        verify_capri_module(out, 64)
        assert_module_clean(out)

    @pytest.mark.parametrize("workload", workload_names())
    def test_registry_workload_at_fig8_thresholds(self, workload):
        module, _ = get_workload(workload).build(0.05)
        for threshold in FIG8_THRESHOLDS:
            out = CapriCompiler(OptConfig.licm(threshold)).compile(module)
            verify_capri_module(out.module, threshold)
            assert_module_clean(out.module)


class TestNegative:
    def test_deleted_checkpoint_detected(self):
        out = compile_kernel(32, OptConfig.ckpt(32))
        func = out.function("kernel")
        sites = [(label, i) for f, label, i in checkpoint_sites(out) if f is func]
        assert sites, "kernel has no checkpoints to sabotage"
        label, i = sites[0]
        del func.blocks[label].instrs[i]
        with pytest.raises(CapriInvariantError, match="no checkpoint"):
            check_coverage(func)
        assert assert_matches_reference(func)

    def test_oversized_region_detected(self):
        out = compile_kernel(32)
        func = out.function("kernel")
        # Inject a burst of stores right after some boundary.
        from repro.ir.instructions import RegionBoundary

        for label, block in func.blocks.items():
            if block.instrs and isinstance(block.instrs[0], RegionBoundary):
                for k in range(40):
                    block.instrs.insert(
                        1, Store(Imm(k), Imm(0x9000), offset=k * 8)
                    )
                break
        with pytest.raises(CapriInvariantError, match="stores"):
            check_region_budget(func, CFG(func), 32)

    def test_impure_recovery_block_detected(self):
        out = compile_kernel(32)
        func = out.function("kernel")
        regions = func.meta["regions"]
        func.recovery_blocks[regions[0].region_id] = [
            RecoveryBlock(1, [Load(Reg(1), Imm(0x1000), 0)])
        ]
        with pytest.raises(CapriInvariantError, match="impure"):
            check_recovery_blocks(func, compute_liveness(func))

    def test_recovery_block_missing_target_detected(self):
        out = compile_kernel(32)
        func = out.function("kernel")
        regions = func.meta["regions"]
        func.recovery_blocks[regions[0].region_id] = [
            RecoveryBlock(1, [Move(Reg(2), Imm(5))])  # defines r2, not r1
        ]
        with pytest.raises(CapriInvariantError, match="never"):
            check_recovery_blocks(func, compute_liveness(func))

    def test_recovery_block_reading_pruned_register_detected(self):
        out = compile_kernel(32)
        func = out.function("kernel")
        regions = func.meta["regions"]
        func.recovery_blocks[regions[0].region_id] = [
            RecoveryBlock(1, [Move(Reg(1), Reg(2))]),  # r2 is pruned too
            RecoveryBlock(2, [Move(Reg(2), Imm(5))]),
        ]
        with pytest.raises(CapriInvariantError, match="reads pruned register r2"):
            check_recovery_blocks(func, compute_liveness(func))

    def test_recovery_block_clobbering_live_in_detected(self):
        out = compile_kernel(32)
        func = out.function("kernel")
        region = func.meta["regions"][0]
        live = compute_liveness(func).live_in[region.entry_block]
        temp = min(live)
        target = max(live) + 1
        func.recovery_blocks[region.region_id] = [
            RecoveryBlock(target, [
                Move(Reg(temp), Imm(5)),  # temporary overwrites a live-in
                Move(Reg(target), Reg(temp)),
            ])
        ]
        with pytest.raises(CapriInvariantError, match=f"clobbers live-in r{temp}"):
            check_recovery_blocks(func, compute_liveness(func))

    @pytest.mark.parametrize(
        "workload", ["genome", "deep-call", "531.deepsjeng_r"]
    )
    def test_single_checkpoint_deletions(self, workload):
        """Delete the first, middle and last checkpoint of a compile, one
        at a time: both methods flag each, naming the same definition."""
        module, _ = get_workload(workload).build(0.1)
        compiler = CapriCompiler(OptConfig.licm(32))
        count = len(checkpoint_sites(compiler.compile(module).module))
        assert count >= 3
        for pick in (0, count // 2, count - 1):
            out = compiler.compile(module).module
            func, label, i = checkpoint_sites(out)[pick]
            del func.blocks[label].instrs[i]
            assert assert_matches_reference(func), (workload, pick)

    def test_uncompiled_function_rejected(self):
        b = IRBuilder("m")
        with b.function("f") as f:
            f.ret()
        with pytest.raises(CapriInvariantError, match="region metadata"):
            verify_capri_function(b.module.function("f"), 32)

    def test_missing_boundary_cycle_detected(self):
        """Strip a loop header's boundary: the budget check must see the
        unbounded cycle."""
        from repro.ir.instructions import RegionBoundary
        from repro.ir import CFG, natural_loops

        out = compile_kernel(32)
        func = out.function("kernel")
        loops = natural_loops(CFG(func))
        header = loops[0].header
        block = func.blocks[header]
        assert isinstance(block.instrs[0], RegionBoundary)
        del block.instrs[0]
        with pytest.raises(CapriInvariantError, match="cycle"):
            check_region_budget(func, CFG(func), 32)


#: Builds a function whose register x has four defs (entry and three
#: if-arms) all reaching a loop header where x is live, compiles it,
#: strips every checkpoint, and prints the coverage violation.
_UNCOVERED_DEFS = """
from repro.compiler import CapriCompiler, OptConfig
from repro.compiler.verify_capri import CapriInvariantError, verify_capri_function
from repro.ir import IRBuilder
from repro.ir.instructions import CheckpointStore

b = IRBuilder("m")
with b.function("f", params=["n"]) as f:
    x = f.li(0)
    for k in range(3):
        with f.if_then(f.param(0)):
            f.li(k + 1, dst=x)
    with f.for_range(f.param(0)) as i:
        f.store(x, i)
    f.ret()
func = CapriCompiler(OptConfig.ckpt(32)).compile(b.module).module.function("f")
for block in func.blocks.values():
    block.instrs[:] = [
        ins for ins in block.instrs if not isinstance(ins, CheckpointStore)
    ]
try:
    verify_capri_function(func, 32)
except CapriInvariantError as exc:
    print(exc)
"""


class TestDeterministicReport:
    def test_same_violation_under_every_hash_seed(self):
        """Several defs are uncovered; the one reported is the first in
        (RPO, instruction) order, not whichever a set yields first."""
        src = str(Path(repro.__file__).resolve().parents[1])
        messages = set()
        for seed in ("1", "2", "3"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-c", _UNCOVERED_DEFS],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            messages.add(proc.stdout.strip())
        assert len(messages) == 1, messages
        (message,) = messages
        assert "def of r1 at entry[1]" in message, message


def _hand_built(*blocks, regions, recovery=None, num_params=0) -> Function:
    """A hand-built instrumented function: ``blocks`` are (label, instrs)
    pairs in layout order, ``regions`` (region id, entry block) pairs."""
    func = Function("f", num_params=num_params, num_regs=4)
    for label, instrs in blocks:
        func.new_block(label).instrs.extend(instrs)
    func.meta["regions"] = [
        RegionInfo(region_id, entry, mandatory=True)
        for region_id, entry in regions
    ]
    func.recovery_blocks.update(recovery or {})
    return func


class TestHandBuiltCoverage:
    """Small functions whose report pins each part of the gen/kill
    problem: the redefinition kill, the checkpoint kill and the
    recovery-block exemption."""

    def _redefined(self, recovery=None) -> Function:
        # r1 is defined in entry, redefined in mid with no checkpoint
        # between, and live at both boundaries after it.
        return _hand_built(
            ("entry", [RegionBoundary(0), Move(Reg(1), Imm(0)), Jump("mid")]),
            ("mid", [Move(Reg(1), Imm(1)), Jump("next")]),
            ("next", [RegionBoundary(1), Jump("last")]),
            ("last", [RegionBoundary(2), Ret(Reg(1))]),
            regions=[(0, "entry"), (1, "next"), (2, "last")],
            recovery=recovery,
        )

    def test_redefinition_takes_over_the_report(self):
        func = self._redefined()
        with pytest.raises(
            CapriInvariantError,
            match=r"def of r1 at mid\[0\] reaches boundary block 'next'",
        ):
            check_coverage(func)
        assert assert_matches_reference(func)

    def test_checkpoint_covers_the_definition(self):
        func = self._redefined()
        func.blocks["mid"].instrs.insert(1, CheckpointStore(Reg(1)))
        check_coverage(func)
        assert not assert_matches_reference(func)

    def test_recovery_block_exempts_only_its_own_region(self):
        func = self._redefined(
            recovery={1: [RecoveryBlock(1, [Move(Reg(1), Imm(1))])]}
        )
        with pytest.raises(
            CapriInvariantError,
            match=r"def of r1 at mid\[0\] reaches boundary block 'last'",
        ):
            check_coverage(func)
        assert assert_matches_reference(func)
        func.recovery_blocks[2] = [RecoveryBlock(1, [Move(Reg(1), Imm(1))])]
        check_coverage(func)
        assert not assert_matches_reference(func)

    def test_never_redefined_parameter_is_covered(self):
        func = _hand_built(
            ("entry", [RegionBoundary(0), Jump("next")]),
            ("next", [RegionBoundary(1), Ret(Reg(0))]),
            regions=[(0, "entry"), (1, "next")],
            num_params=1,
        )
        check_coverage(func)
        assert not assert_matches_reference(func)


class TestPipelineIntegration:
    """``compile`` verifies exactly its checkpointing outputs."""

    @staticmethod
    def verified(monkeypatch, config) -> bool:
        calls = []

        def spy(module, threshold):
            calls.append(threshold)
            verify_capri_module(module, threshold)

        monkeypatch.setattr(pipeline, "verify_capri_module", spy)
        module, _ = build_loop_kernel(n=20)
        CapriCompiler(config).compile(module)
        assert calls in ([], [config.threshold])
        return bool(calls)

    @pytest.mark.parametrize("config_name", list(OptConfig.ladder(32)))
    def test_which_compiles_verify(self, monkeypatch, config_name):
        config = OptConfig.ladder(32)[config_name]
        assert self.verified(monkeypatch, config) == config.checkpoints

    def test_validate_skipped_for_volatile(self, monkeypatch):
        assert not self.verified(monkeypatch, OptConfig.volatile())

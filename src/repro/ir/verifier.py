"""Structural verification of IR modules.

Run after construction and after every Capri pass; rewriting bugs (dangling
labels, unterminated blocks, out-of-range registers) surface here instead
of deep inside the simulator.
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.instructions import Call, terminator_targets
from repro.ir.module import MAX_REGS, Module
from repro.ir.values import Reg


class VerificationError(Exception):
    """Raised when an IR structural invariant is violated."""


def verify_function(func: Function, module: Module | None = None) -> None:
    """Check structural invariants of one function.

    * at least one block; every block non-empty and ending in a terminator,
    * no terminator in the middle of a block,
    * branch targets exist,
    * register indices within ``num_regs`` (and the checkpoint-storage cap),
    * called functions exist and arity matches (when a module is given).
    """
    if not func.blocks:
        raise VerificationError(f"{func.name}: function has no blocks")
    if func.num_regs > MAX_REGS:
        raise VerificationError(
            f"{func.name}: {func.num_regs} registers exceeds checkpoint "
            f"storage capacity ({MAX_REGS})"
        )
    num_regs = func.num_regs
    for label, block in func.blocks.items():
        instrs = block.instrs
        if not instrs:
            raise VerificationError(f"{func.name}/{label}: empty block")
        last = len(instrs) - 1
        for i, instr in enumerate(instrs):
            is_last = i == last
            if instr.is_terminator and not is_last:
                raise VerificationError(
                    f"{func.name}/{label}[{i}]: terminator {instr!r} mid-block"
                )
            if is_last and not instr.is_terminator:
                raise VerificationError(
                    f"{func.name}/{label}: block does not end in a terminator "
                    f"(ends with {instr!r})"
                )
            for reg in instr.defs() + instr.uses():
                if not isinstance(reg, Reg):
                    raise VerificationError(
                        f"{func.name}/{label}[{i}]: non-register in defs/uses"
                    )
                if reg.index >= num_regs:
                    raise VerificationError(
                        f"{func.name}/{label}[{i}]: {reg!r} out of range "
                        f"(num_regs={num_regs})"
                    )
            if module is not None and isinstance(instr, Call):
                callee = module.functions.get(instr.callee)
                if callee is None:
                    raise VerificationError(
                        f"{func.name}/{label}[{i}]: call to unknown function "
                        f"{instr.callee!r}"
                    )
                if len(instr.args) != callee.num_params:
                    raise VerificationError(
                        f"{func.name}/{label}[{i}]: call to {instr.callee!r} "
                        f"passes {len(instr.args)} args, expected "
                        f"{callee.num_params}"
                    )
        for target in terminator_targets(block.terminator):
            if target not in func.blocks:
                raise VerificationError(
                    f"{func.name}/{label}: branch to unknown label {target!r}"
                )


def verify_module(module: Module) -> None:
    """Verify every function in the module."""
    for func in module.functions.values():
        verify_function(func, module)

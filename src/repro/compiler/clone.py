"""Deep-cloning of IR so compiler passes never mutate caller modules."""

from __future__ import annotations

import dataclasses
import operator
from typing import Callable, Dict, Optional

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function, RecoveryBlock
from repro.ir.instructions import Branch, Instr, Jump
from repro.ir.module import Module


#: Per instruction class, a function building a copy from the fields.
_COPIERS: Dict[type, Callable[[Instr], Instr]] = {}


def _copier(cls: type) -> Callable[[Instr], Instr]:
    """``cls(*fields of instr)``: what ``dataclasses.replace(instr)`` does,
    without its per-call field introspection."""
    names = [f.name for f in dataclasses.fields(cls)]
    if not names:
        return lambda instr: cls()
    get = operator.attrgetter(*names)
    if len(names) == 1:
        return lambda instr: cls(get(instr))
    return lambda instr: cls(*get(instr))


def clone_instr(instr: Instr, label_map: Optional[Dict[str, str]] = None) -> Instr:
    """Copy one instruction, optionally renaming branch target labels.

    Operands (``Reg``/``Imm``) are immutable and shared; the instruction
    object itself is fresh so passes may rewrite fields safely.
    """
    cls = type(instr)
    copy = _COPIERS.get(cls)
    if copy is None:
        copy = _COPIERS[cls] = _copier(cls)
    new = copy(instr)
    if label_map:
        if isinstance(new, Jump):
            new.target = label_map.get(new.target, new.target)
        elif isinstance(new, Branch):
            new.if_true = label_map.get(new.if_true, new.if_true)
            new.if_false = label_map.get(new.if_false, new.if_false)
    return new


def clone_function(func: Function) -> Function:
    """Deep-copy a function: fresh blocks, instructions, recovery blocks."""
    out = Function(func.name, num_params=func.num_params, num_regs=func.num_regs)
    for label, block in func.blocks.items():
        out.add_block(BasicBlock(label, [clone_instr(i) for i in block.instrs]))
    for region_id, rbs in func.recovery_blocks.items():
        out.recovery_blocks[region_id] = [
            RecoveryBlock(rb.target, [clone_instr(i) for i in rb.instrs])
            for rb in rbs
        ]
    out.meta = dict(func.meta)
    return out


def clone_module(module: Module) -> Module:
    """Deep-copy a module: fresh functions; data segment layout shared."""
    out = Module(module.name)
    for func in module.functions.values():
        out.add_function(clone_function(func))
    out._next_addr = module._next_addr
    out.initial_data = dict(module.initial_data)
    out.symbols = dict(module.symbols)
    return out

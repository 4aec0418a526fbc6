"""Compiler IR substrate for the Capri reproduction.

This package implements a small register-based intermediate representation
(IR) that plays the role LLVM 13 plays in the paper: the Capri compiler
passes in :mod:`repro.compiler` analyse and rewrite programs expressed in
this IR, and the functional machine in :mod:`repro.isa` executes it.

Design points
-------------
* Registers are *architectural*: a function declares how many registers it
  uses and they are identified by small integer indices.  This mirrors the
  paper's checkpoint storage, a global array with one fixed slot per
  architectural register (Section 4.2).
* The IR is not SSA.  Capri's analyses (liveness, reaching definitions)
  are classic bit-vector dataflow problems over a CFG of basic blocks,
  which is exactly what the paper's checkpoint-set analysis needs.
* Capri-specific instructions (:class:`~repro.ir.instructions.RegionBoundary`
  and :class:`~repro.ir.instructions.CheckpointStore`) are first-class
  members of the instruction set so that instrumented and uninstrumented
  programs flow through the same executor and simulator.
"""

from repro.ir.values import Reg, Imm, Operand
from repro.ir.instructions import (
    Instr,
    BinOp,
    UnOp,
    Move,
    Load,
    Store,
    Jump,
    Branch,
    Call,
    Ret,
    Halt,
    Fence,
    AtomicRMW,
    IOWrite,
    RegionBoundary,
    CheckpointStore,
    Nop,
    BINARY_OPS,
    UNARY_OPS,
)
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.builder import IRBuilder, FunctionBuilder
from repro.ir.cfg import CFG, DomTree, Loop, natural_loops
from repro.ir.liveness import LivenessInfo, compute_liveness
from repro.ir.reaching import ReachingDefs, compute_reaching_defs
from repro.ir.verifier import VerificationError, verify_function, verify_module
from repro.ir.printer import format_function, format_module
from repro.ir.parser import (
    ParseError,
    parse_function,
    parse_instruction,
    parse_module,
)

__all__ = [
    "Reg",
    "Imm",
    "Operand",
    "Instr",
    "BinOp",
    "UnOp",
    "Move",
    "Load",
    "Store",
    "Jump",
    "Branch",
    "Call",
    "Ret",
    "Halt",
    "Fence",
    "AtomicRMW",
    "IOWrite",
    "RegionBoundary",
    "CheckpointStore",
    "Nop",
    "BINARY_OPS",
    "UNARY_OPS",
    "BasicBlock",
    "Function",
    "Module",
    "IRBuilder",
    "FunctionBuilder",
    "CFG",
    "DomTree",
    "Loop",
    "natural_loops",
    "LivenessInfo",
    "compute_liveness",
    "ReachingDefs",
    "compute_reaching_defs",
    "VerificationError",
    "verify_function",
    "verify_module",
    "format_function",
    "format_module",
    "ParseError",
    "parse_function",
    "parse_instruction",
    "parse_module",
]

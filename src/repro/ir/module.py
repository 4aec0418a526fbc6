"""Modules: collections of functions plus a static data segment.

The module owns the simulated address-space layout:

* ``DATA_BASE`` — start of the static data segment, allocated by a simple
  bump allocator (:meth:`Module.alloc`).
* ``CKPT_BASE`` — base of the register checkpoint storage, the "global
  array where all registers have mapped into the dedicated slots" of
  Section 4.2.

The paper targets real binaries where caller registers that survive a call
live in stack memory (which is itself persistent under WSP).  Our IR gives
each function a private register namespace, so the checkpoint storage is
additionally indexed by call *depth*: core ``c``'s slot for register
``rI`` at call depth ``d`` lives at
``CKPT_BASE + c*CKPT_CORE_STRIDE + d*CKPT_FRAME_STRIDE + I*8``.
This is the slot-space image of the ABI's per-frame register spills; see
DESIGN.md ("Fidelity statement").

Addresses are plain Python ints; memory is word (8-byte) granular and the
cache models group words into 64-byte lines.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir.function import Function
from repro.ir.values import WORD_BYTES

#: Start of the workload data segment.
DATA_BASE = 0x0001_0000

#: Base of the reserved register-checkpoint storage (Section 4.2).
CKPT_BASE = 0x4000_0000

#: Bytes of checkpoint storage reserved per call-depth frame (512 slots).
CKPT_FRAME_STRIDE = 0x1000

#: Maximum supported call depth per core.
MAX_CALL_DEPTH = 64

#: Bytes of checkpoint storage reserved per core.
CKPT_CORE_STRIDE = CKPT_FRAME_STRIDE * MAX_CALL_DEPTH

#: Maximum number of architectural registers supported by checkpoint storage.
MAX_REGS = CKPT_FRAME_STRIDE // WORD_BYTES

#: Maximum number of cores with reserved checkpoint storage.
MAX_CORES = 64

#: End (exclusive) of the reserved checkpoint storage.
CKPT_END = CKPT_BASE + MAX_CORES * CKPT_CORE_STRIDE


def ckpt_slot_addr(core_id: int, reg_index: int, depth: int = 0) -> int:
    """Checkpoint-slot address for (core, call depth, register)."""
    if not 0 <= core_id < MAX_CORES:
        raise ValueError(f"core {core_id} outside checkpoint storage")
    if not 0 <= reg_index < MAX_REGS:
        raise ValueError(f"register index {reg_index} outside checkpoint storage")
    if not 0 <= depth < MAX_CALL_DEPTH:
        raise ValueError(f"call depth {depth} outside checkpoint storage")
    return (
        CKPT_BASE
        + core_id * CKPT_CORE_STRIDE
        + depth * CKPT_FRAME_STRIDE
        + reg_index * WORD_BYTES
    )


def is_ckpt_addr(addr: int) -> bool:
    """True if ``addr`` falls inside the reserved checkpoint storage."""
    return CKPT_BASE <= addr < CKPT_END


class Module:
    """A program: named functions plus a static data segment."""

    __slots__ = ("name", "functions", "_next_addr", "initial_data", "symbols")

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        self._next_addr = DATA_BASE
        #: addr -> initial word value for statically initialised data.
        self.initial_data: Dict[int, int] = {}
        #: symbolic name -> base address for allocated objects.
        self.symbols: Dict[str, int] = {}

    # -- functions ---------------------------------------------------------

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        return func

    def function(self, name: str) -> Function:
        return self.functions[name]

    # -- data segment ------------------------------------------------------

    def alloc(
        self,
        name: str,
        num_words: int,
        init: Optional[List[int]] = None,
        align: int = 64,
    ) -> int:
        """Allocate ``num_words`` 8-byte words; return the base address.

        ``init`` optionally provides initial word values (zero-filled
        otherwise — the simulated memory defaults to zero).  Allocations are
        line-aligned by default so distinct objects never share a cache
        line, keeping workload cache behaviour predictable.
        """
        if num_words <= 0:
            raise ValueError("allocation must have at least one word")
        if name in self.symbols:
            raise ValueError(f"duplicate symbol {name!r}")
        base = (self._next_addr + align - 1) // align * align
        self._next_addr = base + num_words * WORD_BYTES
        if self._next_addr > CKPT_BASE:
            raise MemoryError("data segment overflows into checkpoint storage")
        self.symbols[name] = base
        if init is not None:
            if len(init) > num_words:
                raise ValueError("initializer longer than allocation")
            for i, value in enumerate(init):
                self.initial_data[base + i * WORD_BYTES] = value
        return base

    def __repr__(self) -> str:
        return f"<Module {self.name} ({len(self.functions)} functions)>"

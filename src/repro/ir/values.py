"""Operand value types for the IR.

The IR is register based: instruction operands are either architectural
registers (:class:`Reg`) or 64-bit signed immediates (:class:`Imm`).
Registers are identified by small non-negative integer indices, mirroring
the paper's fixed mapping between architectural registers and checkpoint
storage slots (Section 4.2: "r0 is mapped into the index zero").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

# Machine word parameters: the functional machine operates on 64-bit two's
# complement integers, like the paper's ARMv8 target.
WORD_BITS = 64
WORD_BYTES = WORD_BITS // 8
_WORD_MASK = (1 << WORD_BITS) - 1
_SIGN_BIT = 1 << (WORD_BITS - 1)

#: Range of a signed machine word; :func:`wrap_word` is the identity on it.
WORD_MIN = -_SIGN_BIT
WORD_MAX = _SIGN_BIT - 1


def wrap_word(value: int) -> int:
    """Wrap an arbitrary Python int to a signed 64-bit machine word."""
    value &= _WORD_MASK
    if value & _SIGN_BIT:
        value -= 1 << WORD_BITS
    return value


@dataclass(frozen=True, slots=True)
class Reg:
    """An architectural register, identified by a non-negative index."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"register index must be >= 0, got {self.index}")

    def __repr__(self) -> str:
        return f"r{self.index}"


@dataclass(frozen=True, slots=True)
class Imm:
    """A 64-bit signed immediate operand."""

    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", wrap_word(self.value))

    def __repr__(self) -> str:
        return f"#{self.value}"


Operand = Union[Reg, Imm]


def as_operand(value: Union[Operand, int]) -> Operand:
    """Coerce a raw int into an :class:`Imm`; pass operands through."""
    if isinstance(value, (Reg, Imm)):
        return value
    if isinstance(value, bool):
        return Imm(int(value))
    if isinstance(value, int):
        return Imm(value)
    raise TypeError(f"cannot use {value!r} as an IR operand")

"""Per-core cost-based timing model.

The paper simulates an 8-way out-of-order ARMv8 core in gem5; at our
declared fidelity (trace-driven, band repro=3) each core is a cycle
accumulator: every retired instruction charges an effective CPI, memory
operations add hierarchy latency, and Capri's only *extra* costs are the
instrumentation instructions themselves plus front-end-proxy back-pressure
— matching the paper's claim that loads and the regular data path are
untouched (Section 5.1.1).
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from operator import add

from repro.arch.params import SimParams

#: Extra charge for a fence (store-buffer drain) in cycles.
FENCE_CYCLES = 20.0
#: Extra charge for an atomic RMW beyond the store path (L1 round trip).
ATOMIC_EXTRA_CYCLES = 8.0


class CoreTimer:
    """Cycle accumulator for one core."""

    __slots__ = ("params", "cycle", "retired", "stall_cycles")

    def __init__(self, params: SimParams) -> None:
        self.params = params
        self.cycle = 0.0
        self.retired = 0
        self.stall_cycles = 0.0

    def retire(self) -> None:
        """One pipeline slot for any retired instruction."""
        self.retired += 1
        self.cycle += self.params.cpi_base

    def retire_run(self, n: int) -> None:
        """``n`` retires at once, with the cycle count of ``n`` calls to
        :meth:`retire`: one float addition each (a left fold in C), since
        ``n * cpi_base`` rounds differently once the cycle count is not
        dyadic."""
        self.retired += n
        self.cycle = reduce(add, repeat(self.params.cpi_base, n), self.cycle)

    def add_latency(self, cycles: float) -> None:
        self.cycle += cycles

    def stall_until(self, t: float) -> None:
        """Block the core until absolute time ``t`` (front-end pressure,
        sync-mode boundary waits)."""
        if t > self.cycle:
            self.stall_cycles += t - self.cycle
            self.cycle = t

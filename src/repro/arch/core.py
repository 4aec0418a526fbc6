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
from math import frexp, ulp
from operator import add

from repro.arch.params import SimParams

#: Extra charge for a fence (store-buffer drain) in cycles.
FENCE_CYCLES = 20.0
#: Extra charge for an atomic RMW beyond the store path (L1 round trip).
ATOMIC_EXTRA_CYCLES = 8.0


class CoreTimer:
    """Cycle accumulator for one core.

    The cycle count never decreases: every charge is non-negative and a
    stall only moves it forward.  :meth:`retire_run` relies on that.
    """

    __slots__ = ("params", "cpi", "cycle", "retired", "stall_cycles", "edge")

    def __init__(self, params: SimParams) -> None:
        self.params = params
        self.cpi = params.cpi_base
        self.cycle = 0.0
        self.retired = 0
        self.stall_cycles = 0.0
        #: Below this, a run of retires is exact as one addition (see
        #: :meth:`retire_run`); 0.0 until the first run sets it.
        self.edge = 0.0

    def retire(self) -> None:
        """One pipeline slot for any retired instruction."""
        self.retired += 1
        self.cycle += self.cpi

    def retire_run(self, n: int) -> None:
        """``n`` retires at once, with the cycle count of ``n`` calls to
        :meth:`retire`, bit for bit.

        ``cycle + n * cpi`` can round differently from ``n`` single
        additions, so the general case is their left fold (in C).  But
        when ``cpi`` is a power of two no smaller than ``ulp(cycle)``,
        every partial sum is a multiple of that ulp, and such multiples
        are exact floats up to the next power of two above ``cycle``:
        no addition of the fold rounds, and their sum is the one
        addition ``cycle + n * cpi`` (``n * cpi`` is exact too).  So
        ``edge`` keeps that power of two, computed after each fold;
        since the cycle count only grows, a run ending below ``edge``
        still starts inside its binade.  With any other ``cpi``, ``edge``
        stays 0.0 and every run folds.
        """
        self.retired += n
        cycle = self.cycle + n * self.cpi
        if cycle >= self.edge:
            cycle = reduce(add, repeat(self.cpi, n), self.cycle)
            if cycle > 0.0 and frexp(self.cpi)[0] == 0.5 and self.cpi >= ulp(cycle):
                self.edge = 2.0 ** frexp(cycle)[1]
        self.cycle = cycle

    def add_latency(self, cycles: float) -> None:
        self.cycle += cycles

    def stall_until(self, t: float) -> None:
        """Block the core until absolute time ``t`` (front-end pressure,
        sync-mode boundary waits)."""
        if t > self.cycle:
            self.stall_cycles += t - self.cycle
            self.cycle = t

"""Deterministic litmus-program generation.

One seed fixes one tiny multi-hart program.  The generator trades
expressiveness for *judgeability*: every structural choice below exists
so that the outcome oracle (:mod:`repro.litmus.oracle`) can compute the
exact allowed post-crash set and the execution matrix can judge every
recovered state against it with no false positives on the faithful
protocol.

Structural guarantees (load-bearing — tests pin them):

* **2–3 harts, straight-line, single entry block, terminated by
  ``ret``.**  No control flow means every schedule of the bounded
  explorer retires the same per-hart instruction counts, so the
  interleaving space is exactly the multiset permutations of those
  counts.
* **Stores write immediates to immediate addresses.**  No address
  arithmetic lives in registers, so recovery never has to reconstruct
  an address and the printed program re-parses bit-identically
  (``tests/ir/test_litmus_roundtrip.py``).
* **Every stored value is a unique tag** (hart/region/slot encoded), so
  allowed-set membership is discriminating: two different protocol
  states can never collide on a value by accident.
* **Shared addresses are written by several harts, private addresses by
  one**; hart 0 re-writes the same shared word in consecutive regions,
  which is the front-end merge window ``merge_across_regions`` needs.
* **An accumulator register is updated every region, stored to the
  hart's private word, and checkpointed (``ckpt``) before each
  boundary.**  The accumulator is the only register live across
  boundaries; post-crash resume must restore it from checkpoint
  storage, so a skipped/stale checkpoint flush surfaces as a wrong
  private-word value downstream (``skip_ckpt_flush`` teeth).
* **A padding tail of loads** after the last boundary pumps simulated
  time so back-end drains complete, giving the crash sweep points where
  boundaries are fully durable (``skip_pc_checkpoint`` teeth).

Programs deliberately use **no data-segment symbols**: addresses are
raw words above ``DATA_BASE`` and the pre-store baseline is the zero
word, so a parsed-back module needs no data re-allocation.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.ir import IRBuilder
from repro.ir.instructions import CheckpointStore, RegionBoundary
from repro.ir.module import DATA_BASE, Module
from repro.ir.printer import format_module
from repro.ir.values import Imm
from repro.ir.verifier import verify_module

#: Default hart scheduling quantum for litmus runs: small enough that
#: the round-robin interpreter genuinely interleaves the regions.
LITMUS_QUANTUM = 4

#: Loads appended after the final boundary: each retires a simulated
#: cycle, letting throttled back-end drains finish before the program
#: ends (crash points *after* full durability are part of the sweep).
_PAD_LOADS = 24

#: Address layout: shared words first, then one private word per hart,
#: 64-byte (cache-line) apart so no two litmus words alias a line.
_SHARED_SLOTS = 2
_STRIDE = 64


def shared_addr(slot: int) -> int:
    return DATA_BASE + slot * _STRIDE

def private_addr(hart: int) -> int:
    return DATA_BASE + (_SHARED_SLOTS + hart) * _STRIDE


def value_tag(hart: int, region: int, slot: int) -> int:
    """A globally unique store value: readable and collision-free."""
    return (hart + 1) * 10_000 + (region + 1) * 100 + slot


@dataclass
class LitmusProgram:
    """One generated litmus test, ready for any engine in the stack."""

    name: str
    seed: int
    module: Module
    spawns: List[Tuple[str, Tuple[int, ...]]]
    shared_addrs: List[int]
    private_addrs: List[int]
    quantum: int = LITMUS_QUANTUM
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def harts(self) -> int:
        return len(self.spawns)

    @property
    def addrs(self) -> List[int]:
        return self.shared_addrs + self.private_addrs

    def instr_counts(self) -> List[int]:
        """Per-hart instruction counts (straight-line ⇒ schedule-free)."""
        return [
            len(self.module.functions[name].entry.instrs)
            for name, _ in self.spawns
        ]

    def text(self) -> str:
        return format_module(self.module)

    def content_hash(self) -> str:
        """Content address of the program itself (text + spawn list)."""
        digest = hashlib.sha256()
        digest.update(self.text().encode())
        for name, args in self.spawns:
            digest.update(f"|{name}{tuple(args)}".encode())
        return digest.hexdigest()[:16]


def generate_program(seed: int, quantum: int = LITMUS_QUANTUM) -> LitmusProgram:
    """Deterministically generate one litmus program from ``seed``."""
    rng = random.Random(0xC0FFEE ^ (seed * 0x9E3779B9))
    harts = rng.choice((2, 2, 3))  # bias toward the classic 2-hart shape
    regions = rng.randint(2, 3)
    name = f"litmus-{seed}"
    builder = IRBuilder(name)
    shared = [shared_addr(s) for s in range(_SHARED_SLOTS)]
    private = [private_addr(h) for h in range(harts)]

    for h in range(harts):
        with builder.function(f"hart{h}") as f:
            acc = f.li(h + 1)
            for r in range(regions):
                slots: List[int] = []
                if h == 0:
                    # Same shared word in consecutive regions: the next
                    # region's store arrives while the previous entry
                    # may still sit undrained — the cross-region merge
                    # window the mutant matrix needs open.
                    slots.append(0)
                for _ in range(rng.randint(1, 2)):
                    slots.append(rng.randrange(_SHARED_SLOTS))
                for i, s in enumerate(slots):
                    # +10*i keeps repeated same-slot stores distinct, so
                    # a dropped merge is visible as a stale value.
                    f.store(Imm(value_tag(h, r, s) + 10 * i), Imm(shared[s]))
                acc = f.add(acc, value_tag(h, r, 90 + r), dst=acc)
                f.store(acc, Imm(private[h]))
                f.emit(CheckpointStore(acc))
                f.emit(RegionBoundary(r))
            # Post-boundary tail: acc-derived work whose correctness
            # depends on the checkpoint restored at resume.
            acc = f.add(acc, h + 7, dst=acc)
            f.store(acc, Imm(private[h]))
            for _ in range(_PAD_LOADS):
                f.load(Imm(shared[0]))
            f.ret()

    program = LitmusProgram(
        name=name,
        seed=seed,
        module=builder.module,
        spawns=[(f"hart{h}", ()) for h in range(harts)],
        shared_addrs=shared,
        private_addrs=private,
        quantum=quantum,
        metadata={"regions": regions, "harts": harts},
    )
    verify_module(program.module)
    return program


def litmus_corpus(seeds: Sequence[int]) -> List[LitmusProgram]:
    """Generate one program per seed (the corpus helpers' entry point)."""
    return [generate_program(seed) for seed in seeds]

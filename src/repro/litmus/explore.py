"""Bounded-exhaustive interleaving exploration of litmus programs.

Two layers share one schedule universe (sequences of hart ids, one
entry per retired instruction — straight-line programs make per-hart
instruction counts schedule-independent, so the universe is exactly the
multiset permutations of those counts):

* **spec layer** — every schedule drives a fresh functional
  :class:`~repro.isa.machine.Machine` observed by a
  :class:`~repro.check.model.PersistencyModel`; the allowed post-crash
  sets of *every prefix of every schedule* are unioned into the
  program's interleaving-closed allowed set.  This is the set the
  campaign-agreement tests check observed outcomes against.
* **pipeline layer** — a deterministic subset of schedules additionally
  drives the full timing/persistence system
  (:func:`~repro.arch.system.build_system`) with the
  :class:`~repro.check.checker.PersistencyChecker` teed in, then
  ``system.finish()`` + ``checker.finalize`` — the reference automaton
  must stay silent on every explored interleaving of the faithful
  protocol.

When the schedule universe exceeds ``max_schedules`` the explorer
samples deterministically from the program seed (always including the
canonical round-robin schedule) and reports ``exhaustive=False``.
``step_limit`` caps per-hart instructions so small prefixes can be
covered *truly* exhaustively: every interleaving of a truncated program
is a prefix of full executions, so its outcomes are sound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import factorial
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.isa.machine import Machine
from repro.litmus.generate import LitmusProgram


@dataclass
class ExploreResult:
    """What bounded-exhaustive exploration of one program established."""

    name: str
    seed: int
    #: exact size of the (possibly step-limited) schedule universe.
    schedule_universe: int
    schedules_run: int
    exhaustive: bool
    step_limit: Optional[int]
    #: addr -> union of allowed post-crash values over every prefix of
    #: every explored schedule (interleaving-closed allowed set).
    allowed: Dict[int, FrozenSet[int]]
    pipeline_schedules: int = 0
    pipeline_violations: int = 0
    pipeline_kinds: List[str] = field(default_factory=list)

    def allows(self, addr: int, value: int) -> bool:
        return value in self.allowed.get(addr, frozenset((0,)))


def _multiset_permutations(counts: List[int]) -> Iterator[Tuple[int, ...]]:
    """Every interleaving of ``counts[i]`` copies of symbol ``i``."""
    remaining = list(counts)
    total = sum(remaining)
    seq: List[int] = []

    def rec() -> Iterator[Tuple[int, ...]]:
        if len(seq) == total:
            yield tuple(seq)
            return
        for h, left in enumerate(remaining):
            if left:
                remaining[h] -= 1
                seq.append(h)
                yield from rec()
                seq.pop()
                remaining[h] += 1

    yield from rec()


def universe_size(counts: Sequence[int]) -> int:
    """``(sum counts)! / prod(counts!)`` — the schedule universe size."""
    size = factorial(sum(counts))
    for c in counts:
        size //= factorial(c)
    return size


def round_robin_schedule(counts: Sequence[int], quantum: int) -> Tuple[int, ...]:
    """The canonical :meth:`Machine.run` order: ``quantum`` per hart in turn."""
    remaining = list(counts)
    out: List[int] = []
    while any(remaining):
        for h, left in enumerate(remaining):
            take = min(quantum, left)
            out.extend([h] * take)
            remaining[h] -= take
    return tuple(out)


def _sample_schedule(counts: Sequence[int], rng: random.Random) -> Tuple[int, ...]:
    pool: List[int] = []
    for h, c in enumerate(counts):
        pool.extend([h] * c)
    rng.shuffle(pool)
    return tuple(pool)


def _complete_schedule(
    schedule: Sequence[int], counts: Sequence[int], quantum: int
) -> Tuple[int, ...]:
    """Extend a truncated schedule round-robin until every hart finishes
    (the pipeline layer's ``finish``/``finalize`` wants completed runs)."""
    remaining = list(counts)
    for h in schedule:
        if remaining[h] > 0:
            remaining[h] -= 1
    return tuple(schedule) + round_robin_schedule(remaining, quantum)


def _spec_run(
    program: LitmusProgram,
    schedule: Sequence[int],
    union: Dict[int, set],
) -> None:
    """Drive one schedule through machine+model, unioning every prefix.

    Instruction-granular prefixes cover event-granular crash points:
    the machine emits an instruction's retire before its effect event,
    and a crash between the two leaves persistent state equal to one of
    the two adjacent instruction boundaries.
    """
    from repro.check.model import PersistencyModel

    machine = Machine(program.module, quantum=program.quantum)
    for name, args in program.spawns:
        machine.spawn(name, args)
    model = PersistencyModel()
    steppers = [machine.stepper(hart, model) for hart in machine.harts]
    for h in schedule:
        if machine.harts[h].halted:
            continue
        steppers[h].send(1)
        for addr in model.writers:
            union.setdefault(addr, set()).update(model.allowed_values(addr))


def _pipeline_run(
    program: LitmusProgram,
    schedule: Sequence[int],
    threshold: int,
    params,
) -> List[str]:
    """One full-length schedule through timing system + reference checker."""
    from repro.arch.system import build_system
    from repro.check.checker import PersistencyChecker
    from repro.isa.trace import TeeObserver

    machine, system = build_system(
        program.module,
        program.spawns,
        params=params,
        threshold=threshold,
        quantum=program.quantum,
    )
    checker = PersistencyChecker.attach(system)
    tee = TeeObserver(checker, system)
    steppers = [machine.stepper(hart, tee) for hart in machine.harts]
    for h in schedule:
        if not machine.harts[h].halted:
            steppers[h].send(1)
    system.finish()
    checker.finalize(system)
    return [v.kind for v in checker.report.violations]


def explore_program(
    program: LitmusProgram,
    max_schedules: int = 200,
    pipeline_schedules: int = 6,
    step_limit: Optional[int] = None,
    threshold: int = 32,
) -> ExploreResult:
    """Explore ``program``'s interleavings; see the module docstring.

    Raises :class:`ValueError`, before any schedule runs, if
    ``max_schedules`` is below 1 or ``threshold`` below
    :data:`~repro.compiler.regions.MIN_THRESHOLD`.
    """
    from repro.compiler.regions import MIN_THRESHOLD

    if max_schedules < 1:
        raise ValueError(f"max_schedules must be >= 1, got {max_schedules}")
    if threshold < MIN_THRESHOLD:
        raise ValueError(f"threshold {threshold} below minimum {MIN_THRESHOLD}")
    from repro.litmus.matrix import litmus_params

    params = litmus_params()
    counts = program.instr_counts()
    capped = (
        counts
        if step_limit is None
        else [min(c, step_limit) for c in counts]
    )
    size = universe_size(capped)
    exhaustive = size <= max_schedules
    rr = round_robin_schedule(counts, program.quantum)
    if exhaustive:
        # Enumerate interleavings of the capped counts, then complete
        # each with the per-hart remainders so the run still finishes
        # (oracle prefixes beyond the cap are extra coverage, never
        # missing coverage).
        schedules = [
            _complete_schedule(s, counts, program.quantum)
            for s in _multiset_permutations(list(capped))
        ]
    else:
        rng = random.Random(0x11709 ^ (program.seed * 0x9E3779B9))
        schedules = [rr]
        schedules.extend(
            _sample_schedule(counts, rng) for _ in range(max_schedules - 1)
        )

    union: Dict[int, set] = {addr: {0} for addr in program.addrs}
    for schedule in schedules:
        _spec_run(program, schedule, union)

    kinds: List[str] = []
    pipeline_run = 0
    for schedule in schedules[:pipeline_schedules]:
        kinds.extend(_pipeline_run(program, schedule, threshold, params))
        pipeline_run += 1

    return ExploreResult(
        name=program.name,
        seed=program.seed,
        schedule_universe=size,
        schedules_run=len(schedules),
        exhaustive=exhaustive,
        step_limit=step_limit,
        allowed={addr: frozenset(vals) for addr, vals in union.items()},
        pipeline_schedules=pipeline_run,
        pipeline_violations=len(kinds),
        pipeline_kinds=kinds,
    )

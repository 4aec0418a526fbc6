"""Persistency litmus tests: tiny multi-core programs with outcome oracles.

Klimis & Donaldson (*Lost in Interpretation*, PAPERS.md) validate
persistency models by generating litmus tests with annotated
allowed/forbidden post-crash outcomes and comparing real behaviour
against the spec.  This package is that engine for the Capri stack:

* :mod:`repro.litmus.generate` — deterministic seeded generation of
  tiny multi-hart IR programs (2–3 harts, a handful of stores, persist
  region boundaries, shared/private address mixes) via
  :class:`repro.ir.IRBuilder`,
* :mod:`repro.litmus.oracle` — the allowed-outcome oracle: per-address
  post-crash value sets under region-level strict persistency, read
  off the :mod:`repro.check` reference automaton driven by a trace,
* :mod:`repro.litmus.explore` — bounded-exhaustive enumeration of hart
  interleavings against the oracle and the :mod:`repro.check` reference
  automaton,
* :mod:`repro.litmus.matrix` — the execution matrix: every litmus
  program through the fault campaign (crash at every observer event,
  replay-accelerated via :mod:`repro.trace`), every recovered state
  judged against the allowed set, minimized witnesses on forbidden
  outcomes, verdicts cached in the :class:`repro.api.ResultCache`
  ``litmus`` namespace.

CLI: ``python -m repro litmus generate|run|explore|mutants``.
"""

from repro.litmus.generate import LitmusProgram, generate_program, litmus_corpus
from repro.litmus.oracle import OutcomeSnapshot
from repro.litmus.explore import ExploreResult, explore_program
from repro.litmus.matrix import (
    LitmusVerdict,
    LitmusWitness,
    run_litmus_mutants,
    run_litmus_program,
)

__all__ = [
    "LitmusProgram",
    "generate_program",
    "litmus_corpus",
    "OutcomeSnapshot",
    "ExploreResult",
    "explore_program",
    "LitmusVerdict",
    "LitmusWitness",
    "run_litmus_program",
    "run_litmus_mutants",
]

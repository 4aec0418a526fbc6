"""Print→parse round-trips over the litmus generator's seed space.

The litmus generator (`repro.litmus.generate`) emits every shape the
IR builder can produce for multi-hart persist-region programs —
atomics, checkpoint stores, explicit region boundaries, shared/private
address mixes — which makes its seed space a good property-test corpus
for the textual printer/parser pair: for any seed, printing the
program and parsing it back must reach a textual fixpoint, survive the
verifier, and (spot-checked) execute identically.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.parser import parse_module
from repro.ir.printer import format_function
from repro.ir.verifier import verify_module
from repro.litmus.generate import generate_program


def roundtrip(program):
    """Parse the program's own text() back; assert per-function textual
    fixpoint and return the reparsed module (sans data segment)."""
    reparsed = parse_module(program.text(), name=program.module.name)
    assert set(reparsed.functions) == set(program.module.functions)
    for name, func in program.module.functions.items():
        assert format_function(reparsed.functions[name]) == format_function(func)
    return reparsed


class TestLitmusRoundTrip:
    @pytest.mark.parametrize("seed", range(6))
    def test_corpus_seeds_roundtrip_and_verify(self, seed):
        p = generate_program(seed)
        reparsed = roundtrip(p)
        # The data segment is not expressed in text (parse_module
        # docstring) — restore it, then the verifier must accept the
        # reparsed module wholesale.
        reparsed.symbols = dict(p.module.symbols)
        reparsed.initial_data = dict(p.module.initial_data)
        verify_module(reparsed)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=4095))
    def test_seed_space_reaches_textual_fixpoint(self, seed):
        roundtrip(generate_program(seed))

    def test_reparsed_program_executes_identically(self):
        from repro.fault.oracle import golden_run

        p = generate_program(3)
        reparsed = roundtrip(p)
        reparsed.symbols = dict(p.module.symbols)
        reparsed.initial_data = dict(p.module.initial_data)
        verify_module(reparsed)

        golden = golden_run(p.module, p.spawns, quantum=p.quantum)
        again = golden_run(reparsed, p.spawns, quantum=p.quantum)
        assert again.data == golden.data

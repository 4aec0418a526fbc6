"""I/O under whole-system persistence (the paper's Section 3.3).

I/O effects leave the persistence domain and cannot be rolled back.  The
contract implemented (following the paper's sketch):

* each I/O lives in its own single-instruction region, so crash recovery
  re-executes at most the one interrupted I/O (at-least-once delivery),
* committed I/O is never re-executed (resume points never move backwards
  past a committed boundary),
* before an I/O issues, everything committed is durable (the persist
  barrier), so the external world never observes output from state that
  a crash could roll back.
"""

import pytest

from repro.arch.crash import CrashPlan, run_until_crash
from repro.arch.recovery import recover, resume_and_finish
from repro.compiler import CapriCompiler, OptConfig
from repro.ir import IRBuilder, verify_module
from repro.ir.instructions import IOWrite, RegionBoundary
from repro.isa import Machine

from tests.arch.conftest import data_memory


def build_logger(n_records: int = 20):
    """Compute a value, store it, then emit it to 'disk' (port 1)."""
    b = IRBuilder("logger")
    arr = b.module.alloc("records", n_records)
    with b.function("main") as f:
        with b_for(f, n_records) as i:
            v = f.add(f.mul(i, 7), 3)
            f.store(v, f.add(arr, f.shl(i, 3)))
            f.io_write(1, v)
        f.ret()
    verify_module(b.module)
    return b.module, arr


def b_for(f, n):
    return f.for_range(n)


class TestIOSemantics:
    def test_machine_logs_io_in_order(self):
        module, _ = build_logger(5)
        machine = Machine(module)
        machine.run_function("main")
        assert [v for (_, port, v) in machine.io_log] == [3, 10, 17, 24, 31]
        assert all(port == 1 for (_, port, _) in machine.io_log)

    def test_io_event_observed(self):
        from repro.isa import CountingObserver

        module, _ = build_logger(4)
        obs = CountingObserver()
        Machine(module).run_function("main", observer=obs)
        assert obs.io_writes == 4

    def test_compiler_isolates_io_in_own_region(self):
        module, _ = build_logger(4)
        out = CapriCompiler(OptConfig.licm(256)).compile(module).module
        func = out.function("main")
        for label, block in func.blocks.items():
            for i, instr in enumerate(block.instrs):
                if isinstance(instr, IOWrite):
                    # boundary immediately before (block-leading) ...
                    assert isinstance(block.instrs[0], RegionBoundary)
                    assert i == 1
                    # ... and nothing after it but the block terminator.
                    assert len(block.instrs) == 3

    def test_io_blocks_loop_unrolling_boundaries(self):
        """A loop with I/O keeps a boundary per iteration — its regions
        cannot grow past the I/O no matter the threshold."""
        from repro.isa import CountingObserver

        module, _ = build_logger(16)
        out = CapriCompiler(OptConfig.licm(1024)).compile(module).module
        obs = CountingObserver()
        Machine(out).run_function("main", observer=obs)
        assert obs.boundaries >= 16

    def test_parser_printer_roundtrip(self):
        from repro.ir import format_function, parse_function

        module, _ = build_logger(3)
        text = format_function(module.function("main"))
        assert "io[1]" in text
        reparsed = parse_function(text)
        assert format_function(reparsed) == text


class TestIOUnderCrashes:
    def _reference(self, module):
        machine = Machine(module)
        machine.spawn("main", [])
        machine.run()
        return data_memory(machine), [v for (_, _, v) in machine.io_log]

    @pytest.mark.parametrize("at", [10, 60, 150, 300, 450])
    def test_at_least_once_delivery(self, at):
        module, _ = build_logger(20)
        capri = CapriCompiler(OptConfig.licm(64)).compile(module).module
        ref_data, ref_io = self._reference(capri)

        state = run_until_crash(capri, [("main", [])], CrashPlan(at), threshold=64)
        if state is None:
            return
        pre_crash_io = []  # unknown from state; replay instead
        rec = recover(state, capri)
        finished = resume_and_finish(rec, capri, [("main", [])])
        # Memory state is exact, as always.
        assert data_memory(finished) == ref_data
        # I/O of the resumed leg is a *suffix* of the reference sequence
        # possibly re-emitting the record in flight at the crash.
        resumed_io = [v for (_, _, v) in finished.io_log]
        assert resumed_io == ref_io[len(ref_io) - len(resumed_io):]

    def test_crash_sweep_duplicates_bounded(self):
        """Across a dense crash sweep, the combined pre-crash + resumed
        I/O stream equals the reference with at most one duplicated
        record at the seam (the interrupted region's I/O)."""
        module, _ = build_logger(15)
        capri = CapriCompiler(OptConfig.licm(64)).compile(module).module
        ref_data, ref_io = self._reference(capri)

        for at in range(5, 550, 37):
            # First leg: run to crash on a machine we can inspect.
            from repro.arch.crash import CrashInjector, PowerFailure
            from repro.arch.system import build_system

            machine, system = build_system(capri, [("main", [])], threshold=64)
            injector = CrashInjector(system, CrashPlan(at))
            try:
                machine.run(injector)
            except PowerFailure as pf:
                state = pf.state
            else:
                continue
            first_leg = [v for (_, _, v) in machine.io_log]
            rec = recover(state, capri)
            finished = resume_and_finish(rec, capri, [("main", [])])
            second_leg = [v for (_, _, v) in finished.io_log]
            combined = first_leg + second_leg
            # Every reference record is delivered...
            assert ref_io == sorted(set(combined), key=ref_io.index)
            # ...with at most one duplicate at the seam.
            duplicates = len(combined) - len(set(combined))
            assert duplicates <= 1, f"at={at}: {combined}"
            if duplicates == 1:
                # The duplicate is exactly the seam record.
                assert first_leg[-1] == second_leg[0]
            assert data_memory(finished) == ref_data

    def test_io_barrier_makes_committed_state_durable(self):
        """At the moment an I/O issues, all previously committed stores
        are already in NVM (no output can precede its own cause's
        durability)."""
        from repro.arch.system import build_system

        module, arr = build_logger(10)
        capri = CapriCompiler(OptConfig.licm(64)).compile(module).module

        machine, system = build_system(capri, [("main", [])], threshold=64)

        seen = []
        orig_on_io = system.on_io

        def checking_on_io(core, port, value):
            orig_on_io(core, port, value)
            # After the barrier: the record just stored for this I/O's
            # *previous* iterations must be durable in NVM.
            seen.append(len(machine.io_log))
            for k in range(len(machine.io_log) - 1):
                addr = arr + k * 8
                expected = 7 * k + 3
                assert system.nvm.peek(addr) == expected, (
                    f"io #{len(machine.io_log)}: record {k} not durable"
                )

        system.on_io = checking_on_io
        machine.run(system)
        assert seen  # the hook actually ran

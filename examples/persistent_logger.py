#!/usr/bin/env python3
"""Persistent logger: I/O under whole-system persistence (Section 3.3).

The paper leaves non-recoverable operations (I/O) as an open problem and
sketches the answer Capri enables: isolate each I/O in its own region so
a crash re-issues at most the one interrupted operation.  This example
runs a record logger that stores each record to NVM and emits it to a
"disk" port, kills the power repeatedly, and shows:

* memory state recovers exactly, every time,
* the combined output stream contains every record in order,
* at most one duplicate appears per crash — the record in flight — which
  is the at-least-once contract (dedupable downstream by sequence number).

Run:  python examples/persistent_logger.py
"""

from repro.arch import SimParams
from repro.arch.crash import CrashInjector, CrashPlan, PowerFailure
from repro.arch.recovery import prepare_resumed_run, recover
from repro.arch.system import build_system
from repro.compiler import CapriCompiler, OptConfig
from repro.ir import IRBuilder, verify_module
from repro.ir.module import is_ckpt_addr
from repro.isa import Machine

NUM_RECORDS = 24
DISK_PORT = 1


def build_logger():
    b = IRBuilder("persistent_logger")
    records = b.module.alloc("records", NUM_RECORDS)
    with b.function("main") as f:
        with f.for_range(NUM_RECORDS) as i:
            rec = f.add(f.mul(i, 100), 1)  # record #i -> payload 100i+1
            f.store(rec, f.add(records, f.shl(i, 3)))
            f.io_write(DISK_PORT, rec)  # leaves the persistence domain
        f.ret()
    verify_module(b.module)
    return b.module, records


def data_state(machine):
    return {a: v for a, v in machine.memory.items() if not is_ckpt_addr(a)}


def main() -> None:
    module, records = build_logger()
    capri = CapriCompiler(OptConfig.licm(64)).compile(module).module
    spawns = [("main", [])]
    params = SimParams.scaled()

    # Reference: the crash-free run.
    ref = Machine(capri)
    ref.spawn("main", [])
    ref.run()
    ref_io = [v for (_, _, v) in ref.io_log]
    ref_data = data_state(ref)

    # Crash-ridden run: power fails every ~120 events until completion.
    crash_every = 120
    output = []
    machine, system = build_system(capri, spawns, params=params, threshold=64)
    crashes = 0
    while True:
        injector = CrashInjector(system, CrashPlan(crash_every))
        try:
            machine.run(injector)
        except PowerFailure as pf:
            crashes += 1
            output.extend(v for (_, _, v) in machine.io_log)
            print(f"power failure #{crashes}: "
                  f"{len(machine.io_log)} records emitted this leg")
            recovered = recover(pf.state, capri)
            machine, system = prepare_resumed_run(
                recovered, capri, spawns, params=params, threshold=64
            )
            continue
        output.extend(v for (_, _, v) in machine.io_log)
        break

    print(f"\nsurvived {crashes} power failures")
    print(f"memory recovered exactly: {data_state(machine) == ref_data}")

    delivered = sorted(set(output), key=ref_io.index)
    duplicates = len(output) - len(set(output))
    print(f"records delivered: {len(set(output))}/{NUM_RECORDS} "
          f"(complete: {delivered == ref_io})")
    print(f"duplicates at crash seams: {duplicates} "
          f"(bound: one per crash = {crashes})")
    assert data_state(machine) == ref_data
    assert delivered == ref_io
    assert duplicates <= crashes
    print("\nAt-least-once delivery with exact memory recovery — the "
          "Section 3.3 sketch, working.")


if __name__ == "__main__":
    main()

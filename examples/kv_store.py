#!/usr/bin/env python3
"""A crash-consistent key-value store with zero persistence code.

The paper's motivation (Section 1): under partial-system persistence,
only specially-written programs — in-memory databases, key-value stores
with custom durable data structures and recovery code — get crash
consistency.  Capri inverts that: an ordinary open-addressing hash table
with no transactions, no pmalloc, no flushes and no recovery code is
made whole-system persistent by compiling it with the Capri compiler.

The table itself lives in the workload registry
(:mod:`repro.workloads.kvstore`, registry name ``kv_store``) so sweeps,
fault campaigns, and the persistency checker all share this one
builder; this script is the single-machine demo: apply a workload of puts/deletes,
kill the power mid-flight several times, recover, and show the final
table matches an uninterrupted run exactly — including tombstones and
probe chains, the classic prey of torn hash-table updates.

Run:  python examples/kv_store.py
"""

from repro.arch import SimParams
from repro.arch.crash import CrashInjector, CrashPlan, PowerFailure
from repro.arch.recovery import prepare_resumed_run, recover
from repro.arch.system import build_system
from repro.compiler import CapriCompiler, OptConfig
from repro.ir.module import is_ckpt_addr
from repro.isa import Machine
from repro.workloads.kvstore import build_kv_service_module, dump_table

NUM_OPS = 220


def data_state(machine):
    return {a: v for a, v in machine.memory.items() if not is_ckpt_addr(a)}


def main() -> None:
    module, layout = build_kv_service_module()
    capri = CapriCompiler(OptConfig.licm(256)).compile(module).module
    spawns = [("main", [NUM_OPS])]
    params = SimParams.scaled()

    # Reference run.
    ref = Machine(capri)
    ref.spawn("main", [NUM_OPS])
    ref.run()
    ref_state = data_state(ref)
    ref_table = dump_table(ref.memory, layout)
    print(f"reference run: {len(ref_table)} live keys, "
          f"{ref.memory.get(layout.stats, 0)} puts, "
          f"{ref.memory.get(layout.stats + 8, 0)} deletes")

    # Crash-ridden run.
    machine, system = build_system(capri, spawns, params=params, threshold=256)
    crashes = 0
    while True:
        injector = CrashInjector(system, CrashPlan(at_event=701))
        try:
            machine.run(injector)
        except PowerFailure as pf:
            crashes += 1
            recovered = recover(pf.state, capri)
            print(f"power failure #{crashes}: rolled back "
                  f"{recovered.regions_rolled_back} region "
                  f"({recovered.undo_words} undo words), resuming")
            machine, system = prepare_resumed_run(
                recovered, capri, spawns, params=params, threshold=256
            )
            continue
        break

    final_table = dump_table(machine.memory, layout)
    exact = data_state(machine) == ref_state
    print(f"\nsurvived {crashes} power failures mid-put/mid-delete")
    print(f"final table identical to crash-free run: {exact}")
    print(f"live keys: {len(final_table)} (sample: "
          f"{dict(sorted(final_table.items())[:5])})")
    assert exact
    print("\nAn ordinary hash table — no transactions, no flushes, no "
          "recovery code — is crash-consistent under Capri (Section 2.1).")


if __name__ == "__main__":
    main()

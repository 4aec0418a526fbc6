"""Workload characterisation: the "shape" numbers behind the stand-ins.

DESIGN.md claims each synthetic benchmark matches its paper counterpart
on the axes that drive Capri — store density, call frequency, loop
shortness, working-set size, register pressure.  This module measures
those axes from a run, so the claims are checkable and new stand-ins can
be tuned against them:

* instruction mix (ALU / load / store / branch / call fractions),
* store density (stores per 100 instructions),
* call density (mandatory boundaries per 1k instructions),
* working set (distinct words and cache lines touched),
* region profile after Capri compilation (dynamic lengths, checkpoint
  fractions).

It also measures simulator *throughput* per workload — functional
instructions/second, full-system (interpreted) events/second, and
trace-replay events/second with the capture overhead — which feeds the
performance table in docs/PERFORMANCE.md.

Command line::

    python -m repro profile [names...] [--scale S]
    python -m repro profile genome ssca2 --json -          # stdout
    python -m repro profile genome --json profile.json     # file
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.api import RunSpec, build_spec
from repro.compiler import OptConfig
from repro.compiler.stats import RegionStatsObserver
from repro.isa.machine import Machine
from repro.isa.trace import Observer
from repro.workloads import get_workload, workload_names


class CharacterizationObserver(Observer):
    """Collects the instruction-mix and working-set profile of one run."""

    def __init__(self, line_bytes: int = 64) -> None:
        self.line_bytes = line_bytes
        self.kind_counts: Dict[str, int] = {}
        self.words: Set[int] = set()
        self.store_words: Set[int] = set()
        self.loads = 0
        self.stores = 0
        self.calls = 0
        self.atomics = 0
        self.retired = 0

    def on_retire(self, core, kind):
        self.retired += 1
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
        if kind == "Call":
            self.calls += 1

    def on_load(self, core, addr, value):
        self.loads += 1
        self.words.add(addr)

    def on_store(self, core, addr, value, old):
        self.stores += 1
        self.words.add(addr)
        self.store_words.add(addr)

    def on_atomic(self, core, addr, value, old):
        self.atomics += 1
        self.words.add(addr)
        self.store_words.add(addr)

    @property
    def lines_touched(self) -> int:
        return len({w - w % self.line_bytes for w in self.words})


@dataclass
class WorkloadProfile:
    """One benchmark's measured shape."""

    name: str
    suite: str
    instructions: int
    store_density: float  # stores per 100 instructions
    load_density: float
    call_density: float  # calls per 1000 instructions
    atomic_density: float
    branch_fraction: float
    working_set_words: int
    working_set_lines: int
    # after full Capri compilation at threshold 256:
    avg_region_instrs: float
    avg_region_stores: float
    ckpt_fraction: float  # checkpoint stores / all dynamic instructions

    def row(self) -> Dict[str, float]:
        return {
            "instrs": self.instructions,
            "st/100": self.store_density,
            "ld/100": self.load_density,
            "call/1k": self.call_density,
            "atomic/1k": self.atomic_density,
            "br%": self.branch_fraction * 100,
            "ws_lines": self.working_set_lines,
            "region_len": self.avg_region_instrs,
            "region_st": self.avg_region_stores,
            "ckpt%": self.ckpt_fraction * 100,
        }


def profile_workload(
    name: str, scale: float = 0.5, threshold: int = 256
) -> WorkloadProfile:
    """Measure one benchmark's shape (uninstrumented + Capri region view)."""
    module, spawns = build_spec(
        RunSpec(workload=name, scale=scale, config=OptConfig.volatile())
    )

    obs = CharacterizationObserver()
    machine = Machine(module)
    for fn, args in spawns:
        machine.spawn(fn, args)
    machine.run(obs)

    capri, _ = build_spec(
        RunSpec(workload=name, scale=scale, config=OptConfig.licm(threshold))
    )
    robs = RegionStatsObserver()
    cobs = CharacterizationObserver()

    class Both(Observer):
        def __getattribute__(self, attr):
            if attr.startswith("on_"):
                def fan(*args, **kw):
                    getattr(robs, attr)(*args, **kw)
                    getattr(cobs, attr)(*args, **kw)
                return fan
            return super().__getattribute__(attr)

    cmachine = Machine(capri)
    for fn, args in spawns:
        cmachine.spawn(fn, args)
    cmachine.run(Both())

    n = max(1, obs.retired)
    ckpts = cobs.kind_counts.get("CheckpointStore", 0)
    return WorkloadProfile(
        name=name,
        suite=get_workload(name).suite,
        instructions=obs.retired,
        store_density=100.0 * (obs.stores + obs.atomics) / n,
        load_density=100.0 * obs.loads / n,
        call_density=1000.0 * obs.calls / n,
        atomic_density=1000.0 * obs.atomics / n,
        branch_fraction=(
            obs.kind_counts.get("Branch", 0) + obs.kind_counts.get("Jump", 0)
        )
        / n,
        working_set_words=len(obs.words),
        working_set_lines=obs.lines_touched,
        avg_region_instrs=robs.stats.avg_instructions,
        avg_region_stores=robs.stats.avg_stores,
        ckpt_fraction=ckpts / max(1, cobs.retired),
    )


def measure_throughput(
    name: str, scale: float = 0.5, threshold: int = 256, quantum: int = 32
) -> Dict[str, float]:
    """Simulator throughput on one workload, all four execution paths.

    Returns a flat dict: functional interpreter instructions/second,
    trace capture overhead (events/second plus slowdown vs the bare
    functional run), interpreted full-system events/second, and
    trace-replay events/second with the resulting per-run speedup.
    Single measurement each — these feed a documentation table, not a
    statistics engine; use benchmarks/ for calibrated numbers.
    """
    from repro.arch.system import run_workload
    from repro.trace.record import capture_trace
    from repro.trace.replay import replay_metrics

    compiled, spawns = build_spec(
        RunSpec(workload=name, scale=scale, config=OptConfig.licm(threshold))
    )

    start = time.perf_counter()
    machine = Machine(compiled)
    for fn, fargs in spawns:
        machine.spawn(fn, fargs)
    machine.run(Observer())
    t_functional = time.perf_counter() - start

    start = time.perf_counter()
    trace = capture_trace(compiled, spawns, quantum=quantum)
    t_capture = time.perf_counter() - start

    start = time.perf_counter()
    run_workload(compiled, spawns, threshold=threshold, quantum=quantum)
    t_interpreted = time.perf_counter() - start

    start = time.perf_counter()
    replay_metrics(trace, threshold=threshold)
    t_replay = time.perf_counter() - start

    events = len(trace)
    instrs = machine.total_retired
    return {
        "instructions": instrs,
        "events": events,
        "functional_instr_per_s": instrs / max(t_functional, 1e-9),
        "capture_events_per_s": events / max(t_capture, 1e-9),
        "capture_overhead_x": t_capture / max(t_functional, 1e-9),
        "interpreted_events_per_s": events / max(t_interpreted, 1e-9),
        "replay_events_per_s": events / max(t_replay, 1e-9),
        "replay_speedup_x": t_interpreted / max(t_replay, 1e-9),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.jsonout import add_json_arg, write_envelope

    parser = argparse.ArgumentParser(prog="python -m repro profile")
    parser.add_argument("names", nargs="*", default=None)
    parser.add_argument("--scale", type=float, default=0.5)
    add_json_arg(
        parser,
        help="emit machine-readable characterisation + throughput "
        "(instr/s, events/s, replay speedup) as a schema-versioned "
        "envelope to PATH ('-' for stdout, suppressing the table)",
    )
    args = parser.parse_args(argv)
    json_out = args.json_out
    names = args.names or workload_names()

    from repro.eval.report import format_table

    cells: Dict[str, Dict[str, float]] = {}
    columns: List[str] = []
    payload: Dict[str, Dict[str, object]] = {}
    for name in names:
        profile = profile_workload(name, scale=args.scale)
        cells[name] = profile.row()
        columns = list(cells[name].keys())
        if json_out:
            payload[name] = {
                "suite": profile.suite,
                "characterisation": profile.row(),
                "throughput": measure_throughput(name, scale=args.scale),
            }
    if json_out:
        write_envelope(
            json_out,
            "profile",
            {"scale": args.scale, "workloads": payload},
        )
        if json_out == "-":
            return 0
    print(
        format_table(
            "Workload characterisation "
            "(store/load density per 100 instrs, calls/atomics per 1k, "
            "Capri regions at threshold 256)",
            names,
            columns,
            cells,
            fmt="{:.1f}",
        )
    )
    if json_out:
        print(f"profile written to {json_out}")
    return 0

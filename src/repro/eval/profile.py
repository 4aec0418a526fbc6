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

Command line::

    python -m repro profile [names...] [--scale S]
    python -m repro profile genome ssca2 --json -          # stdout
    python -m repro profile genome --json profile.json     # file
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.api import RunSpec, build_spec
from repro.compiler import OptConfig
from repro.compiler.stats import RegionStatsObserver
from repro.isa.machine import Machine
from repro.isa.trace import Observer, TeeObserver
from repro.workloads import get_workload, workload_names


class CharacterizationObserver(Observer):
    """Collects the instruction-mix and working-set profile of one run."""

    def __init__(self, line_bytes: int = 64) -> None:
        self.line_bytes = line_bytes
        self.kind_counts: Dict[str, int] = {}
        self.words: Set[int] = set()
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

    def on_atomic(self, core, addr, value, old):
        self.atomics += 1
        self.words.add(addr)

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
    cmachine = Machine(capri)
    for fn, args in spawns:
        cmachine.spawn(fn, args)
    cmachine.run(TeeObserver(robs, cobs))

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
        working_set_lines=obs.lines_touched,
        avg_region_instrs=robs.stats.avg_instructions,
        avg_region_stores=robs.stats.avg_stores,
        ckpt_fraction=ckpts / max(1, cobs.retired),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.eval.report import format_table
    from repro.jsonout import (
        add_json_arg, scale_arg, text_printer, usage_errors, write_envelope,
    )

    parser = argparse.ArgumentParser(prog="python -m repro profile")
    parser.add_argument("names", nargs="*", default=None)
    parser.add_argument("--scale", type=scale_arg, default=0.5)
    add_json_arg(
        parser,
        help="emit the machine-readable characterisation as a "
        "schema-versioned envelope to PATH ('-' for stdout, suppressing "
        "the table)",
    )
    args = parser.parse_args(argv)
    names = args.names or workload_names()
    with usage_errors(parser):  # an unknown workload, before any profiling
        for name in names:
            get_workload(name)

    cells: Dict[str, Dict[str, float]] = {}
    columns: List[str] = []
    payload: Dict[str, Dict[str, object]] = {}
    for name in names:
        profile = profile_workload(name, scale=args.scale)
        cells[name] = profile.row()
        columns = list(cells[name].keys())
        payload[name] = {
            "suite": profile.suite,
            "characterisation": cells[name],
        }
    text_printer(args.json_out)(
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
    if args.json_out:
        write_envelope(
            args.json_out,
            "profile",
            {"scale": args.scale, "workloads": payload},
            written="profile written to",
        )
    return 0

"""Recovery-latency analysis (extension over the paper's Section 5.4).

The paper describes the recovery protocol but does not quantify its cost.
A useful property falls out of the design: recovery work is bounded by
the *proxy buffer capacity*, not by how long the program ran — everything
older is already durable in NVM, so the recovery threads only scan the
surviving front-/back-end entries (at most FE + BE ≈ threshold + 33
entries per core) plus one register reload and the region's recovery
blocks.

:func:`analyze_recovery` sweeps crash points over a workload through
one crash source, ``TraceCampaignSource(module, spawns, config)``
(:mod:`repro.trace.replay`), which captures the workload once at the
config's quantum and step budget and replays it — and reports, per
crash: entries scanned, undo/redo words written, checkpoint slots
reloaded, recovery-block instructions executed, and a wall-clock
estimate under the Table 1 latencies.  :func:`recovery_latency_model`
turns one :class:`~repro.arch.recovery.RecoveredState` into
nanoseconds.

Command line::

    python -m repro recovery [--workload N] [--threshold T]
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.api import RunSpec, build_spec
from repro.arch.crash import CrashState
from repro.arch.params import SimParams
from repro.arch.recovery import RecoveredState, recover
from repro.compiler import OptConfig
from repro.fault.campaign import CampaignConfig
from repro.jsonout import threshold_arg, usage_errors
from repro.trace.replay import TraceCampaignSource


@dataclass
class RecoveryCost:
    """Work and estimated time for one recovery."""

    crash_at: int
    entries_scanned: int
    redo_words: int
    undo_words: int
    ckpt_slots_reloaded: int
    recovery_block_instrs: int
    estimated_ns: float


@dataclass
class RecoverySweep:
    """Aggregate over a crash-point sweep."""

    workload: str
    threshold: int
    costs: List[RecoveryCost] = field(default_factory=list)

    @property
    def max_entries(self) -> int:
        return max((c.entries_scanned for c in self.costs), default=0)

    @property
    def max_ns(self) -> float:
        return max((c.estimated_ns for c in self.costs), default=0.0)

    @property
    def mean_ns(self) -> float:
        if not self.costs:
            return 0.0
        return sum(c.estimated_ns for c in self.costs) / len(self.costs)


def recovery_latency_model(
    state: CrashState,
    recovered: RecoveredState,
    params: Optional[SimParams] = None,
) -> RecoveryCost:
    """Estimate one recovery's latency under the Table 1 device numbers.

    Model: scan every surviving entry (one SRAM read each, ~1 ns), issue
    one NVM write per applied undo/redo word and restored checkpoint slot
    (pipelined at the write port's sustained interval), one NVM read per
    architectural register reload, and one core cycle per recovery-block
    instruction.
    """
    p = params or SimParams.paper()
    entries = sum(len(core) for core in state.core_entries)
    nvm_writes = recovered.redo_words + recovered.undo_words
    ckpt_slots = 0
    for resume in recovered.resumes:
        if resume is None:
            continue
        ckpt_slots += len(resume.registers)
    # Checkpoint values applied from boundary entries count as writes too.
    for core in state.core_entries:
        for entry in core:
            if entry.is_boundary:
                nvm_writes += len(entry.ckpts)
    rb_instrs = recovered.recovery_blocks_run  # blocks, ≈ instrs (small)

    scan_ns = entries * 1.0
    write_ns = nvm_writes * (p.nvm_write_ns / p.nvm_write_parallelism)
    reload_ns = ckpt_slots * p.nvm_read_ns / 8  # slots share cache lines
    rb_ns = rb_instrs * (1.0 / p.clock_ghz)
    return RecoveryCost(
        crash_at=-1,
        entries_scanned=entries,
        redo_words=recovered.redo_words,
        undo_words=recovered.undo_words,
        ckpt_slots_reloaded=ckpt_slots,
        recovery_block_instrs=rb_instrs,
        estimated_ns=scan_ns + write_ns + reload_ns + rb_ns,
    )


def analyze_recovery(
    workload_name: str = "genome",
    threshold: int = 256,
    scale: float = 0.4,
    crash_points: Optional[Sequence[int]] = None,
    params: Optional[SimParams] = None,
) -> RecoverySweep:
    """Sweep crash points and collect recovery costs.

    The workload is interpreted once; ascending crash points then cost
    one replay of the trace in total.
    """
    spec = RunSpec(
        workload=workload_name, scale=scale, config=OptConfig.licm(threshold)
    )
    capri, spawns = build_spec(spec)
    source = TraceCampaignSource(
        capri,
        spawns,
        CampaignConfig(params=params or SimParams.scaled(), threshold=threshold),
    )
    sweep = RecoverySweep(workload=workload_name, threshold=threshold)
    points = list(crash_points) if crash_points else list(range(50, 6000, 450))
    for at in points:
        state, _io, _checker = source.capture_at(at)
        if state is None:
            break
        recovered = recover(state, capri)
        cost = recovery_latency_model(state, recovered)
        cost.crash_at = at
        sweep.costs.append(cost)
    return sweep


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro recovery")
    parser.add_argument("--workload", default="genome")
    parser.add_argument("--threshold", type=threshold_arg, default=256)
    parser.add_argument("--scale", type=float, default=0.4)
    args = parser.parse_args(argv)
    with usage_errors(parser):  # an unknown workload or a bad scale
        sweep = analyze_recovery(args.workload, args.threshold, args.scale)
    print(
        f"Recovery-cost sweep: {sweep.workload}, threshold {sweep.threshold} "
        f"({len(sweep.costs)} crash points)\n"
    )
    print(f"{'crash@':>8s} {'entries':>8s} {'redo':>6s} {'undo':>6s} "
          f"{'slots':>6s} {'est_us':>8s}")
    for c in sweep.costs:
        print(f"{c.crash_at:8d} {c.entries_scanned:8d} {c.redo_words:6d} "
              f"{c.undo_words:6d} {c.ckpt_slots_reloaded:6d} "
              f"{c.estimated_ns / 1000:8.2f}")
    cap = sweep.threshold + 1 + 32  # BE + boundary slot + FE
    print(f"\nmax entries scanned: {sweep.max_entries} "
          f"(buffer capacity bound: {cap})")
    print(f"estimated recovery time: mean {sweep.mean_ns / 1000:.2f} us, "
          f"max {sweep.max_ns / 1000:.2f} us — independent of run length.")
    return 0

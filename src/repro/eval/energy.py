"""Residual-energy analysis: why Capri's buffers beat eADR (Section 1.2).

The paper's motivation: whole-system persistence by "flush everything on
power failure" (Narayanan & Hodson's WSP, Intel eADR) must hold enough
residual energy to drain the entire volatile hierarchy — which "turns out
to be an excessive amount" for deep HPC hierarchies and becomes absurd
with an off-chip DRAM cache in the persistent domain.  Capri instead
keeps only the small proxy buffers (and checkpoint staging) battery
backed.

This module quantifies that argument under the Table 1 configuration:
bytes that must drain to NVM at power-fail time, the drain time at NVM
write bandwidth, and an energy estimate.  Constants are order-of-
magnitude figures from the public literature (DDR/NVM write energy in
nJ/64B-line range); the *ratios* are the result.

Command line::

    python -m repro energy [--cores N] [--threshold T]
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.arch.params import SimParams
from repro.jsonout import int_arg, threshold_arg

#: Energy to write one 64-byte line to NVM (nJ) — order of magnitude for
#: PCM-class media (set/reset energy dominates).
NVM_WRITE_NJ_PER_LINE = 5.0

#: Energy to read one 64-byte line from SRAM/DRAM while draining (nJ).
READ_NJ_PER_LINE = 0.5

#: Bytes of one proxy entry (Figure 5): 8B address + undo + redo lines.
ENTRY_BYTES = 136


@dataclass
class DrainBudget:
    """What one scheme must drain at the instant power is cut."""

    scheme: str
    bytes_to_drain: int
    #: worst-case drain time at the NVM port (us).
    drain_time_us: float
    #: energy to read + write everything (uJ).
    energy_uj: float

    def row(self) -> Dict[str, float]:
        return {
            "KB": self.bytes_to_drain / 1024,
            "drain_us": self.drain_time_us,
            "energy_uJ": self.energy_uj,
        }


def _budget(scheme: str, nbytes: int, params: SimParams) -> DrainBudget:
    lines = max(1, nbytes // params.line_bytes)
    # Sustained line-write interval: one entry per nvm_write_interval is a
    # word in our simulator; a line is 8 of those.
    line_interval_ns = params.nvm_write_interval_cycles / params.clock_ghz * 8
    drain_us = lines * line_interval_ns / 1000
    energy = lines * (NVM_WRITE_NJ_PER_LINE + READ_NJ_PER_LINE) / 1000
    return DrainBudget(scheme, nbytes, drain_us, energy)


def drain_budgets(
    params: Optional[SimParams] = None,
    num_cores: int = 8,
    threshold: int = 256,
    include_dram_cache: bool = False,
) -> Dict[str, DrainBudget]:
    """Drain budgets for the three schemes the paper contrasts.

    * ``eADR`` — all on-chip caches persistent: every dirty byte of
      L1 x cores + L2 must flush (worst case: everything dirty).  With
      ``include_dram_cache`` the off-chip DRAM cache joins the persistent
      domain — the memory-mode scenario the paper calls impractical.
    * ``BBB`` — battery-backed buffer alongside each L1 (we size it like
      our front end) plus the same L2 problem solved by *not* covering
      L2: only the per-core buffer drains (cf. Alshboul et al.).
    * ``Capri`` — front-end + back-end proxy buffers + checkpoint staging
      per core; nothing else is in the persistent domain.
    """
    p = params or SimParams.paper()
    out: Dict[str, DrainBudget] = {}

    eadr_bytes = num_cores * p.l1_size_bytes + p.l2_size_bytes
    if include_dram_cache:
        eadr_bytes += p.dram_cache_size_bytes
    out["eADR"] = _budget("eADR", eadr_bytes, p)

    bbb_bytes = num_cores * p.frontend_entries * ENTRY_BYTES
    out["BBB"] = _budget("BBB", bbb_bytes, p)

    capri_bytes = num_cores * (
        p.frontend_entries * ENTRY_BYTES  # front-end proxy
        + p.backend_capacity(threshold) * ENTRY_BYTES  # back-end proxy
        + 512 * 8  # checkpoint staging (register-file storage)
    )
    out["Capri"] = _budget("Capri", capri_bytes, p)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro energy")
    parser.add_argument("--cores", type=int_arg(1), default=8)
    parser.add_argument("--threshold", type=threshold_arg, default=256)
    parser.add_argument(
        "--memory-mode",
        action="store_true",
        help="put the off-chip DRAM cache in eADR's persistent domain",
    )
    args = parser.parse_args(argv)
    budgets = drain_budgets(
        num_cores=args.cores,
        threshold=args.threshold,
        include_dram_cache=args.memory_mode,
    )
    from repro.eval.report import format_table

    cells = {name: b.row() for name, b in budgets.items()}
    print(
        format_table(
            f"Residual-energy requirement at power failure "
            f"({args.cores} cores, threshold {args.threshold}"
            f"{', DRAM cache persistent' if args.memory_mode else ''})",
            list(budgets),
            ["KB", "drain_us", "energy_uJ"],
            cells,
            fmt="{:,.1f}",
            row_header="scheme",
        )
    )
    eadr = budgets["eADR"].bytes_to_drain
    capri = budgets["Capri"].bytes_to_drain
    print(f"\nCapri's persistent domain is {eadr / capri:,.0f}x smaller "
          f"than eADR's — the Section 1.2 argument, quantified.")
    return 0

"""Simulator configuration (paper Table 1).

All latencies are kept in *cycles* at the core clock (2 GHz: 1 cycle =
0.5 ns, so a nanosecond figure from Table 1 doubles).  Two presets exist:

* :meth:`SimParams.paper` — the Table 1 configuration verbatim,
* :meth:`SimParams.scaled` — the same ratios with capacities shrunk to
  match our laptop-scale synthetic workloads (standard practice when the
  working set is scaled down; see DESIGN.md).  The *relative* numbers the
  figures report are driven by latency ratios and the proxy-buffer
  contract, which are identical in both presets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property


class PersistMode(enum.Enum):
    """How region persistence interacts with execution."""

    #: Two-phase atomic stores drain in the background (Section 5.1.2).
    ASYNC = "async"
    #: Naive synchronous persistence: the core stalls at every region
    #: boundary until the region is fully durable (the paper's "naive
    #: approach may slow down the benchmark up to 2x").
    SYNC = "sync"


@dataclass(frozen=True)
class SimParams:
    """Full simulator configuration; defaults follow Table 1."""

    # -- clock ---------------------------------------------------------------
    clock_ghz: float = 2.0

    # -- core ------------------------------------------------------------------
    #: Effective cycles per retired non-memory instruction (8-way OoO).
    cpi_base: float = 0.5
    #: Fraction of memory-access latency exposed to the core.  The paper's
    #: 8-way out-of-order pipeline with 128/72-entry load/store queues
    #: hides most hit latency behind independent work; a trace-driven
    #: model must fold that in or memory costs swamp the instruction
    #: stream (see DESIGN.md on fidelity).
    mem_exposure: float = 0.35
    #: Extra cycles per register-checkpointing store beyond the pipeline
    #: slot: it occupies the store path and writes the front-end proxy's
    #: dedicated register-file storage ("checkpointing stores incur
    #: non-negligible pressure", Section 1.3).
    ckpt_store_cycles: float = 1.0
    #: Extra cycles per region-boundary instruction: the boundary entry
    #: write plus the in-order commit bookkeeping at the front-end.
    boundary_cycles: float = 1.0

    # -- L1 data cache -----------------------------------------------------------
    l1_size_bytes: int = 32 * 1024
    l1_assoc: int = 8
    l1_hit_ns: float = 2.0

    # -- shared L2 ------------------------------------------------------------
    l2_size_bytes: int = 16 * 1024 * 1024
    l2_assoc: int = 16
    l2_hit_ns: float = 20.0

    # -- off-chip DRAM cache (the "memory mode" DRAM) ----------------------------
    dram_cache_size_bytes: int = 8 * 1024**3
    dram_hit_ns: float = 50.0

    # -- NVM main memory -----------------------------------------------------
    nvm_read_ns: float = 150.0
    nvm_write_ns: float = 300.0
    #: Write-pending-queue entries (persistent domain).
    wpq_entries: int = 16
    #: Sustained NVM write initiation interval: the WPQ, bank-level
    #: parallelism and channel interleaving pipeline writes, so throughput
    #: is write latency divided by the effective parallelism.  Our proxy
    #: entries are word-granular where the paper's are 64-byte lines, so a
    #: "write" here is 1/8th of a line write; the default folds that 8x in
    #: (16-deep WPQ pipelining x 8 words per line write, minus overheads).
    nvm_write_parallelism: int = 256

    # -- proxy architecture ------------------------------------------------------
    #: Front-end proxy buffer entries (Section 6.1: 32 entries / 4KB).
    frontend_entries: int = 32
    #: One-way proxy-path latency (Table 1: 20 ns).
    proxy_path_ns: float = 20.0
    #: Proxy-path initiation interval per entry (wide dedicated link).
    proxy_xfer_ns: float = 1.0
    #: Back-end entries per core; ``None`` means "equal to the compiler's
    #: region store threshold", the co-design contract of Section 5.2.2.
    backend_entries: int | None = None

    # -- I/O devices -----------------------------------------------------------
    #: Latency of one external I/O write (device register / queue doorbell).
    io_latency_ns: float = 200.0

    # -- behaviour toggles -----------------------------------------------------
    persist_mode: PersistMode = PersistMode.ASYNC
    #: Stale-read prevention via redo valid-bit invalidation (Section 5.3.2).
    stale_read_prevention: bool = True

    # -- geometry ------------------------------------------------------------
    line_bytes: int = 64

    # -- derived cycle quantities ----------------------------------------------
    # Computed on first use and kept in the instance, which is frozen, so
    # the hot timing paths read a plain attribute.  They are not fields:
    # equality, hashing and fingerprints see only the Table 1 values.

    def ns_to_cycles(self, ns: float) -> float:
        return ns * self.clock_ghz

    @cached_property
    def l1_hit_cycles(self) -> float:
        return self.ns_to_cycles(self.l1_hit_ns)

    @cached_property
    def l2_hit_cycles(self) -> float:
        return self.ns_to_cycles(self.l2_hit_ns)

    @cached_property
    def dram_hit_cycles(self) -> float:
        return self.ns_to_cycles(self.dram_hit_ns)

    @cached_property
    def nvm_read_cycles(self) -> float:
        return self.ns_to_cycles(self.nvm_read_ns)

    @cached_property
    def nvm_write_cycles(self) -> float:
        return self.ns_to_cycles(self.nvm_write_ns)

    @cached_property
    def nvm_write_interval_cycles(self) -> float:
        """Sustained cycles between NVM write issues (port throughput)."""
        return self.nvm_write_cycles / self.nvm_write_parallelism

    @cached_property
    def proxy_path_cycles(self) -> float:
        return self.ns_to_cycles(self.proxy_path_ns)

    @cached_property
    def proxy_xfer_cycles(self) -> float:
        return self.ns_to_cycles(self.proxy_xfer_ns)

    @cached_property
    def io_latency_cycles(self) -> float:
        return self.ns_to_cycles(self.io_latency_ns)

    @property
    def l1_lines(self) -> int:
        return self.l1_size_bytes // self.line_bytes

    @property
    def l2_lines(self) -> int:
        return self.l2_size_bytes // self.line_bytes

    @property
    def dram_cache_lines(self) -> int:
        return self.dram_cache_size_bytes // self.line_bytes

    def backend_capacity(self, threshold: int) -> int:
        """Back-end proxy entries: the compiler threshold unless overridden.

        One extra slot is reserved for the region-boundary delimiter entry
        so a full region plus its marker always fits (Section 5.2.2).
        """
        base = self.backend_entries if self.backend_entries is not None else threshold
        return base + 1

    # -- presets ----------------------------------------------------------------

    @staticmethod
    def paper() -> "SimParams":
        """The Table 1 configuration."""
        return SimParams()

    @staticmethod
    def scaled() -> "SimParams":
        """Capacities shrunk ~512x for laptop-scale synthetic workloads.

        Latencies and all persistence parameters are unchanged; only cache
        capacities shrink.  The Figure 8 working sets stay small even so:
        over all 20 programs at scale 1.0 and thresholds 32 and 256, the
        40 runs see no DRAM-cache hit, no dirty line written back to NVM
        (the regular-path writebacks of Section 5.3), no redo-valid
        invalidation, and 2 merged proxy entries; NVM sees only
        compulsory fills.  The writeback path is exercised by tests with
        smaller caches, not by the figures.
        """
        return SimParams(
            l1_size_bytes=4 * 1024,
            l2_size_bytes=32 * 1024,
            dram_cache_size_bytes=256 * 1024,
        )

    @staticmethod
    def tight() -> "SimParams":
        """:meth:`scaled` with every cache shrunk hard and the NVM write
        port throttled: the stress hierarchy of the mutant matrix
        (:mod:`repro.check.mutants`), ``repro check --matrix-params`` and
        the stale-read prevention ablation.

        The caches (L1 512 B, L2 1 KiB, DRAM cache 1 KiB) are small
        enough that even short runs evict dirty lines into NVM *while
        proxy entries are still in flight* — the regular-path writebacks
        the two invalidation mutants (``drop_invalidation``,
        ``invalidate_everything``) need in order to act at all.

        The write port is throttled (``nvm_write_parallelism=8``): at the
        default 256-way parallelism phase-2 drain keeps pace with the
        core and committed entries leave the back-end within nanoseconds
        of their boundary, which closes the cross-region address-reuse
        windows (``merge_across_regions``) and the
        writeback-hits-live-entry window before they can open.
        Throttled, the proxy FIFO runs tens of entries deep — the Section
        5.2.2 backlog regime.
        """
        return SimParams.scaled().with_(
            l1_size_bytes=512,
            l2_size_bytes=1024,
            dram_cache_size_bytes=1024,
            nvm_write_parallelism=8,
        )

    def with_(self, **kwargs) -> "SimParams":
        """Functional update, e.g. ``params.with_(persist_mode=SYNC)``."""
        return replace(self, **kwargs)

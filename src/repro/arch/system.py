"""Full-system wiring: the Capri architecture as a machine observer.

:class:`CapriSystem` consumes the functional machine's event stream and
simulates timing (per-core cycle accounting + memory hierarchy) and
persistence (two-phase atomic stores through the proxy buffers).  With
``persistence=False`` the same class is the *volatile baseline*: identical
cores and caches, no persistence engine — the paper's normalisation target
("all results are normalized to the unmodified programs").

The event stream is the system's only input: it holds no reference to
the machine, and a load event carries the word it read, which the
stale-read check (Section 5.3) compares with what an NVM fill returns.
The same system therefore runs behind the interpreter or a captured
trace (:mod:`repro.trace.replay`).

Use :func:`run_workload` for the common compile-spawn-run-measure flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.arch.core import ATOMIC_EXTRA_CYCLES, FENCE_CYCLES, CoreTimer
from repro.arch.memctrl import MemoryHierarchy
from repro.arch.nvm import NVMain
from repro.arch.params import SimParams
from repro.arch.persistence import PersistenceEngine
from repro.ir.module import Module
from repro.isa.machine import Machine
from repro.isa.trace import Observer


@dataclass
class SystemMetrics:
    """Everything a benchmark run reports."""

    cycles: float = 0.0  # max over cores, after final drain
    #: Execution time proper: max core cycle, excluding the final
    #: persistence drain tail (which amortises to nothing on the paper's
    #: multi-billion-instruction runs; on our scaled runs it would
    #: otherwise dominate).  Figures normalise on this.
    exec_cycles: float = 0.0
    core_cycles: List[float] = field(default_factory=list)
    retired: int = 0
    loads: int = 0
    stores: int = 0
    ckpt_stores: int = 0
    boundaries: int = 0
    # memory hierarchy
    l1_hits: int = 0
    l2_hits: int = 0
    dram_hits: int = 0
    nvm_fills: int = 0
    # persistence
    nvm_writes_total: int = 0
    nvm_writes_writeback: int = 0
    nvm_writes_redo: int = 0
    nvm_writes_ckpt: int = 0
    nvm_writes_skipped: int = 0
    proxy_entries: int = 0
    proxy_merged: int = 0
    boundary_entries: int = 0
    boundaries_skipped: int = 0
    fe_stall_cycles: float = 0.0
    sync_stall_cycles: float = 0.0
    invalidations: int = 0
    stale_reads: int = 0


class CapriSystem(Observer):
    """Timing + persistence simulation driven by machine events."""

    def __init__(
        self,
        params: SimParams,
        num_cores: int = 1,
        threshold: int = 256,
        persistence: bool = True,
        mutations=None,
    ) -> None:
        self.params = params
        self.num_cores = num_cores
        self.threshold = threshold
        self.nvm = NVMain(params)
        self.persist: Optional[PersistenceEngine] = None
        if persistence:
            self.persist = PersistenceEngine(
                params, self.nvm, num_cores, threshold, mutations=mutations
            )
            on_wb = self._nvm_writeback
        else:
            on_wb = lambda line, words: self.nvm.writeback_words(self._now, words)
        self.mem = MemoryHierarchy(params, num_cores, self.nvm, on_wb)
        self.cores = [CoreTimer(params) for _ in range(num_cores)]
        self._now = 0.0
        self._ckpt_cycles = params.ckpt_store_cycles
        self._boundary_cycles = params.boundary_cycles
        # counters
        self._loads = 0
        self._stores = 0
        self._ckpts = 0
        self._boundaries = 0
        self._l1_hits = 0
        self._l2_hits = 0
        self._dram_hits = 0

    # -- helpers ----------------------------------------------------------------

    def _core(self, core: int) -> CoreTimer:
        try:
            return self.cores[core]
        except IndexError:
            while core >= len(self.cores):
                self.cores.append(CoreTimer(self.params))
            return self.cores[core]

    def _nvm_writeback(self, line: int, words: Dict[int, int]) -> None:
        assert self.persist is not None
        self.persist.on_nvm_writeback(self._now, line, words)

    # -- machine observer callbacks ------------------------------------------------
    #
    # The hot callbacks (retire runs, loads, stores, checkpoints,
    # boundaries) index ``self.cores`` themselves and only go through
    # :meth:`_core` to grow the list; they apply ``add_latency`` and
    # ``stall_until`` inline on a local cycle count.

    def on_retire(self, core: int, kind: str) -> None:
        self._core(core).retire()

    def on_retire_run(self, core: int, n: int) -> None:
        # Every kind costs one pipeline slot, so only the count matters.
        try:
            timer = self.cores[core]
        except IndexError:
            timer = self._core(core)
        timer.retire_run(n)

    def on_load(self, core: int, addr: int, value: int) -> None:
        self._loads += 1
        try:
            timer = self.cores[core]
        except IndexError:
            timer = self._core(core)
        now = self._now = timer.cycle
        latency, level = self.mem.load(core, addr, value)
        if level == "l1":
            self._l1_hits += 1
        elif level == "l2":
            self._l2_hits += 1
        elif level == "dram":
            self._dram_hits += 1
        elif level == "nvm" and self.persist is not None:
            self.persist.check_nvm_read(now, addr, value)
        timer.cycle = now + latency

    def on_store(self, core: int, addr: int, value: int, old: int) -> None:
        self._stores += 1
        try:
            timer = self.cores[core]
        except IndexError:
            timer = self._core(core)
        now = self._now = timer.cycle
        latency, _hit = self.mem.store(core, addr, value)
        now = timer.cycle = now + latency
        if self.persist is not None:
            done = self.persist.on_store(core, now, addr, value, old)
            if done > now:
                timer.stall_cycles += done - now
                timer.cycle = done

    def on_ckpt(self, core: int, reg: int, value: int, addr: int) -> None:
        self._ckpts += 1
        try:
            timer = self.cores[core]
        except IndexError:
            timer = self._core(core)
        now = self._now = timer.cycle = timer.cycle + self._ckpt_cycles
        if self.persist is not None:
            done = self.persist.on_ckpt(core, now, addr, value)
            if done > now:
                timer.stall_cycles += done - now
                timer.cycle = done

    def on_boundary(self, core: int, region_id: int, continuation: Any) -> None:
        self._boundaries += 1
        try:
            timer = self.cores[core]
        except IndexError:
            timer = self._core(core)
        now = self._now = timer.cycle = timer.cycle + self._boundary_cycles
        if self.persist is not None:
            done = self.persist.on_boundary(core, now, region_id, continuation)
            if done > now:
                timer.stall_cycles += done - now
                timer.cycle = done

    def on_fence(self, core: int) -> None:
        self._core(core).add_latency(FENCE_CYCLES)

    def on_atomic(self, core: int, addr: int, value: int, old: int) -> None:
        self._stores += 1
        timer = self._core(core)
        self._now = timer.cycle
        latency, _hit = self.mem.store(core, addr, value)
        timer.add_latency(latency + ATOMIC_EXTRA_CYCLES)
        if self.persist is not None:
            done = self.persist.on_store(core, timer.cycle, addr, value, old)
            timer.stall_until(done)

    def on_io(self, core: int, port: int, value: int) -> None:
        timer = self._core(core)
        self._now = timer.cycle
        if self.persist is not None:
            # I/O persist barrier (Section 3.3): everything committed must
            # be durable before an effect leaves the persistence domain.
            done = self.persist.pipeline(core).drain_committed_until(
                timer.cycle
            )
            timer.stall_until(done)
        timer.add_latency(self.params.io_latency_cycles)

    def on_halt(self, core: int) -> None:
        pass

    # -- results --------------------------------------------------------------------

    def finish(self) -> SystemMetrics:
        """Drain pending persistence work and aggregate metrics."""
        drained = 0.0
        if self.persist is not None:
            drained = self.persist.drain_all()
        core_cycles = [c.cycle for c in self.cores]
        exec_cycles = max(core_cycles) if core_cycles else 0.0
        cycles = max([*core_cycles, drained]) if core_cycles else drained
        m = SystemMetrics(
            cycles=cycles,
            exec_cycles=exec_cycles,
            core_cycles=core_cycles,
            retired=sum(c.retired for c in self.cores),
            loads=self._loads,
            stores=self._stores,
            ckpt_stores=self._ckpts,
            boundaries=self._boundaries,
            l1_hits=self._l1_hits,
            l2_hits=self._l2_hits,
            dram_hits=self._dram_hits,
            nvm_fills=self.mem.nvm_fills,
            nvm_writes_total=self.nvm.total_writes,
            nvm_writes_writeback=self.nvm.writes_writeback,
            nvm_writes_redo=self.nvm.writes_redo,
            nvm_writes_ckpt=self.nvm.writes_ckpt,
            nvm_writes_skipped=self.nvm.writes_skipped,
        )
        if self.persist is not None:
            m.proxy_entries = self.persist.entries_created
            m.proxy_merged = self.persist.entries_merged
            m.boundary_entries = self.persist.boundary_entries
            m.boundaries_skipped = self.persist.boundaries_skipped
            m.fe_stall_cycles = self.persist.fe_stall_cycles
            m.sync_stall_cycles = self.persist.sync_stall_cycles
            m.invalidations = self.persist.invalidations
            m.stale_reads = self.persist.stale_reads
        return m


def build_system(
    module: Module,
    spawns: Sequence[Tuple[str, Sequence[int]]],
    params: Optional[SimParams] = None,
    threshold: int = 256,
    persistence: bool = True,
    quantum: int = 32,
    mutations=None,
) -> Tuple[Machine, "CapriSystem"]:
    """Construct the (machine, system) pair for a workload, unstarted,
    with the durable image seeded from the module's initial data.

    The single construction path shared by normal runs
    (:func:`run_workload`) and crash runs
    (:func:`repro.arch.crash.run_until_crash`) — so the two cannot drift
    in how cores are counted, harts spawned, or the durable image seeded.
    ``mutations`` plants protocol bugs for checker-sensitivity tests
    (:mod:`repro.check.mutants`); leave ``None`` for the faithful
    protocol.
    """
    params = params or SimParams.scaled()
    machine = Machine(module, quantum=quantum)
    for func_name, args in spawns:
        machine.spawn(func_name, args)
    system = CapriSystem(
        params,
        num_cores=max(1, len(spawns)),
        threshold=threshold,
        persistence=persistence,
        mutations=mutations,
    )
    system.nvm.image.update(module.initial_data)
    return machine, system


def run_workload(
    module: Module,
    spawns: Sequence[Tuple[str, Sequence[int]]],
    params: Optional[SimParams] = None,
    threshold: int = 256,
    persistence: bool = True,
    quantum: int = 32,
    max_steps: int = 50_000_000,
    check: bool = False,
) -> Tuple[SystemMetrics, Machine]:
    """Execute ``module`` under the simulated system; returns metrics+machine.

    ``spawns`` lists (function name, args) per hart/core.

    With ``check=True`` the online persistency checker
    (:mod:`repro.check`) rides along and raises
    :class:`repro.check.PersistencyViolationError` if any persistent-
    domain transition violates the region-persistency model.  Requires
    ``persistence=True``.
    """
    machine, system = build_system(
        module,
        spawns,
        params=params,
        threshold=threshold,
        persistence=persistence,
        quantum=quantum,
    )
    return run_system(machine, system, max_steps=max_steps, check=check), machine


def run_system(
    machine: Machine,
    system: "CapriSystem",
    max_steps: int = 50_000_000,
    check: bool = False,
) -> SystemMetrics:
    """Run a :func:`build_system` pair to the end; returns the metrics.

    The body of :func:`run_workload`, for callers that read the system
    afterwards (the sweep's simulation memo reads its back-end peak).
    """
    if check:
        from repro.check.checker import PersistencyChecker
        from repro.isa.trace import TeeObserver

        checker = PersistencyChecker.attach(system)
        machine.run(TeeObserver(checker, system), max_steps=max_steps)
        metrics = system.finish()
        checker.finalize(system)
        checker.report.raise_if_violated()
        return metrics
    machine.run(system, max_steps=max_steps)
    return system.finish()

"""Power-failure injection and non-volatile state capture.

A crash is injected at a chosen event index: the :class:`CrashInjector`
wraps the :class:`~repro.arch.system.CapriSystem` observer, delegates
events, and raises :class:`PowerFailure` when the target event is reached
— *before* the persistence engine processes it, modelling power dying
mid-operation.

What survives the failure (the persistent domain of Sections 5.2/6.1):

* the NVM durable image (including everything in the WPQ),
* both proxy buffers' contents — front-end, in-flight, and back-end
  entries, with their undo/redo data and valid bits,
* the staged register-checkpoint values attached to boundary entries.

Volatile state — register files, L1/L2, the DRAM cache, and the
*unattached* current-region checkpoint staging — is discarded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.nvm import WpqRecord
from repro.arch.proxy import ProxyEntry
from repro.arch.system import CapriSystem, build_system
from repro.ir.module import Module
from repro.isa.machine import Machine
from repro.isa.trace import Observer


class PowerFailure(Exception):
    """Raised by the injector at the planned crash point."""

    def __init__(self, state: "CrashState") -> None:
        super().__init__("injected power failure")
        self.state = state


@dataclass
class CrashPlan:
    """When to crash: after ``at_event`` observer events have completed."""

    at_event: int

    def __post_init__(self) -> None:
        if self.at_event < 0:
            raise ValueError("at_event must be >= 0")


@dataclass
class CrashState:
    """Snapshot of the persistent domain at the moment of power failure."""

    nvm_image: Dict[int, int]
    #: per-core surviving proxy entries, oldest first (back-end + front-end).
    core_entries: List[List[ProxyEntry]]
    num_cores: int
    #: durable per-core PC checkpoints: core -> (continuation, region_id).
    pc_checkpoints: Dict[int, tuple] = field(default_factory=dict)
    #: surviving write-pending-queue journal, oldest first (the WPQ is in
    #: the persistent domain — recovery replays it to heal a partially
    #: drained array; see repro.fault.models).
    wpq: List[WpqRecord] = field(default_factory=list)
    #: per-slot integrity words of the register-checkpoint array.
    ckpt_shadow: Dict[int, int] = field(default_factory=dict)

    def clone(self) -> "CrashState":
        """A copy whose containers (image, entry lists, WPQ journal, PC
        checkpoints, shadow words) are its own and whose proxy entries
        are shared.  Entries are sealed (:class:`ProxyEntry`): recovery
        only reassigns ``core_entries`` and fault models swap a tampered
        copy into the clone's list, so one capture can seed many
        recoveries and injections without either seeing the other."""
        return CrashState(
            nvm_image=dict(self.nvm_image),
            core_entries=[list(entries) for entries in self.core_entries],
            num_cores=self.num_cores,
            pc_checkpoints=dict(self.pc_checkpoints),
            wpq=list(self.wpq),
            ckpt_shadow=dict(self.ckpt_shadow),
        )


def capture_crash_state(system: CapriSystem) -> CrashState:
    """Snapshot the persistent domain of a (possibly mid-run) system.

    The containers are copied, so post-capture execution cannot change
    which entries or words the snapshot holds.  The proxy entries
    themselves are the live objects: they are sealed (see
    :class:`ProxyEntry`), so the pipeline's later merges and valid-bit
    scans swap in new entries rather than editing the ones captured here.

    Capture is where integrity metadata comes into being: the write
    path computes no checksum, and every fault model tampers with a
    snapshot this function produced.  So before returning it fixes and
    seals the checksum of every entry held, fixes the checksum of every
    WPQ record, and brings the checkpoint-slot shadow words up to date
    from the values written.  Each is computed once — a later capture
    sharing the entry, record or slot write finds it done.
    """
    if system.persist is None:
        raise ValueError("cannot capture crash state of a volatile system")
    core_entries = [
        pipe.entries_in_order() for pipe in system.persist.pipelines
    ]
    for entries in core_entries:
        for entry in entries:
            entry.intact  # a first read fixes the checksum and seals it
    wpq = list(system.nvm.wpq)
    for rec in wpq:
        rec.checksum  # a first read fixes the checksum
    return CrashState(
        nvm_image=dict(system.nvm.image),
        core_entries=core_entries,
        num_cores=len(core_entries),
        pc_checkpoints=dict(system.nvm.pc_checkpoints),
        wpq=wpq,
        ckpt_shadow=dict(system.nvm.ckpt_shadow),
    )


class CrashInjector(Observer):
    """Observer wrapper that fails power after N delegated events.

    ``target`` is the observer that receives delegated events; it
    defaults to ``system`` but may be a :class:`~repro.isa.trace.
    TeeObserver` fanning out to the persistency checker *and* the
    system.  The crash check runs before delegation, so at the crash
    point *no* downstream observer — system or checker — sees the event:
    the checker's shadow model and the captured hardware state stay in
    lock-step.

    The same injector interrupts *recovery*: pass ``system=None`` and a
    ``capture`` callable returning the persistent domain at the moment
    of failure (for :func:`repro.arch.recovery.run_recovery`, the live
    :class:`CrashState`'s ``clone`` method — recovery steps mutate the
    domain in place, and the crash fires before the fatal step applies).
    """

    def __init__(
        self,
        system: Optional[CapriSystem],
        plan: CrashPlan,
        target: Optional[Observer] = None,
        capture=None,
    ) -> None:
        if system is None and capture is None:
            raise ValueError("CrashInjector needs a system or a capture callable")
        self.system = system
        if target is not None:
            self.target = target
        elif system is not None:
            self.target = system
        else:
            self.target = Observer()  # recovery steps: no downstream consumer
        self.plan = plan
        self.capture = (
            capture
            if capture is not None
            else lambda: capture_crash_state(system)
        )
        self.events_seen = 0
        self.fired = False

    def _tick(self) -> None:
        if not self.fired and self.events_seen >= self.plan.at_event:
            self.fired = True
            raise PowerFailure(self.capture())
        self.events_seen += 1

    # Delegation: the crash check runs before the target sees the event.

    def on_retire(self, core, kind):
        self._tick()
        self.target.on_retire(core, kind)

    def on_load(self, core, addr, value):
        self._tick()
        self.target.on_load(core, addr, value)

    def on_store(self, core, addr, value, old):
        self._tick()
        self.target.on_store(core, addr, value, old)

    def on_ckpt(self, core, reg, value, addr):
        self._tick()
        self.target.on_ckpt(core, reg, value, addr)

    def on_boundary(self, core, region_id, continuation):
        self._tick()
        self.target.on_boundary(core, region_id, continuation)

    def on_fence(self, core):
        self._tick()
        self.target.on_fence(core)

    def on_atomic(self, core, addr, value, old):
        self._tick()
        self.target.on_atomic(core, addr, value, old)

    def on_io(self, core, port, value):
        self._tick()
        self.target.on_io(core, port, value)

    def on_halt(self, core):
        self._tick()
        self.target.on_halt(core)


def run_until_crash(
    module: Module,
    spawns: Sequence[Tuple[str, Sequence[int]]],
    plan: CrashPlan,
    params=None,
    threshold: int = 256,
    quantum: int = 32,
    max_steps: int = 50_000_000,
) -> Optional[CrashState]:
    """Run a workload with a crash plan.

    Returns the captured :class:`CrashState`, or ``None`` if the program
    finished before the crash point (the plan's event index was past the
    end of execution).
    """
    machine, system = build_system(
        module, spawns, params=params, threshold=threshold, quantum=quantum
    )
    return run_built_until_crash(machine, system, plan, max_steps=max_steps)


def run_built_until_crash(
    machine: Machine,
    system: CapriSystem,
    plan: CrashPlan,
    max_steps: int = 50_000_000,
    extra_observer: Optional[Observer] = None,
) -> Optional[CrashState]:
    """Drive an already-built (machine, system) pair to the crash point.

    ``extra_observer`` (e.g. the persistency checker) is teed *before*
    the system, but still behind the injector — at the crash point
    neither it nor the system sees the fatal event.  Returns the
    captured state, or ``None`` if the program finished first.
    """
    from repro.isa.trace import TeeObserver

    target: Observer = system
    if extra_observer is not None:
        target = TeeObserver(extra_observer, system)
    injector = CrashInjector(system, plan, target=target)
    try:
        machine.run(injector, max_steps=max_steps)
    except PowerFailure as pf:
        return pf.state
    return None

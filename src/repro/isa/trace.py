"""Event stream between the functional machine and its observers.

Rather than materialising a trace list (memory-hungry for long runs), the
machine invokes observer callbacks as it retires instructions.  The
callback set mirrors what the Capri architecture reacts to:

* every retired instruction (pipeline occupancy costs),
* loads with the address and the word read (the stale-read check's
  reference value), and stores with the address and old/new values —
  the persistence engine builds undo+redo proxy entries from these,
* checkpoint stores (routed to the front-end register-file storage,
  Section 5.2.1),
* region boundaries carrying the recovery continuation,
* fences/atomics (persist-order points), and hart halts.

Event-ordering contract
-----------------------
Observers (the Capri system, the persistency checker, the crash
injector) may rely on the following, pinned by
``tests/isa/test_trace_contract.py``:

1. **Synchronous delivery.** The machine applies an instruction's
   architectural effect and then invokes the observer callback before
   executing the next instruction of that hart.  A load's ``value`` is
   the word the load read, and a store's ``old`` value is the
   architectural value the store overwrote.  The arguments are the whole
   of what the machine tells an observer: no observer holds a reference
   to the machine, so a recorded stream can stand in for it.
   *Retire runs* are the one deferral: an observer whose class overrides
   :meth:`Observer.on_retire_run` gets a hart's retires buffered and
   delivered as one ``on_retire_run`` call before that hart's next other
   callback (load, store, checkpoint, boundary, call-argument
   checkpoint, atomic, fence, I/O or halt) and at the end of each
   quantum.  Expanded, the calls are exactly the per-instruction stream:
   every retire arrives once, in order, and before the event of its own
   instruction.  Every other observer gets ``on_retire`` per
   instruction.
2. **Per-core program order.** For a fixed core, ``on_store`` /
   ``on_ckpt`` / ``on_boundary`` / ``on_atomic`` arrive exactly in that
   hart's dynamic instruction order.  Events of *different* cores
   interleave at quantum granularity with no cross-core ordering
   promise.
3. **Spawn prologue.** A hart's first events are its spawn-argument
   ``on_ckpt`` calls followed by an implicit ``on_boundary`` with
   ``region_id == -1`` — before any instruction of the hart retires.
4. **Boundary-before-drain.** ``on_boundary(core, region, cont)`` is
   delivered (and hence the persistence engine emits the region's
   boundary entry) *before* any of that region's redo data may drain to
   NVM: phase-2 drain is enabled only by a boundary entry reaching the
   back-end buffer, which requires the boundary event first.
5. **One tick per callback.** Crash indices (``CrashPlan.at_event``)
   and golden-run event counts share the same universe: every callback,
   including ``on_retire`` and ``on_halt``, counts as one event
   (:class:`TickCountingObserver`).  Ticks count the expanded stream: a
   retire run is one tick per retire it carries, so batching moves no
   crash index.  Ticks are defined for observed runs only.  A run
   without an observer (``Machine.run()`` with none) delivers nothing,
   and may dispatch nothing at all: it skips ``on_retire`` and the
   boundary continuations, runs compiled blocks with no callback in
   them, and sends what it still dispatches to a no-op.  Any observer
   that is passed, a plain :class:`Observer` included, gets every
   callback.
"""

from __future__ import annotations

from typing import Any, List, Tuple

# Event kind tags used by CollectingObserver tuples.
EV_RETIRE = "retire"
EV_LOAD = "load"
EV_STORE = "store"
EV_CKPT = "ckpt"
EV_BOUNDARY = "boundary"
EV_FENCE = "fence"
EV_ATOMIC = "atomic"
EV_HALT = "halt"
EV_IO = "io"


class Observer:
    """Base observer; all callbacks default to no-ops.

    ``core`` is the hart/core id.  ``kind`` in :meth:`on_retire` is the
    instruction class name (e.g. ``"BinOp"``), letting timing models assign
    per-class costs without re-dispatching on types.
    """

    def on_retire(self, core: int, kind: str) -> None:  # noqa: D401
        """Called once per retired instruction, before specific callbacks."""

    def on_retire_run(self, core: int, kinds: List[str]) -> None:
        """A run of retired instructions of ``core``, in program order.

        The default delivers ``on_retire(core, kind)`` once per kind.  An
        observer whose class overrides this method receives its retires
        in runs instead (contract item 1).  ``kinds`` is the machine's
        buffer: it is valid only during the call and is emptied after it,
        and the method must not raise.
        """
        on_retire = self.on_retire
        for kind in kinds:
            on_retire(core, kind)

    def on_load(self, core: int, addr: int, value: int) -> None:
        """A word load from ``addr`` retired, reading ``value``."""

    def on_store(self, core: int, addr: int, value: int, old: int) -> None:
        """A word store retired: ``addr`` changed ``old`` -> ``value``."""

    def on_ckpt(self, core: int, reg: int, value: int, addr: int) -> None:
        """A register-checkpointing store retired (register ``reg``)."""

    def on_boundary(self, core: int, region_id: int, continuation: Any) -> None:
        """A region boundary retired; ``continuation`` is the resume point."""

    def on_fence(self, core: int) -> None:
        """A full memory fence retired."""

    def on_atomic(self, core: int, addr: int, value: int, old: int) -> None:
        """An atomic RMW retired (also reported as a store for persistence)."""

    def on_halt(self, core: int) -> None:
        """The hart halted (end of its program)."""

    def on_io(self, core: int, port: int, value: int) -> None:
        """An I/O write left the persistence domain (Section 3.3)."""


class CollectingObserver(Observer):
    """Records every event as a tuple; for tests and small demos only."""

    def __init__(self) -> None:
        self.events: List[Tuple[Any, ...]] = []

    def on_retire(self, core, kind):
        self.events.append((EV_RETIRE, core, kind))

    def on_load(self, core, addr, value):
        self.events.append((EV_LOAD, core, addr, value))

    def on_store(self, core, addr, value, old):
        self.events.append((EV_STORE, core, addr, value, old))

    def on_ckpt(self, core, reg, value, addr):
        self.events.append((EV_CKPT, core, reg, value, addr))

    def on_boundary(self, core, region_id, continuation):
        self.events.append((EV_BOUNDARY, core, region_id, continuation))

    def on_fence(self, core):
        self.events.append((EV_FENCE, core))

    def on_atomic(self, core, addr, value, old):
        self.events.append((EV_ATOMIC, core, addr, value, old))

    def on_halt(self, core):
        self.events.append((EV_HALT, core))

    def on_io(self, core, port, value):
        self.events.append((EV_IO, core, port, value))

    def of_kind(self, kind: str) -> List[Tuple[Any, ...]]:
        return [e for e in self.events if e[0] == kind]


class CountingObserver(Observer):
    """Cheap aggregate counters; used by the compiler-stats harness."""

    def __init__(self) -> None:
        self.retired = 0
        self.loads = 0
        self.stores = 0
        self.ckpts = 0
        self.boundaries = 0
        self.fences = 0
        self.atomics = 0
        self.io_writes = 0

    def on_retire(self, core, kind):
        self.retired += 1

    def on_load(self, core, addr, value):
        self.loads += 1

    def on_store(self, core, addr, value, old):
        self.stores += 1

    def on_ckpt(self, core, reg, value, addr):
        self.ckpts += 1

    def on_boundary(self, core, region_id, continuation):
        self.boundaries += 1

    def on_fence(self, core):
        self.fences += 1

    def on_atomic(self, core, addr, value, old):
        self.atomics += 1

    def on_io(self, core, port, value):
        self.io_writes += 1


class TickCountingObserver(Observer):
    """Counts every delivered callback — one tick per event.

    This is the crash-point universe: :class:`repro.arch.crash.CrashInjector`
    ticks once per delegated callback, so a crash-free run under this
    observer yields exactly the set of valid ``CrashPlan.at_event``
    indices.
    """

    def __init__(self) -> None:
        self.events = 0

    def on_retire(self, core, kind):
        self.events += 1

    def on_load(self, core, addr, value):
        self.events += 1

    def on_store(self, core, addr, value, old):
        self.events += 1

    def on_ckpt(self, core, reg, value, addr):
        self.events += 1

    def on_boundary(self, core, region_id, continuation):
        self.events += 1

    def on_fence(self, core):
        self.events += 1

    def on_atomic(self, core, addr, value, old):
        self.events += 1

    def on_halt(self, core):
        self.events += 1

    def on_io(self, core, port, value):
        self.events += 1


class TeeObserver(Observer):
    """Fan one event stream out to several observers, in order.

    Each callback is delivered to every attached observer before the
    machine proceeds; observers listed first see the event first.  The
    persistency checker rides along the timing system this way —
    ``TeeObserver(checker, system)`` lets the checker record the
    architectural event *before* the system's persistence engine reacts
    to it (so proxy-pipeline hook callbacks always find the checker's
    model already up to date).
    """

    def __init__(self, *observers: Observer) -> None:
        self.observers = tuple(observers)

    def on_retire(self, core, kind):
        for o in self.observers:
            o.on_retire(core, kind)

    def on_load(self, core, addr, value):
        for o in self.observers:
            o.on_load(core, addr, value)

    def on_store(self, core, addr, value, old):
        for o in self.observers:
            o.on_store(core, addr, value, old)

    def on_ckpt(self, core, reg, value, addr):
        for o in self.observers:
            o.on_ckpt(core, reg, value, addr)

    def on_boundary(self, core, region_id, continuation):
        for o in self.observers:
            o.on_boundary(core, region_id, continuation)

    def on_fence(self, core):
        for o in self.observers:
            o.on_fence(core)

    def on_atomic(self, core, addr, value, old):
        for o in self.observers:
            o.on_atomic(core, addr, value, old)

    def on_halt(self, core):
        for o in self.observers:
            o.on_halt(core)

    def on_io(self, core, port, value):
        for o in self.observers:
            o.on_io(core, port, value)

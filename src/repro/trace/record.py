"""Columnar trace capture: one golden run, recorded for replay.

The functional machine is architecturally exact — the Capri system never
changes what programs compute — so one interpreted run fixes the entire
observer event stream (the event-ordering contract in
:mod:`repro.isa.trace`).  :class:`TraceRecorder` records that stream into
an :class:`ExecTrace`: parallel ``array`` columns of (kind, core, a, b,
c) rather than per-event objects, the structure-of-arrays layout that
keeps a multi-million-event trace a few dozen MB and lets
:meth:`ExecTrace.deliver` re-drive any observer — the Capri system, the
persistency checker, a crash injector — in a tight batched loop with no
IR re-interpretation.

Column semantics per kind (unused columns hold 0):

==========  ==============  ==============  ==============
kind        ``a``           ``b``           ``c``
==========  ==============  ==============  ==============
retire      name-table idx
load        addr            value
store       addr            value           old
ckpt        reg             value           addr
boundary    region id       cont-table idx
fence
atomic      addr            value           old
halt
io          port            value
==========  ==============  ==============  ==============

A load event carries the word it read, and the ``b`` column records it,
so the recorded stream holds everything
:class:`~repro.arch.system.CapriSystem` consumes (the stale-read check
compares that word with an NVM fill) and replay needs no machine at all.
Boundary continuations are rare structured objects and live in a side
table.

The trace also carries everything a fault campaign derives from the
golden run: the initial durable image, the final memory, the I/O log,
and, as its length, the total event count; the cores that wrote each
address come from the columns (:meth:`ExecTrace.writers`).  So the crash
source's golden result, its crash points and its replay system all come
from the trace alone.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.ir.module import Module
from repro.isa.machine import Machine
from repro.isa.trace import (
    EV_ATOMIC,
    EV_BOUNDARY,
    EV_CKPT,
    EV_FENCE,
    EV_HALT,
    EV_IO,
    EV_LOAD,
    EV_RETIRE,
    EV_STORE,
    Observer,
)

# Integer kind tags for the ``kinds`` column; :meth:`ExecTrace.event`
# maps each back to the string tag of :mod:`repro.isa.trace`.
K_RETIRE = 0
K_LOAD = 1
K_STORE = 2
K_CKPT = 3
K_BOUNDARY = 4
K_FENCE = 5
K_ATOMIC = 6
K_HALT = 7
K_IO = 8


class ExecTrace:
    """One recorded execution, in columnar form."""

    __slots__ = (
        "kinds",
        "cores",
        "a",
        "b",
        "c",
        "retire_names",
        "continuations",
        "num_cores",
        "initial_data",
        "final_memory",
        "io_log",
    )

    def __init__(self) -> None:
        self.kinds = array("B")
        self.cores = array("i")
        # Signed 64-bit, matching repro.ir.values.wrap_word's word domain.
        self.a = array("q")
        self.b = array("q")
        self.c = array("q")
        #: interned instruction-class names for retire events.
        self.retire_names: List[str] = []
        #: boundary continuations, in boundary-event order of appearance.
        self.continuations: List[Any] = []
        self.num_cores = 1
        #: the module's initial durable image (seeds replay NVM).
        self.initial_data: Dict[int, int] = {}
        #: the final memory, checkpoint log area included: the
        #: differential oracle's golden image.
        self.final_memory: Dict[int, int] = {}
        #: (core, port, value) in issue order.
        self.io_log: List[Tuple[int, int, int]] = []

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.kinds)

    def event(self, i: int) -> Tuple[Any, ...]:
        """Event ``i`` as the tuple ``CollectingObserver`` would record."""
        k, core = self.kinds[i], self.cores[i]
        a, b, c = self.a[i], self.b[i], self.c[i]
        if k == K_RETIRE:
            return (EV_RETIRE, core, self.retire_names[a])
        if k == K_LOAD:
            return (EV_LOAD, core, a, b)
        if k == K_STORE:
            return (EV_STORE, core, a, b, c)
        if k == K_CKPT:
            return (EV_CKPT, core, a, b, c)
        if k == K_BOUNDARY:
            return (EV_BOUNDARY, core, a, self.continuations[b])
        if k == K_FENCE:
            return (EV_FENCE, core)
        if k == K_ATOMIC:
            return (EV_ATOMIC, core, a, b, c)
        if k == K_HALT:
            return (EV_HALT, core)
        if k == K_IO:
            return (EV_IO, core, a, b)
        raise ValueError(f"unknown kind tag {k} at event {i}")

    def io_positions(self) -> List[int]:
        """Event indices of the I/O events, in order (aligned with
        :attr:`io_log`)."""
        return [i for i, k in enumerate(self.kinds) if k == K_IO]

    def writers(self) -> Dict[int, FrozenSet[int]]:
        """The cores whose stores or atomics wrote each address."""
        found: Dict[int, set] = {}
        for kind, core, addr in zip(self.kinds, self.cores, self.a):
            if kind == K_STORE or kind == K_ATOMIC:
                found.setdefault(addr, set()).add(core)
        return {addr: frozenset(cores) for addr, cores in found.items()}

    # -- replay --------------------------------------------------------------

    def deliver(
        self,
        observer: Observer,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> int:
        """Drive ``observer`` with events ``[start, stop)``; returns ``stop``.

        ``observer`` may be any :class:`~repro.isa.trace.Observer` chain —
        a :class:`~repro.arch.system.CapriSystem`, a ``TeeObserver``
        fanning out to the persistency checker, a
        :class:`~repro.arch.crash.CrashInjector`.  Each callback gets
        exactly the arguments the machine passed, a load's word included.

        This is the subsystem's hot loop: columns and callbacks are bound
        to locals once, then dispatched per event with no object
        allocation.
        """
        kinds, cores = self.kinds, self.cores
        col_a, col_b, col_c = self.a, self.b, self.c
        names, conts = self.retire_names, self.continuations
        if stop is None:
            stop = len(kinds)
        on_retire = observer.on_retire
        on_load = observer.on_load
        on_store = observer.on_store
        on_ckpt = observer.on_ckpt
        on_boundary = observer.on_boundary
        on_fence = observer.on_fence
        on_atomic = observer.on_atomic
        on_halt = observer.on_halt
        on_io = observer.on_io
        for i in range(start, stop):
            k = kinds[i]
            core = cores[i]
            if k == K_RETIRE:
                on_retire(core, names[col_a[i]])
            elif k == K_LOAD:
                on_load(core, col_a[i], col_b[i])
            elif k == K_STORE:
                on_store(core, col_a[i], col_b[i], col_c[i])
            elif k == K_CKPT:
                on_ckpt(core, col_a[i], col_b[i], col_c[i])
            elif k == K_BOUNDARY:
                on_boundary(core, col_a[i], conts[col_b[i]])
            elif k == K_FENCE:
                on_fence(core)
            elif k == K_ATOMIC:
                on_atomic(core, col_a[i], col_b[i], col_c[i])
            elif k == K_HALT:
                on_halt(core)
            else:  # K_IO
                on_io(core, col_a[i], col_b[i])
        return stop


class TraceRecorder(Observer):
    """Observer that records one machine run into an :class:`ExecTrace`.

    It records each callback's arguments and nothing else, so it needs no
    machine: a load's word arrives with the event.
    """

    def __init__(self, trace: Optional[ExecTrace] = None) -> None:
        self.trace = trace if trace is not None else ExecTrace()
        self._name_index: Dict[str, int] = {}

    def _push(self, kind: int, core: int, a: int = 0, b: int = 0, c: int = 0) -> None:
        t = self.trace
        t.kinds.append(kind)
        t.cores.append(core)
        t.a.append(a)
        t.b.append(b)
        t.c.append(c)

    def on_retire(self, core, kind):
        idx = self._name_index.get(kind)
        if idx is None:
            idx = self._name_index[kind] = len(self.trace.retire_names)
            self.trace.retire_names.append(kind)
        self._push(K_RETIRE, core, idx)

    def on_load(self, core, addr, value):
        self._push(K_LOAD, core, addr, value)

    def on_store(self, core, addr, value, old):
        self._push(K_STORE, core, addr, value, old)

    def on_ckpt(self, core, reg, value, addr):
        self._push(K_CKPT, core, reg, value, addr)

    def on_boundary(self, core, region_id, continuation):
        t = self.trace
        self._push(K_BOUNDARY, core, region_id, len(t.continuations))
        t.continuations.append(continuation)

    def on_fence(self, core):
        self._push(K_FENCE, core)

    def on_atomic(self, core, addr, value, old):
        self._push(K_ATOMIC, core, addr, value, old)

    def on_halt(self, core):
        self._push(K_HALT, core)

    def on_io(self, core, port, value):
        self._push(K_IO, core, port, value)


def capture_trace(
    module: Module,
    spawns: Sequence[Tuple[str, Sequence[int]]],
    quantum: int = 32,
    max_steps: int = 50_000_000,
) -> ExecTrace:
    """Run ``module`` crash-free on the functional machine, recording.

    The capture run costs one *functional* pass (interpreter dispatch
    only, no timing/persistence simulation) — the same price as
    :func:`repro.fault.oracle.golden_run`, which this subsumes: the
    returned trace carries the golden memory image, I/O log, and event
    count.
    """
    machine = Machine(module, quantum=quantum)
    for func_name, args in spawns:
        machine.spawn(func_name, args)
    recorder = TraceRecorder()
    machine.run(recorder, max_steps=max_steps)
    trace = recorder.trace
    trace.num_cores = max(1, len(spawns))
    trace.initial_data = dict(module.initial_data)
    trace.final_memory = dict(machine.memory)
    trace.io_log = list(machine.io_log)
    return trace

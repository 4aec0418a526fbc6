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
golden run: the initial durable image, the final data image (checkpoint
log area masked), the I/O log, and the total event count — so golden
results, crash plans, and replay systems all come from the trace alone.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.ir.module import Module, is_ckpt_addr
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

# Integer kind tags for the ``kinds`` column.  Order is part of the codec
# format — append only.
K_RETIRE = 0
K_LOAD = 1
K_STORE = 2
K_CKPT = 3
K_BOUNDARY = 4
K_FENCE = 5
K_ATOMIC = 6
K_HALT = 7
K_IO = 8

#: kind tag -> the string tag :class:`~repro.isa.trace.CollectingObserver`
#: uses, so :meth:`ExecTrace.event` round-trips to the same tuples.
KIND_TAGS = (
    EV_RETIRE,
    EV_LOAD,
    EV_STORE,
    EV_CKPT,
    EV_BOUNDARY,
    EV_FENCE,
    EV_ATOMIC,
    EV_HALT,
    EV_IO,
)


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
        "final_data",
        "io_log",
        "total_retired",
        "meta",
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
        #: final data-segment memory, checkpoint log area masked — the
        #: differential oracle's golden image.
        self.final_data: Dict[int, int] = {}
        #: (core, port, value) in issue order.
        self.io_log: List[Tuple[int, int, int]] = []
        self.total_retired = 0
        #: free-form provenance (workload, scale, quantum, fingerprint…).
        self.meta: Dict[str, Any] = {}

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def total_events(self) -> int:
        """Event count in the crash-index universe (one per callback)."""
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
    meta: Optional[Dict[str, Any]] = None,
) -> ExecTrace:
    """Run ``module`` crash-free on the functional machine, recording.

    The capture run costs one *functional* pass (interpreter dispatch
    only, no timing/persistence simulation) — the same price as
    :func:`repro.fault.oracle.golden_run`, which this subsumes: the
    returned trace carries the golden data image, I/O log, and event
    count.
    """
    from repro.deps import touch

    touch("trace")  # usage-probe dependency recording
    machine = Machine(module, quantum=quantum)
    for func_name, args in spawns:
        machine.spawn(func_name, args)
    recorder = TraceRecorder()
    machine.run(recorder, max_steps=max_steps)
    trace = recorder.trace
    trace.num_cores = max(1, len(spawns))
    trace.initial_data = dict(module.initial_data)
    trace.final_data = {
        addr: value
        for addr, value in machine.memory.items()
        if not is_ckpt_addr(addr)
    }
    trace.io_log = list(machine.io_log)
    trace.total_retired = machine.total_retired
    trace.meta = dict(meta or {})
    return trace


# ---------------------------------------------------------------------------
# functional fingerprints: which runs share one trace
# ---------------------------------------------------------------------------

#: Bump when the fingerprint token changes shape.
#: 2: dropped the embedded code hash — validity is decided per cache
#: entry from recorded subsystem deps, mirroring RunSpec fingerprints.
_TRACE_FINGERPRINT_SCHEMA = 2


def trace_fingerprint(spec) -> str:
    """Content address of a spec's *functional* execution.

    Narrower than :meth:`repro.api.RunSpec.fingerprint`: only the fields
    that shape the instruction stream participate — workload, scale,
    threads, the effective compile config (which folds in the threshold:
    region formation is compile-time), quantum (hart interleaving), and
    ``max_steps``.  ``SimParams``, simulation-side persistence,
    ``check``, and ``seed`` are absent by construction: campaigns that
    differ only in those share one captured trace.  Code validity is not
    part of the key — stored traces carry their subsystem dependency
    hashes and the cache validates those (:mod:`repro.deps`).
    """
    from repro.api import _canon

    token = {
        "schema": _TRACE_FINGERPRINT_SCHEMA,
        "workload": spec.workload,
        "scale": float(spec.scale),
        "threads": spec.threads,
        "config": _canon(spec.effective_config),
        "quantum": spec.quantum,
        "max_steps": spec.max_steps,
    }
    blob = json.dumps(token, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_spec_trace(
    spec, store
) -> Tuple[ExecTrace, Optional[Tuple[Module, Any]]]:
    """The spec's trace from ``store``, or captured and stored on a miss.

    Returns ``(trace, program)``: ``program`` is the ``(module, spawns)``
    a cold capture built (:func:`repro.api.build_spec`), and ``None`` on a
    warm hit, which builds nothing.  ``store=None`` always captures.

    A cold capture's build, compile and capture all run under one
    :class:`repro.deps.UsageProbe`, and the probed subsystem set lands in
    ``trace.meta["deps"]`` — the codec stores it with the serialised
    trace so the cache can invalidate the entry precisely.
    """
    from repro.api import build_spec
    from repro.deps import UsageProbe
    from repro.trace.codec import load_trace, store_trace

    fingerprint = trace_fingerprint(spec)
    trace = load_trace(store, fingerprint)
    if trace is not None:
        return trace, None
    with UsageProbe() as probe:
        module, spawns = build_spec(spec)
        trace = capture_trace(
            module,
            spawns,
            quantum=spec.quantum,
            max_steps=spec.max_steps,
            meta={
                "workload": spec.workload,
                "scale": float(spec.scale),
                "threads": spec.threads,
                "quantum": spec.quantum,
                "fingerprint": fingerprint,
            },
        )
    trace.meta["deps"] = list(probe.subsystems())
    store_trace(store, fingerprint, trace)
    return trace, (module, spawns)


def capture_spec_trace(spec) -> ExecTrace:
    """Capture a :class:`repro.api.RunSpec`'s trace from a fresh build,
    bypassing the cache."""
    return load_spec_trace(spec, None)[0]

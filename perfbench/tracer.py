"""Span tracing and call taps around the public functions of each layer.

Nothing here edits ``src/``: the benchmark swaps a timing wrapper in for
each target function or method, runs a workload, and puts the original
back.  A name is patched *where it is bound* — on its defining module or
class, and in every loaded ``repro`` module that imported it by name
(``from repro.arch.recovery import recover``) — so a call through any
import site is seen.  :meth:`Patcher.restore` undoes every patch, and
also any binding a module imported after patching picked up.

:class:`Tracer` records one span per wrapped call (layer id, parent span,
start and end in ``perf_counter_ns``) into flat arrays kept in memory;
:func:`layer_stats` turns them into per-layer call counts and self times
(a span's duration minus its direct children's durations).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (layer, module, attribute) — attribute ``"Class.method"`` for methods.
#: Layers are named after the ``src/repro`` modules they live in.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads", "repro.workloads.registry", "Workload.build"),
    ("compiler", "repro.compiler.pipeline", "CapriCompiler.compile"),
    ("isa", "repro.isa.machine", "Machine.run"),
    ("arch.mem", "repro.arch.memctrl", "MemoryHierarchy.load"),
    ("arch.mem", "repro.arch.memctrl", "MemoryHierarchy.store"),
    ("arch.persist", "repro.arch.persistence", "PersistenceEngine.on_store"),
    ("arch.persist", "repro.arch.persistence", "PersistenceEngine.on_ckpt"),
    ("arch.persist", "repro.arch.persistence", "PersistenceEngine.on_boundary"),
    ("arch.persist", "repro.arch.persistence", "PersistenceEngine.drain_all"),
    ("arch.nvm", "repro.arch.nvm", "NVMain.read_word"),
    ("arch.nvm", "repro.arch.nvm", "NVMain.writeback_words"),
    ("arch.nvm", "repro.arch.nvm", "NVMain.redo_write"),
    ("arch.nvm", "repro.arch.nvm", "NVMain.ckpt_write"),
    ("arch.crash", "repro.arch.crash", "capture_crash_state"),
    ("arch.recovery", "repro.arch.recovery", "recover"),
    ("arch.recovery", "repro.arch.recovery", "run_recovery"),
    ("arch.resume", "repro.arch.recovery", "resume_and_finish"),
    ("trace", "repro.trace.record", "capture_trace"),
    ("trace", "repro.trace.record", "ExecTrace.deliver"),
    ("check", "repro.check.checker", "PersistencyChecker.attach"),
    ("check", "repro.check.checker", "PersistencyChecker.check_crash_state"),
    ("check", "repro.check.checker", "PersistencyChecker.check_recovered"),
    ("check", "repro.check.checker", "PersistencyChecker.finalize"),
    ("fault", "repro.fault.models", "apply_faults"),
    ("fault", "repro.fault.oracle", "differential_check"),
    ("litmus", "repro.litmus.oracle", "oracle_snapshots"),
    ("litmus", "repro.litmus.matrix", "_judge_point"),
    ("sweep", "repro.sweep.cache", "ResultCache.get"),
    ("sweep", "repro.sweep.cache", "ResultCache.put"),
    ("deps", "repro.deps.probe", "UsageProbe.__enter__"),
    ("deps", "repro.deps.probe", "UsageProbe.__exit__"),
    ("deps", "repro.deps.fingerprint", "subsystem_hashes"),
)

#: Every layer, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in LAYER_TARGETS))

#: ``hook(args, result, exc)`` — called after a wrapped call returns
#: (``exc`` is ``None``) or raises (``result`` is ``None``).
Hook = Callable[[tuple, object, Optional[BaseException]], None]


def target_name(module: str, attr: str) -> str:
    return f"{module}:{attr}"


def _is_repro_module(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


class Patcher:
    """Swap wrappers in for functions and methods; put originals back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original function)
        self._wrappers: Dict[int, Tuple[object, object]] = {}

    def patch(
        self, module: str, attr: str, make_wrapper: Callable[[Callable], Callable]
    ) -> None:
        """Replace ``module:attr`` by ``make_wrapper(original)``."""
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, name = attr.split(".", 1)
            holder: object = getattr(mod, cls_name)
            raw = vars(holder)[name]
        else:
            holder, name = mod, attr
            raw = getattr(mod, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        wrapper = make_wrapper(fn)
        self._wrappers[id(wrapper)] = (wrapper, fn)
        self._set(holder, name, kind(wrapper) if kind is not None else wrapper, raw)
        if holder is mod:
            # Rebind every by-name import of the function.
            for mod_name, other in list(sys.modules.items()):
                if other is None or other is mod or not _is_repro_module(mod_name):
                    continue
                for key, value in list(vars(other).items()):
                    if value is fn:
                        self._set(other, key, wrapper, fn)

    def _set(self, holder: object, name: str, new: object, old: object) -> None:
        setattr(holder, name, new)
        self._undo.append((holder, name, old))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            holder, name, old = self._undo.pop()
            setattr(holder, name, old)
        # A module first imported while patched bound the wrapper itself.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not _is_repro_module(mod_name):
                continue
            for key, value in list(vars(mod).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, key, entry[1])
        self._wrappers.clear()

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def tap(fn: Callable, hook: Hook) -> Callable:
    """A span-free wrapper: call ``fn``, then ``hook(args, result, exc)``."""

    @functools.wraps(fn)
    def tapped(*args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            hook(args, None, exc)
            raise
        hook(args, result, None)
        return result

    return tapped


class Tracer:
    """Records one span per call to each target, in memory.

    Use as a context manager: entering patches every target, leaving
    restores them.  ``hooks`` maps :func:`target_name` to a :data:`Hook`
    run after the call, inside its span.
    """

    def __init__(
        self,
        targets: Sequence[Tuple[str, str, str]] = LAYER_TARGETS,
        hooks: Optional[Dict[str, Hook]] = None,
    ) -> None:
        self.targets = tuple(targets)
        self.hooks = dict(hooks or {})
        #: span name id -> target name, and -> layer
        self.names: List[str] = [target_name(m, a) for _, m, a in self.targets]
        self.layers: List[str] = [layer for layer, _, _ in self.targets]
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack: List[int] = [-1]
        self._patcher = Patcher()

    def __enter__(self) -> "Tracer":
        try:
            for nid, (_, module, attr) in enumerate(self.targets):
                hook = self.hooks.get(self.names[nid])
                self._patcher.patch(
                    module, attr, functools.partial(self._wrap, nid=nid, hook=hook)
                )
        except BaseException:
            self._patcher.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()

    def _wrap(self, fn: Callable, nid: int, hook: Optional[Hook]) -> Callable:
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                if hook is not None:
                    hook(args, result, exc)
                ends[i] = clock()
                stack.pop()

        return traced

    def __len__(self) -> int:
        return len(self.name_ids)

    def calls_by_target(self) -> Dict[str, int]:
        counts = [0] * len(self.names)
        for nid in self.name_ids:
            counts[nid] += 1
        return dict(zip(self.names, counts))

    def stats(self) -> Dict[str, Dict[str, float]]:
        return layer_stats(
            self.layers, self.name_ids, self.parents, self.starts, self.ends
        )

    def dump(self, path) -> None:
        """Write the spans out as ``.npz`` columns plus the name table."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array(self.layers),
            name_id=np.frombuffer(self.name_ids, dtype=np.uint16),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
        )


def layer_stats(
    layers: Sequence[str],
    name_ids: Iterable[int],
    parents: Iterable[int],
    starts: Iterable[int],
    ends: Iterable[int],
) -> Dict[str, Dict[str, float]]:
    """Per-layer ``calls`` and ``self_s`` from span columns.

    ``layers[name_id]`` is a span's layer; ``parents`` holds the index of
    the enclosing span (``-1`` at top level).  Self time is a span's
    duration minus its direct children's durations, summed per layer.
    A call is an *entry* into a layer — a span whose parent belongs to
    another layer — so ``recover`` calling ``run_recovery`` is one
    ``arch.recovery`` call.
    """
    import numpy as np

    nid = np.asarray(name_ids, dtype=np.int64)
    parent = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=np.int64) - np.asarray(starts, dtype=np.int64)
    names = sorted(set(layers))
    layer_of_name = np.array([names.index(layer) for layer in layers], dtype=np.int64)
    layer = layer_of_name[nid] if len(nid) else nid
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    self_ns = dur - child_time
    parent_layer = np.full(len(nid), -1, dtype=np.int64)
    parent_layer[has_parent] = layer[parent[has_parent]]
    entry = parent_layer != layer
    out: Dict[str, Dict[str, float]] = {}
    for index, name in enumerate(names):
        mine = layer == index
        out[name] = {
            "calls": int(np.count_nonzero(mine & entry)),
            "self_s": float(self_ns[mine].sum()) / 1e9,
        }
    return out

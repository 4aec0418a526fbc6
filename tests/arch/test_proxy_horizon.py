"""The proxy pipeline's next-event horizon changes nothing.

:meth:`CoreProxyPipeline.advance` returns at once while ``now`` is below
``_due``, a lower bound on the next pipeline event's time.  Here the
reference run pins ``_due`` to ``-inf``, so every ``advance`` recomputes
the next event as before the horizon existed, and each program must
give the same results either way:

* identical :class:`SystemMetrics`, or the same error at the same event
  where a planted protocol bug deadlocks the pipeline,
* the identical stream of pipeline hooks (entries, merges, drains,
  skips, boundary drains, writebacks) a recording watcher sees,
* identical :func:`capture_crash_state` contents at sampled events.

Programs: genome, ocean (4 harts), hot-writeback and deep-call, at
thresholds 32 and 256, async and sync persistence, under the faithful
protocol and each pipeline-side :class:`ProtocolMutations` flag.  They
run on :data:`TIGHT` parameters, which put the pipeline under pressure
(front-end stalls, a busy write port, regular-path writebacks that
unset valid bits); the faithful protocol runs on the scaled defaults
too.
"""

from __future__ import annotations

import dataclasses
from math import inf

import pytest

from repro.arch.crash import capture_crash_state
from repro.arch.params import PersistMode, SimParams
from repro.arch.persistence import ProtocolMutations
from repro.arch.proxy import CoreProxyPipeline, ProxyEntry
from repro.arch.system import build_system
from repro.compiler import CapriCompiler, OptConfig
from repro.isa.trace import Observer
from repro.workloads import get_workload

PROGRAMS = {"genome": 0.3, "ocean": 0.1, "hot-writeback": 1.0, "deep-call": 1.0}
THRESHOLDS = (32, 256)
MODES = (PersistMode.ASYNC, PersistMode.SYNC)
#: The flags gated in the proxy pipeline and the persistence engine.
PIPELINE_MUTATIONS = [
    name for name in ProtocolMutations.names() if not name.startswith("recovery_")
]
#: Capture a crash state after every this many events.
SAMPLE_EVERY = 401
#: Small caches, an 8-entry front end and a slow NVM write port.
TIGHT = dict(
    l1_size_bytes=1024,
    l2_size_bytes=4096,
    dram_cache_size_bytes=8192,
    frontend_entries=8,
    nvm_write_parallelism=8,
)


def test_pipeline_mutations_are_the_ten_pipeline_side_flags():
    assert len(PIPELINE_MUTATIONS) == 10
    assert PIPELINE_MUTATIONS[0] == "skip_undo_log"
    assert PIPELINE_MUTATIONS[-1] == "invalidate_everything"


class RecordingWatcher:
    """Every pipeline hook, in order."""

    def __init__(self) -> None:
        self.hooks = []

    def on_entry(self, *args):
        self.hooks.append(("entry", *args))

    def on_merge(self, *args):
        self.hooks.append(("merge", *args))

    def on_redo_drained(self, *args):
        self.hooks.append(("drained", *args))

    def on_redo_skipped(self, *args):
        self.hooks.append(("skipped", *args))

    def on_boundary_drained(self, core, seq, region_id, continuation, ckpts, pc):
        self.hooks.append(
            ("boundary", core, seq, region_id, continuation, dict(ckpts), pc)
        )

    def on_writeback(self, *args):
        self.hooks.append(("writeback", *args))


def _entry(entry: ProxyEntry) -> tuple:
    return (
        entry.kind,
        entry.addr,
        entry.undo,
        entry.redo,
        entry.redo_valid,
        entry.region_seq,
        entry.create_time,
        entry.arrive_time,
        entry.region_id,
        entry.continuation,
        tuple(entry.ckpts.items()),
        entry.checksum,
    )


def _crash_contents(system) -> tuple:
    state = capture_crash_state(system)
    return (
        state.nvm_image,
        [[_entry(e) for e in entries] for entries in state.core_entries],
        state.pc_checkpoints,
        [(r.addr, r.value, r.prev, r.checksum) for r in state.wpq],
        state.ckpt_shadow,
    )


class Sampler(Observer):
    """Forward every event to the system; after every
    :data:`SAMPLE_EVERY`-th, record the crash state it would leave."""

    def __init__(self, system) -> None:
        self.system = system
        self.events = 0
        self.samples = []

    def _tick(self) -> None:
        self.events += 1
        if self.events % SAMPLE_EVERY == 0:
            self.samples.append((self.events, _crash_contents(self.system)))

    def on_retire_run(self, core, n):
        self.system.on_retire_run(core, n)
        self._tick()

    def on_load(self, core, addr, value):
        self.system.on_load(core, addr, value)
        self._tick()

    def on_store(self, core, addr, value, old):
        self.system.on_store(core, addr, value, old)
        self._tick()

    def on_ckpt(self, core, reg, value, addr):
        self.system.on_ckpt(core, reg, value, addr)
        self._tick()

    def on_boundary(self, core, region_id, continuation):
        self.system.on_boundary(core, region_id, continuation)
        self._tick()

    def on_fence(self, core):
        self.system.on_fence(core)
        self._tick()

    def on_atomic(self, core, addr, value, old):
        self.system.on_atomic(core, addr, value, old)
        self._tick()

    def on_io(self, core, port, value):
        self.system.on_io(core, port, value)
        self._tick()

    def on_halt(self, core):
        self.system.on_halt(core)
        self._tick()


@pytest.fixture(scope="module")
def compiled():
    """(module, spawns) per (program, threshold), compiled once."""
    out = {}
    for name, scale in PROGRAMS.items():
        module, spawns = get_workload(name).build(scale)
        for threshold in THRESHOLDS:
            config = OptConfig.licm().with_threshold(threshold)
            out[name, threshold] = (
                CapriCompiler(config).compile(module).module,
                spawns,
            )
    assert len(out["ocean", 32][1]) == 4
    return out


def _run(module, spawns, threshold, params, mutations):
    machine, system = build_system(
        module, spawns, params=params, threshold=threshold, mutations=mutations
    )
    watcher = RecordingWatcher()
    system.persist.set_watcher(watcher)
    sampler = Sampler(system)
    try:
        machine.run(sampler)
        outcome = dataclasses.asdict(system.finish())
    except Exception as exc:  # a planted bug may deadlock the pipeline
        outcome = (type(exc).__name__, str(exc), sampler.events)
    return outcome, watcher.hooks, sampler.samples


def _reference_and_production(monkeypatch, *args):
    production = _run(*args)
    with monkeypatch.context() as patch:
        patch.setattr(
            CoreProxyPipeline,
            "_due",
            property(lambda self: -inf, lambda self, value: None),
            raising=False,
        )
        reference = _run(*args)
    return reference, production


def _check(monkeypatch, compiled, program, threshold, params, mutation):
    module, spawns = compiled[program, threshold]
    mutations = None if mutation is None else ProtocolMutations.single(mutation)
    reference, production = _reference_and_production(
        monkeypatch, module, spawns, threshold, params, mutations
    )
    ref_outcome, ref_hooks, ref_samples = reference
    outcome, hooks, samples = production
    assert outcome == ref_outcome
    assert len(hooks) == len(ref_hooks) and hooks == ref_hooks
    assert [n for n, _ in samples] == [n for n, _ in ref_samples]
    assert samples == ref_samples
    if mutation is None:
        # The faithful protocol finishes, and the pipeline had work to do.
        assert isinstance(outcome, dict) and outcome["proxy_entries"] > 0
        assert samples and hooks
    return outcome


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
@pytest.mark.parametrize("mutation", [None, *PIPELINE_MUTATIONS])
def test_horizon_changes_nothing(compiled, monkeypatch, program, threshold, mode, mutation):
    params = SimParams.scaled().with_(persist_mode=mode, **TIGHT)
    outcome = _check(monkeypatch, compiled, program, threshold, params, mutation)
    if mutation is None and mode is PersistMode.ASYNC:
        assert outcome["fe_stall_cycles"] > 0 or program == "genome"


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_horizon_changes_nothing_on_default_parameters(
    compiled, monkeypatch, program, threshold, mode
):
    params = SimParams.scaled().with_(persist_mode=mode)
    _check(monkeypatch, compiled, program, threshold, params, None)


def test_tight_parameters_reach_every_pipeline_path(compiled, monkeypatch):
    """Between them the tight runs stall the front end, stall for sync
    boundaries, and skip drains of invalidated entries."""
    params = SimParams.scaled().with_(**TIGHT)
    ocean = _check(monkeypatch, compiled, "ocean", 256, params, None)
    assert ocean["fe_stall_cycles"] > 0 and ocean["nvm_writes_skipped"] > 0
    sync = params.with_(persist_mode=PersistMode.SYNC)
    deep = _check(monkeypatch, compiled, "deep-call", 32, sync, None)
    assert deep["sync_stall_cycles"] > 0

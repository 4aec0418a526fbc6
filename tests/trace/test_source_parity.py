"""Both crash sources are built from the program and own its golden run.

``TraceCampaignSource(module, spawns, config)`` captures its trace at
``config.quantum`` within ``config.max_steps`` and reads the golden
result off it; ``InterpretedSource(module, spawns, config)`` runs
:func:`~repro.fault.oracle.golden_run` independently.  Built from the
same program and config, the two must agree on the final memory, masked
and whole, the I/O log, the event count and each address's writers.  Ocean runs four harts at quantum 7, where
the interleaving (and so the event count) differs from the default
quantum, so a trace captured at the wrong quantum fails here; the
logger's two harts put their I/O in a quantum-dependent order.
"""

from __future__ import annotations

import pytest

from repro.api import RunSpec, build_spec
from repro.compiler import CapriCompiler, OptConfig
from repro.fault.campaign import CampaignConfig
from repro.fault.oracle import InterpretedSource
from repro.ir import IRBuilder, verify_module
from repro.ir.module import is_ckpt_addr
from repro.trace.replay import TraceCampaignSource


def _workload(name: str, scale: float):
    return build_spec(
        RunSpec(workload=name, scale=scale, config=OptConfig.licm(32))
    )


def _logger():
    """Two harts, each storing eight values and writing each to a port."""
    b = IRBuilder("logger")
    arr = b.module.alloc("records", 16)
    with b.function("main", params=("hart",)) as f:
        hart = f.param(0)
        with f.for_range(8) as i:
            v = f.add(f.mul(i, 7), hart)
            slot = f.add(f.shl(hart, 3), i)
            f.store(v, f.add(arr, f.shl(slot, 3)))
            f.io_write(1, v)
        f.ret()
    verify_module(b.module)
    module = CapriCompiler(OptConfig.licm(8)).compile(b.module).module
    return module, [("main", [0]), ("main", [1])]


PROGRAMS = {
    "genome": lambda: _workload("genome", 0.1),
    "ocean": lambda: _workload("ocean", 0.05),
    "deep-call": lambda: _workload("deep-call", 0.1),
    "logger": _logger,
}

CASES = [
    ("genome", 32),
    ("ocean", 7),
    ("deep-call", 32),
    ("logger", 3),
]


def _goldens(name: str, quantum: int):
    module, spawns = PROGRAMS[name]()
    config = CampaignConfig(threshold=32, quantum=quantum)
    return (
        TraceCampaignSource(module, spawns, config).golden,
        InterpretedSource(module, spawns, config).golden,
    )


@pytest.mark.parametrize(
    "name, quantum", CASES, ids=[f"{n}-q{q}" for n, q in CASES]
)
def test_both_sources_own_the_same_golden(name, quantum):
    replayed, interpreted = _goldens(name, quantum)
    assert replayed.data == interpreted.data
    assert replayed.image == interpreted.image
    assert replayed.writers == interpreted.writers
    assert replayed.io_log == interpreted.io_log
    assert replayed.total_events == interpreted.total_events
    assert replayed.total_events > 0
    # The masked image is the image without its checkpoint words.
    assert replayed.data == {
        a: v for a, v in replayed.image.items() if not is_ckpt_addr(a)
    }
    assert replayed.image.keys() > replayed.data.keys()
    assert set(replayed.writers) <= set(replayed.image)
    if name == "logger":
        assert {core for core, _, _ in replayed.io_log} == {0, 1}
        # Each hart stores only to its own half of ``records``.
        assert set(replayed.writers.values()) == {frozenset({0}), frozenset({1})}


@pytest.mark.parametrize("name, quantum", [("ocean", 7), ("logger", 3)])
def test_the_quantum_reaches_the_golden(name, quantum):
    """The non-default quanta above give goldens the default quantum does
    not, so a source that ignored ``config.quantum`` would fail parity."""
    at_quantum, _ = _goldens(name, quantum)
    at_default, _ = _goldens(name, CampaignConfig().quantum)
    assert (at_quantum.io_log, at_quantum.total_events) != (
        at_default.io_log,
        at_default.total_events,
    )


def test_golden_of_the_interpreted_source_runs_once_and_lazily(monkeypatch):
    import repro.fault.oracle as oracle

    calls = []
    real = oracle.golden_run

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "golden_run", counted)
    module, spawns = _logger()
    config = CampaignConfig(quantum=3, max_steps=10_000)
    source = InterpretedSource(module, spawns, config)
    assert calls == []
    assert source.golden is source.golden
    assert calls == [{"quantum": 3, "max_steps": 10_000}]

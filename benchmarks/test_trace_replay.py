"""Trace capture/replay benchmarks: the engineering wins of repro.trace.

Two numbers matter and each is asserted, not just recorded:

* **capture overhead** — recording the columnar trace must stay within a
  small factor of the bare functional run (it rides the same interpreter
  loop, adding only column appends);
* **campaign speedup** — an exhaustive single-crash campaign (which
  replays) must beat the same campaign on the interpreted reference
  source by a wide margin (the single-pass cursor turns O(events^2) arch
  work into O(events)).
"""

import time

import pytest

from repro.compiler import CapriCompiler, OptConfig
from repro.fault.campaign import (
    CampaignConfig,
    run_campaign,
    run_workload_campaign,
)
from repro.fault.oracle import InterpretedSource, golden_run
from repro.isa import Machine
from repro.trace.record import capture_trace
from repro.workloads import get_workload

#: Campaigns re-run the system once per crash point; keep the trace a
#: few thousand events so the interpreted side stays in benchmark range.
CAMPAIGN_SCALE = 0.15


@pytest.fixture(scope="module")
def compiled_workload():
    module, spawns = get_workload("genome").build(scale=0.4)
    capri = CapriCompiler(OptConfig.licm(256)).compile(module).module
    return capri, spawns


def test_capture_overhead(benchmark, compiled_workload):
    """Recording must stay within ~4x of the bare functional run."""
    capri, spawns = compiled_workload

    def functional():
        machine = Machine(capri)
        for fn, args in spawns:
            machine.spawn(fn, args)
        return machine.run()

    start = time.perf_counter()
    functional()
    t_bare = time.perf_counter() - start

    captured = benchmark(lambda: capture_trace(capri, spawns, quantum=32))
    t_capture = benchmark.stats["mean"]
    benchmark.extra_info["events"] = len(captured)
    benchmark.extra_info["bare_functional_s"] = round(t_bare, 4)
    benchmark.extra_info["overhead_x"] = round(t_capture / max(t_bare, 1e-9), 2)
    assert t_capture < 4.0 * t_bare + 0.05


def test_exhaustive_campaign_speedup(benchmark):
    """Exhaustive campaign: >=3x over the interpreted reference source
    here at benchmark scale (measured 7-13x at documentation scale),
    identical verdicts."""
    config = CampaignConfig(threshold=32, minimize=False)

    start = time.perf_counter()
    module, spawns = get_workload("genome").build(scale=CAMPAIGN_SCALE)
    module = CapriCompiler(OptConfig.licm(32)).compile(module).module
    interpreted = run_campaign(
        module,
        spawns,
        config,
        golden=golden_run(module, spawns),
        source=InterpretedSource(module, spawns, config),
    )
    t_interp = time.perf_counter() - start

    replayed = benchmark(
        lambda: run_workload_campaign(
            "genome", config, scale=CAMPAIGN_SCALE, cache=None
        )
    )
    t_replay = benchmark.stats["mean"]

    def verdicts(result):
        return [(o.event_index, o.status) for o in result.outcomes]

    assert verdicts(interpreted) == verdicts(replayed)
    speedup = t_interp / max(t_replay, 1e-9)
    benchmark.extra_info["crash_points"] = len(interpreted.outcomes)
    benchmark.extra_info["interpreted_s"] = round(t_interp, 3)
    benchmark.extra_info["speedup_x"] = round(speedup, 2)
    assert speedup > 3.0

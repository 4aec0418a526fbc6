"""Figures 10 and 11 derive from Figure 9's cached cells; pin the identity.

``fig10``/``fig11`` compute region means from each cell's
``SystemMetrics`` counters (:func:`repro.compiler.region_means`) instead
of running a functional :class:`RegionStatsObserver` pass.  The observer
stays the reference: for every benchmark × ladder cell the derived means
must equal it exactly, and after ``fig9`` none of fig10, fig11 or the
headline may simulate anything.
"""

import pytest

from repro.arch.params import SimParams
from repro.compiler import CapriCompiler, OptConfig, RegionStatsObserver
from repro.eval.figures import ALL_BENCHMARKS, fig9, fig10, fig11, headline
from repro.eval.harness import EvalHarness
from repro.isa.machine import Machine
from repro.workloads import get_workload

SCALE = 0.05
THRESHOLD = 256


@pytest.fixture(scope="module")
def derived():
    """fig10/fig11 tables plus the simulation counts of each call after fig9."""
    h = EvalHarness(params=SimParams.scaled(), scale=SCALE)
    fig9(harness=h, threshold=THRESHOLD)
    sims = {}
    tables = {}
    for fn in (fig10, fig11, headline):
        out = fn(harness=h, threshold=THRESHOLD)
        sims[fn.__name__] = h.last_sweep_report.simulations
        tables[fn.__name__] = out
    return h, tables, sims


def _observed(name: str, quantum: int):
    module, spawns = get_workload(name).build(SCALE)
    out = {}
    for label, config in OptConfig.ladder(THRESHOLD).items():
        compiled = CapriCompiler(config).compile(module).module
        machine = Machine(compiled, quantum=quantum)
        for func_name, args in spawns:
            machine.spawn(func_name, args)
        obs = RegionStatsObserver()
        machine.run(obs)
        out[label] = obs.stats
    return out


def test_figures_after_fig9_run_no_simulations(derived):
    _, _, sims = derived
    assert sims == {"fig10": 0, "fig11": 0, "headline": 0}


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_derived_means_equal_observer(derived, name):
    h, tables, _ = derived
    observed = _observed(name, h.quantum)
    for label, stats in observed.items():
        assert stats.regions_executed > 0, label
        assert tables["fig10"][name][label] == stats.avg_instructions, label
        assert tables["fig11"][name][label] == stats.avg_stores, label

"""One simulation per distinct program in a sweep.

``run_specs`` builds and compiles every spec, then reuses an earlier run
of the same call when the simulator would read exactly the same inputs:
the same printed program and initial data, spawns, parameters,
persistence, quantum, step budget and checker flag, and a back-end
capacity under which every ``len(be) < be_cap`` test gives the same
answer (:meth:`repro.api.MemoRun.serves`).  A shared spec must report
the metrics of its own separate run, bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro import api
from repro.api import RunSpec, execute_spec, metrics_to_dict, simulation_key
from repro.arch.params import SimParams
from repro.arch.system import CapriSystem
from repro.compiler import OptConfig
from repro.eval.figures import FIG8_THRESHOLDS
from repro.sweep import ResultCache, run_specs
from repro.sweep.cli import main as sweep_main
from repro.workloads import workload_names

SCALE = 0.2


def fig8_specs(scale=SCALE, names=None, thresholds=FIG8_THRESHOLDS, params=None):
    capri = [
        RunSpec(
            workload=name,
            scale=scale,
            config=OptConfig.licm(t),
            params=params,
            label=str(t),
        )
        for name in (names or workload_names())
        for t in thresholds
    ]
    baselines = {s.baseline().fingerprint(): s.baseline() for s in capri}
    return capri + list(baselines.values())


def separate(spec):
    return metrics_to_dict(execute_spec(spec).metrics)


def shared_specs(report):
    return [s.spec for s in report.statuses if s.shared]


@pytest.fixture(scope="module")
def fig8():
    specs = fig8_specs()
    return specs, run_specs(specs, workers=0, cache=None)


def test_fig8_matrix_shares_and_counts_every_spec(fig8):
    specs, report = fig8
    assert report.ok
    assert report.simulations == len(specs) == 140
    assert report.cache_hits == 0
    assert report.shared == len(shared_specs(report))
    # Thresholds above 256 mostly compile to the 256 program.
    assert report.shared >= 30
    assert all(s.effective_threshold > 32 for s in shared_specs(report))
    assert f"simulations: 140 ({report.shared} shared)" in report.summary()


def test_each_shared_spec_equals_its_separate_run(fig8):
    specs, report = fig8
    by_fp = {r.fingerprint: r for r in report.results if r is not None}
    shared = shared_specs(report)
    assert shared
    for spec in shared:
        assert metrics_to_dict(by_fp[spec.fingerprint()].metrics) == separate(
            spec
        ), spec.describe()


class TestBackendPeak:
    """water-nsquared at scale 1.0 compiles to one program at thresholds
    64 and 128, and fills its back end at 64 (peak 65 = capacity 65), so
    the 128 run takes another course."""

    def specs(self, params=None):
        return [
            RunSpec(
                workload="water-nsquared",
                config=OptConfig.licm(t),
                params=params,
            )
            for t in (64, 128)
        ]

    def test_same_program_full_back_end_is_not_shared(self):
        t64, t128 = self.specs()
        memo = {}
        execute_spec(t64, memo)
        (key,) = memo
        assert key == simulation_key(t128, *api.build_spec(t128))
        (run,) = memo[key]
        assert run.peak == run.capacity == 65
        assert not execute_spec(t128, memo).shared
        # Sharing would be wrong: the two runs differ.
        assert separate(t64) != separate(t128)

        report = run_specs([t64, t128], cache=None)
        assert report.shared == 0
        assert [metrics_to_dict(r.metrics) for r in report.results] == [
            separate(t64),
            separate(t128),
        ]

    def test_backend_override_shares_across_thresholds(self):
        params = replace(SimParams.scaled(), backend_entries=64)
        t64, t128 = self.specs(params)
        report = run_specs([t64, t128], cache=None)
        assert [s.spec.describe() for s in report.statuses if s.shared] == [
            t128.describe()
        ]
        assert metrics_to_dict(report.results[1].metrics) == separate(t128)


def test_descending_thresholds_still_share():
    specs = fig8_specs(names=["genome", "505.mcf_r"], thresholds=(1024, 512, 256))
    report = run_specs(specs, cache=None)
    assert report.shared >= 2
    for spec in shared_specs(report):
        assert spec.effective_threshold < 1024
    for spec, result in zip(specs, report.results):
        assert metrics_to_dict(result.metrics) == separate(spec)


def test_different_params_never_share():
    slow = replace(SimParams.scaled(), nvm_write_ns=2 * SimParams().nvm_write_ns)
    specs = [
        RunSpec(workload="genome", scale=SCALE, config=OptConfig.licm(t), params=p)
        for p in (None, slow)
        for t in (256, 512)
    ]
    report = run_specs(specs, cache=None)
    # 512 shares its own parameters' 256 run, never the other's.
    assert report.shared == 2
    for spec, result in zip(specs, report.results):
        assert metrics_to_dict(result.metrics) == separate(spec)


def test_different_initial_data_never_shares(monkeypatch):
    real = api.build_spec

    def build(spec):
        module, spawns = real(spec)
        if spec.effective_threshold == 512:
            addr = min(module.initial_data)
            module.initial_data[addr] += 1
        return module, spawns

    t256, t512, t1024 = (
        RunSpec(workload="505.mcf_r", scale=SCALE, config=OptConfig.licm(t))
        for t in (256, 512, 1024)
    )
    monkeypatch.setattr(api, "build_spec", build)
    memo = {}
    assert not execute_spec(t256, memo).shared
    assert not execute_spec(t512, memo).shared
    assert execute_spec(t1024, memo).shared  # the control: same data as 256


def test_shared_spec_depends_on_the_simulator(tmp_path):
    specs = [
        RunSpec(workload="genome", scale=SCALE, config=OptConfig.licm(t))
        for t in (256, 512)
    ]
    cache = ResultCache(tmp_path)
    report = run_specs(specs, cache=cache)
    assert [s.spec for s in report.statuses if s.shared] == [specs[1]]
    for spec in specs:
        assert "arch" in cache.get(spec.fingerprint())["deps"]
    memo = {}
    execute_spec(specs[0], memo)
    assert "arch" in execute_spec(specs[1], memo).deps


def test_memo_lasts_one_call(monkeypatch):
    t256, t512 = (
        RunSpec(workload="genome", scale=SCALE, config=OptConfig.licm(t))
        for t in (256, 512)
    )
    assert run_specs([t256, t512], cache=None).shared == 1
    (before,) = run_specs([t256], cache=None).results

    finish = CapriSystem.finish

    def patched(self):
        metrics = finish(self)
        metrics.retired += 1
        return metrics

    monkeypatch.setattr(CapriSystem, "finish", patched)
    (after,) = run_specs([t512], cache=None).results
    assert after.metrics.retired == before.metrics.retired + 1


def test_parallel_sweep_is_bit_identical_to_serial():
    specs = fig8_specs(names=["genome", "water-nsquared", "ssca2"])
    serial = run_specs(specs, workers=0, cache=None)
    parallel = run_specs(specs, workers=2, cache=None)
    assert serial.ok and parallel.ok
    assert serial.shared > 0 and parallel.shared > 0
    assert parallel.simulations == serial.simulations == len(specs)
    assert [metrics_to_dict(r.metrics) for r in parallel.results] == [
        metrics_to_dict(r.metrics) for r in serial.results
    ]


def test_sweep_cli_reports_shared(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    args = ["--benchmarks", "ssca2", "--thresholds", "256,1024", "--scale", "0.05"]
    args += ["--cache-dir", str(tmp_path / "cache")]
    assert sweep_main([*args, "--json", str(out_path)]) == 0
    assert "simulations: 3 (1 shared)" in capsys.readouterr().out
    report = json.loads(out_path.read_text())["data"]["report"]
    assert (report["simulations"], report["shared"]) == (3, 1)

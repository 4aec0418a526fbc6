"""Tests for the benchmark registry and the Figure 8/9 suite lists."""

import pytest

from repro.workloads import (
    SUITES,
    all_workloads,
    get_workload,
    suite_workloads,
    workload_names,
)


class TestSuiteLists:
    def test_paper_suite_membership(self):
        assert SUITES["cpu2017"] == [
            "505.mcf_r",
            "531.deepsjeng_r",
            "541.leela_r",
            "508.namd_r",
            "519.lbm_r",
        ]
        assert SUITES["stamp"] == [
            "genome",
            "intruder",
            "labyrinth",
            "ssca2",
            "vacation",
        ]
        assert SUITES["splash3"] == [
            "barnes",
            "fmm",
            "ocean",
            "radiosity",
            "raytrace",
            "volrend",
            "water-nsquared",
            "water-spatial",
            "radix",
        ]

    def test_counts_match_paper(self):
        assert len(SUITES["cpu2017"]) == 5
        assert len(SUITES["stamp"]) == 5
        assert len(SUITES["splash3"]) == 9

    def test_all_names_resolvable(self):
        for name in workload_names():
            w = get_workload(name)
            assert w.name == name

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("nonexistent")

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError, match="unknown suite"):
            suite_workloads("nonexistent")

    def test_suite_assignment(self):
        assert get_workload("ssca2").suite == "stamp"
        assert get_workload("radix").suite == "splash3"
        assert get_workload("oskernel").suite == "os"

    def test_splash_is_multithreaded(self):
        for w in suite_workloads("splash3"):
            assert w.multithreaded, w.name

    def test_spec_and_stamp_single_threaded(self):
        for suite in ["cpu2017", "stamp"]:
            for w in suite_workloads(suite):
                assert not w.multithreaded, w.name


class TestBuild:
    @pytest.mark.parametrize("name", workload_names())
    def test_builds_and_verifies(self, name):
        from repro.ir import verify_module

        module, spawns = get_workload(name).build(scale=0.1)
        verify_module(module)
        assert spawns
        for func_name, args in spawns:
            func = module.functions[func_name]
            assert func.num_params == len(args)

    @pytest.mark.parametrize("name", workload_names())
    def test_runs_to_completion(self, name):
        from repro.isa import Machine

        module, spawns = get_workload(name).build(scale=0.1)
        machine = Machine(module)
        for func_name, args in spawns:
            machine.spawn(func_name, args)
        retired = machine.run(max_steps=5_000_000)
        assert retired > 0

    @pytest.mark.parametrize("name", workload_names())
    def test_deterministic(self, name):
        from repro.ir.module import is_ckpt_addr
        from repro.isa import Machine

        results = []
        for _ in range(2):
            module, spawns = get_workload(name).build(scale=0.1)
            machine = Machine(module)
            for func_name, args in spawns:
                machine.spawn(func_name, args)
            machine.run()
            data = tuple(
                sorted(
                    (a, v)
                    for a, v in machine.memory.items()
                    if not is_ckpt_addr(a)
                )
            )
            results.append(data)
        assert results[0] == results[1]

    def test_scale_increases_work(self):
        from repro.isa import Machine

        work = {}
        for scale in [0.2, 1.0]:
            module, spawns = get_workload("519.lbm_r").build(scale=scale)
            machine = Machine(module)
            for func_name, args in spawns:
                machine.spawn(func_name, args)
            work[scale] = machine.run()
        assert work[1.0] > work[0.2] * 2

    def test_splash_spawn_count(self):
        from repro.workloads.splash import SPLASH_THREADS

        _, spawns = get_workload("barnes").build(scale=0.1)
        assert len(spawns) == SPLASH_THREADS

    def test_all_workloads_listing(self):
        names = [w.name for w in all_workloads()]
        assert names == workload_names()


class TestCompilability:
    """Every stand-in must survive the full Capri pipeline at every
    figure threshold — the whole-system claim (Section 2.2)."""

    @pytest.mark.parametrize("name", workload_names())
    def test_full_pipeline_all_thresholds(self, name):
        from repro.compiler import CapriCompiler, OptConfig
        from repro.ir import verify_module

        module, _ = get_workload(name).build(scale=0.1)
        for threshold in [32, 256]:
            out = CapriCompiler(OptConfig.licm(threshold)).compile(module)
            verify_module(out.module)
            assert out.function_stats

    @pytest.mark.parametrize("name", ["508.namd_r", "volrend", "genome"])
    def test_capri_preserves_results(self, name):
        from repro.compiler import CapriCompiler, OptConfig
        from repro.ir.module import is_ckpt_addr
        from repro.isa import Machine

        module, spawns = get_workload(name).build(scale=0.1)

        def run(mod):
            machine = Machine(mod)
            for fn, args in spawns:
                machine.spawn(fn, args)
            machine.run()
            return {
                a: v for a, v in machine.memory.items() if not is_ckpt_addr(a)
            }

        base = run(module)
        capri = run(CapriCompiler(OptConfig.licm(64)).compile(module).module)
        assert base == capri


@pytest.mark.parametrize("scale", [-1, 0, -0.5, float("nan"), float("inf")])
def test_build_rejects_a_scale_that_is_not_positive_and_finite(scale):
    with pytest.raises(ValueError) as err:
        get_workload("genome").build(scale)
    assert "'genome'" in str(err.value)
    assert repr(scale) in str(err.value)

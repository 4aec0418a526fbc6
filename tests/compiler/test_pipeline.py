"""Tests for the compiler pipeline facade and the Figure 9 ladder,
plus randomized semantics-preservation property tests."""

import pytest
from hypothesis import given, settings, HealthCheck
from hypothesis import strategies as st

from repro.compiler import CapriCompiler, OptConfig
from repro.compiler.stats import RegionStatsObserver
from repro.isa import CountingObserver, Machine
from tests.compiler.conftest import build_loop_kernel, random_program, run_main


class TestOptConfig:
    def test_volatile_is_uninstrumented(self):
        cfg = OptConfig.volatile()
        assert not cfg.instrumented

    def test_ladder_order_and_names(self):
        ladder = OptConfig.ladder()
        assert list(ladder.keys()) == [
            "region",
            "+ckpt",
            "+unrolling",
            "+pruning",
            "+licm",
        ]

    def test_ladder_is_accumulative(self):
        ladder = OptConfig.ladder()
        flags = [
            (c.checkpoints, c.unroll, c.prune, c.licm_opt)
            for c in ladder.values()
        ]
        for earlier, later in zip(flags, flags[1:]):
            # Later configs enable a superset of passes.
            assert all(not e or l for e, l in zip(earlier, later))

    def test_with_threshold(self):
        cfg = OptConfig.licm().with_threshold(512)
        assert cfg.threshold == 512
        assert cfg.licm_opt


class TestPipeline:
    def test_volatile_config_returns_clone_without_boundaries(self):
        from repro.ir.instructions import RegionBoundary

        module, _ = build_loop_kernel()
        out = CapriCompiler(OptConfig.volatile()).compile(module).module
        assert out is not module
        for func in out.functions.values():
            assert not any(
                isinstance(i, RegionBoundary) for i in func.instructions()
            )

    def test_input_module_never_mutated(self):
        module, _ = build_loop_kernel()
        before = sum(f.num_instrs for f in module.functions.values())
        CapriCompiler(OptConfig.licm(32)).compile(module)
        after = sum(f.num_instrs for f in module.functions.values())
        assert before == after

    def test_compiled_module_verifies(self):
        from repro.ir import verify_module

        module, _ = build_loop_kernel()
        for cfg in OptConfig.ladder(32).values():
            out = CapriCompiler(cfg).compile(module).module
            verify_module(out)

    def test_function_stats_collected(self):
        module, _ = build_loop_kernel()
        res = CapriCompiler(OptConfig.licm(64)).compile(module)
        assert "kernel" in res.function_stats
        assert res.function_stats["kernel"]["regions"] >= 1

    def test_ladder_monotone_checkpoint_reduction(self):
        """Dynamic checkpoint counts shrink (weakly) along the opt ladder
        after +ckpt — the paper's Figure 9 direction."""
        module, _ = build_loop_kernel(n=60)
        counts = {}
        for name, cfg in OptConfig.ladder(256).items():
            out = CapriCompiler(cfg).compile(module).module
            obs = CountingObserver()
            Machine(out).run_function("main", observer=obs)
            counts[name] = obs.ckpts
        assert counts["+unrolling"] <= counts["+ckpt"]
        assert counts["+pruning"] <= counts["+unrolling"]
        assert counts["+licm"] <= counts["+pruning"]


class TestRegionStats:
    def test_dynamic_stats_basic(self):
        module, _ = build_loop_kernel(n=40)
        out = CapriCompiler(OptConfig.licm(256)).compile(module).module
        obs = RegionStatsObserver()
        Machine(out).run_function("main", observer=obs)
        stats = obs.stats
        assert stats.regions_executed > 0
        assert stats.avg_instructions > 0
        assert stats.avg_stores >= 0

    def test_unrolling_grows_average_region_length(self):
        module, _ = build_loop_kernel(n=60)
        lengths = {}
        for name in ["+ckpt", "+unrolling"]:
            cfg = OptConfig.ladder(256)[name]
            out = CapriCompiler(cfg).compile(module).module
            obs = RegionStatsObserver()
            Machine(out).run_function("main", observer=obs)
            lengths[name] = obs.stats.avg_instructions
        # Section 4.3: short loops keep regions far below the threshold
        # until unrolling merges iterations into one region.
        assert lengths["+unrolling"] > 3 * lengths["+ckpt"]

    def test_stores_per_region_below_threshold(self):
        module, _ = build_loop_kernel(n=60)
        threshold = 32
        out = CapriCompiler(OptConfig.licm(threshold)).compile(module).module
        obs = RegionStatsObserver()
        Machine(out).run_function("main", observer=obs)
        # Average is necessarily <= max <= threshold.
        assert obs.stats.avg_stores <= threshold


class TestSemanticsPreservationRandom:
    """Property: every config computes exactly the baseline's results."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_programs_all_configs(self, seed):
        module, args = random_program(seed)
        rv0, data0 = run_main(module, args)
        for name, cfg in OptConfig.ladder(32).items():
            out = CapriCompiler(cfg).compile(module).module
            rv1, data1 = run_main(out, args)
            assert rv1 == rv0, f"seed={seed} config={name}"
            assert data1 == data0, f"seed={seed} config={name}"

    @given(seed=st.integers(min_value=100, max_value=10_000))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_programs_full_capri(self, seed):
        module, args = random_program(seed)
        rv0, data0 = run_main(module, args)
        out = CapriCompiler(OptConfig.licm(16)).compile(module).module
        rv1, data1 = run_main(out, args)
        assert (rv1, data1) == (rv0, data0)

    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        threshold=st.sampled_from([8, 16, 64, 256, 1024]),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_threshold_never_affects_results(self, seed, threshold):
        module, args = random_program(seed)
        rv0, data0 = run_main(module, args)
        out = CapriCompiler(OptConfig.licm(threshold)).compile(module).module
        rv1, data1 = run_main(out, args)
        assert (rv1, data1) == (rv0, data0)

"""Tests for the analysis modules: ablations, recovery latency, energy."""

import pytest

from repro.arch.params import SimParams
from repro.eval.ablations import (
    STREAM_PROBE,
    frontend_size_sweep,
    inlining_ablation,
    main as ablations_main,
    nvm_bandwidth_sweep,
    prevention_cost,
)
from repro.workloads.probes import build_stream_probe
from repro.eval.energy import ENTRY_BYTES, drain_budgets, main as energy_main
from repro.eval.recovery_analysis import (
    analyze_recovery,
    main as recovery_main,
)

SCALE = 0.25


class TestStreamProbe:
    def test_builds_and_runs(self):
        from repro.ir import verify_module
        from repro.isa import Machine, CountingObserver

        module, spawns = build_stream_probe(trips=100)
        verify_module(module)
        m = Machine(module)
        obs = CountingObserver()
        for fn, a in spawns:
            m.spawn(fn, a)
        m.run(obs)
        assert obs.stores == 100

    def test_distinct_addresses_no_merging(self):
        from repro.arch.system import run_workload
        from repro.compiler import CapriCompiler, OptConfig

        module, spawns = build_stream_probe(trips=200)
        capri = CapriCompiler(OptConfig.licm(256)).compile(module).module
        metrics, _ = run_workload(capri, spawns, threshold=256)
        assert metrics.proxy_merged == 0


class TestAblationSweeps:
    def test_frontend_sweep_structure(self):
        cells = frontend_size_sweep(
            sizes=(2, 32), benchmarks=(STREAM_PROBE,), scale=SCALE
        )
        assert set(cells[STREAM_PROBE]) == {"2", "32"}
        assert cells[STREAM_PROBE]["2"] >= cells[STREAM_PROBE]["32"] * 0.99

    def test_nvm_sweep_monotone(self):
        cells = nvm_bandwidth_sweep(
            parallelism=(16, 1024), benchmarks=(STREAM_PROBE,), scale=SCALE
        )
        assert cells[STREAM_PROBE]["x16"] >= cells[STREAM_PROBE]["x1024"]

    def test_prevention_never_stales(self):
        cells = prevention_cost(benchmarks=("genome",), scale=SCALE)
        assert cells["genome"]["stale_on"] == 0

    def test_inlining_never_hurts_loop_code(self):
        cells = inlining_ablation(benchmarks=("ssca2",), scale=SCALE)
        assert cells["ssca2"]["+inlining"] == pytest.approx(
            cells["ssca2"]["full"], rel=0.05
        )

    def test_cli(self, capsys):
        rc = ablations_main(["inlining", "--scale", str(SCALE)])
        assert rc == 0
        assert "inlining" in capsys.readouterr().out


class TestRecoveryAnalysis:
    def test_sweep_bounded_by_capacity(self):
        sweep = analyze_recovery("genome", threshold=32, scale=SCALE)
        assert sweep.costs
        assert sweep.max_entries <= 32 + 1 + 32  # BE+boundary + FE

    def test_estimates_positive(self):
        sweep = analyze_recovery("genome", threshold=64, scale=SCALE)
        for cost in sweep.costs:
            assert cost.estimated_ns > 0
            assert cost.ckpt_slots_reloaded >= 0

    def test_cursor_sweep_matches_interpreted_reference(self):
        """The replay-cursor sweep must report exactly the costs that
        re-interpreting to each crash point does."""
        from repro.arch.crash import CrashPlan, run_until_crash
        from repro.arch.recovery import recover
        from repro.compiler import CapriCompiler, OptConfig
        from repro.eval.recovery_analysis import recovery_latency_model
        from repro.workloads import get_workload

        threshold, scale = 64, 0.05
        # Ascending, and running past the end of the ~960-event program.
        points = list(range(20, 1100, 60))
        sweep = analyze_recovery(
            "genome", threshold=threshold, scale=scale, crash_points=points
        )
        module, spawns = get_workload("genome").build(scale)
        capri = CapriCompiler(OptConfig.licm(threshold)).compile(module).module
        reference = []
        for at in points:
            state = run_until_crash(
                capri,
                spawns,
                CrashPlan(at),
                params=SimParams.scaled(),
                threshold=threshold,
            )
            if state is None:
                break
            cost = recovery_latency_model(state, recover(state, capri))
            cost.crash_at = at
            reference.append(cost)
        assert 3 < len(reference) < len(points)
        assert sweep.costs == reference

    def test_cli(self, capsys):
        rc = recovery_main(
            ["--workload", "genome", "--threshold", "64", "--scale", str(SCALE)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "independent of run length" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--scale", "0"], "got 0.0"),
            (["--threshold", "4"], "below minimum 8"),
            (["--workload", "no-such-workload"], "unknown workload"),
        ],
    )
    def test_cli_bad_input_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            recovery_main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


class TestEnergy:
    def test_capri_domain_much_smaller_than_eadr(self):
        budgets = drain_budgets(num_cores=8, threshold=256)
        assert budgets["Capri"].bytes_to_drain * 10 < budgets["eADR"].bytes_to_drain

    def test_memory_mode_makes_eadr_absurd(self):
        plain = drain_budgets(num_cores=8, include_dram_cache=False)
        mm = drain_budgets(num_cores=8, include_dram_cache=True)
        assert mm["eADR"].bytes_to_drain > plain["eADR"].bytes_to_drain * 100
        # Capri is unaffected: the DRAM cache stays volatile.
        assert mm["Capri"].bytes_to_drain == plain["Capri"].bytes_to_drain

    def test_capri_scales_with_threshold(self):
        small = drain_budgets(threshold=32)["Capri"].bytes_to_drain
        large = drain_budgets(threshold=1024)["Capri"].bytes_to_drain
        assert large > small
        # ... by roughly the back-end entry delta.
        assert large - small == pytest.approx(
            8 * (1024 - 32) * ENTRY_BYTES, rel=0.01
        )

    def test_budget_fields_consistent(self):
        b = drain_budgets()["Capri"]
        assert b.drain_time_us > 0
        assert b.energy_uj > 0

    def test_cli(self, capsys):
        rc = energy_main(["--cores", "8"])
        assert rc == 0
        assert "smaller" in capsys.readouterr().out

    @pytest.mark.parametrize("cores", ["0", "-2"])
    def test_cli_refuses_no_cores(self, cores, capsys):
        with pytest.raises(SystemExit) as exit_info:
            energy_main(["--cores", cores])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"--cores: must be an integer >= 1, got {cores!r}" in err

    @pytest.mark.parametrize("threshold", ["7", "0", "-5"])
    def test_cli_refuses_threshold_below_minimum(self, threshold, capsys):
        with pytest.raises(SystemExit) as exit_info:
            energy_main(["--threshold", threshold])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"--threshold: threshold {threshold} below minimum 8" in err

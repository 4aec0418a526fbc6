"""Exhaustive crash sweeps under the differential oracle.

The campaign's contract: with a clean power-loss model, crashing at
*every* observer event index and recovering must be observationally
equivalent to never crashing — for every index, over workloads with
non-idempotent updates, calls, branches, and I/O.
"""

from __future__ import annotations

import pytest

from repro.fault.campaign import (
    CampaignConfig,
    run_campaign,
    select_crash_points,
)
from repro.fault.oracle import golden_run

from tests.arch.conftest import (
    build_pointer_chase,
    build_update_loop,
    compile_capri,
)


def _sweep(module, spawns, **overrides):
    cfg = CampaignConfig(
        models=("clean",), strict=True, minimize=False, **overrides
    )
    return run_campaign(module, spawns, cfg, name="test")


class TestExhaustiveCleanSweep:
    def test_update_loop_every_index(self):
        """Read-modify-write loop: every crash index must recover exactly
        (lost or double-applied regions diverge immediately)."""
        module = compile_capri(build_update_loop(n_iters=8, arr_words=8))
        result = _sweep(module, [("main", [])])
        assert result.total_events > 50
        assert len(result.outcomes) == result.total_events
        assert result.ok, result.failures[0]
        assert all(o.status == "ok" for o in result.outcomes)

    def test_pointer_chase_every_index(self):
        """Linked-structure updates with calls and branches."""
        module = compile_capri(build_pointer_chase(depth=5))
        result = _sweep(module, [("main", [])])
        assert result.total_events > 50
        assert result.ok, result.failures[0]
        assert all(o.status == "ok" for o in result.outcomes)

    def test_multicore_every_index(self):
        from repro.ir import IRBuilder, verify_module

        b = IRBuilder("mc")
        arr = b.module.alloc("arr", 32)
        with b.function("worker", params=["base", "n"]) as f:
            with f.for_range(f.param(1)) as i:
                idx = f.and_(i, 15)
                addr = f.add(f.param(0), f.shl(idx, 3))
                f.store(f.add(f.load(addr), 1), addr)
            f.ret()
        verify_module(b.module)
        module = compile_capri(b.module)
        spawns = [("worker", [arr, 6]), ("worker", [arr + 16 * 8, 6])]
        result = _sweep(module, spawns)
        assert result.ok, result.failures[0]


class TestDeterminism:
    def test_same_seed_same_outcomes(self):
        module = compile_capri(build_update_loop(n_iters=6, arr_words=8))
        cfg = dict(models=("all",), strict=False, sample=20, minimize=False)
        a = run_campaign(module, [("main", [])], CampaignConfig(seed=7, **cfg))
        b = run_campaign(module, [("main", [])], CampaignConfig(seed=7, **cfg))
        assert [(o.event_index, o.status, o.detail) for o in a.outcomes] == [
            (o.event_index, o.status, o.detail) for o in b.outcomes
        ]

    def test_different_seed_different_points(self):
        module = compile_capri(build_update_loop(n_iters=8, arr_words=8))
        golden = golden_run(module, [("main", [])])
        pts_a = select_crash_points(golden.total_events, 15, seed=1)
        pts_b = select_crash_points(golden.total_events, 15, seed=2)
        assert pts_a != pts_b
        # Edge cases are always swept.
        for pts in (pts_a, pts_b):
            assert 0 in pts and golden.total_events - 1 in pts

    def test_exhaustive_when_sample_exceeds_events(self):
        assert select_crash_points(10, 100, seed=3) == list(range(10))
        assert select_crash_points(10, None, seed=3) == list(range(10))


class TestAdversarialSweep:
    def test_all_models_lenient_never_silent(self):
        """The headline guarantee: every injected corruption is either
        healed, detected, or quarantined — never a silent divergence."""
        module = compile_capri(build_update_loop(n_iters=8, arr_words=8))
        cfg = CampaignConfig(
            models=("all",), strict=False, sample=25, minimize=False
        )
        result = run_campaign(module, [("main", [])], cfg, name="test")
        assert result.ok, result.failures[0]
        assert all(
            o.status in ("ok", "quarantined", "finished")
            for o in result.outcomes
        )

    def test_all_models_strict_detects(self):
        module = compile_capri(build_update_loop(n_iters=8, arr_words=8))
        cfg = CampaignConfig(
            models=("torn-entry",), strict=True, sample=25, minimize=False
        )
        result = run_campaign(module, [("main", [])], cfg, name="test")
        assert result.ok, result.failures[0]
        # Wherever a data entry survived to be torn, strict mode raised.
        assert any(o.status == "detected" for o in result.outcomes)
        assert all(
            o.status == "detected"
            for o in result.outcomes
            if o.injected
        )


class TestCheckedCampaign:
    def test_exhaustive_checked_sweep_of_recovery_mutant_completes(self):
        """Regression: an exhaustive checked sweep under a planted
        recovery bug flags enough violations to fill the checker's cap;
        it must end with every flagged point filed as a model violation,
        not die summarising a report that holds only suppressed ones."""
        from repro.arch.persistence import ProtocolMutations
        from repro.fault.campaign import run_workload_campaign

        config = CampaignConfig(
            check=True,
            minimize=False,
            mutations=ProtocolMutations.single("recovery_skip_redo"),
        )
        result = run_workload_campaign(
            "genome", config, scale=0.05, cache=None
        )
        assert len(result.outcomes) == result.total_events
        assert set(result.counts()) == {"ok", "model-violation"}
        assert all(
            o.detail.startswith("persistency check FAILED")
            for o in result.failures
        )


class TestHarnessWiring:
    def test_eval_harness_campaign(self):
        from repro.eval.harness import EvalHarness

        harness = EvalHarness(scale=0.05)
        result = harness.fault_campaign(
            "genome",
            CampaignConfig(sample=5, minimize=False),
        )
        assert result.workload == "genome"
        assert result.ok, result.failures[0]

    def test_eval_harness_leaves_caller_config_unchanged(self):
        from dataclasses import asdict

        from repro.arch.params import SimParams
        from repro.eval.harness import EvalHarness

        harness = EvalHarness(
            scale=0.05, params=SimParams.scaled(), quantum=16, check=True
        )
        config = CampaignConfig(sample=3, minimize=False)
        before = asdict(config)
        result = harness.fault_campaign("genome", config)
        assert result.ok, result.failures[0]
        assert asdict(config) == before


class TestCli:
    def test_main_clean_sweep_exits_zero(self, capsys):
        from repro.fault.cli import main

        rc = main(
            [
                "--workload",
                "genome",
                "--scale",
                "0.05",
                "--sample",
                "8",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_main_adversarial_lenient(self, capsys):
        from repro.fault.cli import main

        rc = main(
            [
                "--workload",
                "genome",
                "--scale",
                "0.05",
                "--sample",
                "6",
                "--models",
                "all",
                "--lenient",
            ]
        )
        assert rc == 0
        assert "quarantined" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--sample", "-1"),
            ("--secondary-sample", "-1"),
            ("--max-chains", "0"),
        ],
    )
    def test_out_of_range_count_is_a_usage_error(self, flag, value, capsys):
        from repro.fault.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--workload", "genome", "--scale", "0.05", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_unknown_model_rejected(self):
        from repro.fault.models import get_models

        with pytest.raises(KeyError):
            get_models(["no-such-model"])

"""Nested-failure (multi-crash) campaign mode.

Crash chains injected into recovery itself (``CampaignConfig.depth`` > 1)
must converge to the uninterrupted recovery — judged against the
recovery-idempotence oracle on top of the differential one — and a
planted non-idempotent-recovery mutant must be caught.
"""

from __future__ import annotations

import json

import pytest

from repro.arch.persistence import ProtocolMutations
from repro.fault.campaign import (
    FAILURE_STATUSES,
    CampaignConfig,
    run_campaign,
    run_crash_point,
    run_workload_campaign,
)

from tests.arch.conftest import build_update_loop, compile_capri


def _config(**overrides):
    base = dict(
        models=("clean",),
        strict=True,
        minimize=False,
        sample=8,
        depth=2,
        secondary_sample=5,
    )
    base.update(overrides)
    return CampaignConfig(**base)


class TestDepthTwoSweep:
    def test_update_loop_depth2_zero_failures(self):
        module = compile_capri(build_update_loop(n_iters=10, arr_words=8))
        result = run_campaign(module, [("main", [])], _config(), name="ul")
        assert result.ok, result.failures[0]
        assert result.depth == 2
        # Chains actually ran: some outcomes carry a secondary crash.
        assert any(o.chain for o in result.outcomes)
        assert all(o.status not in FAILURE_STATUSES for o in result.outcomes)
        assert all(o.crashes == 1 + len(o.chain) for o in result.outcomes)

    def test_deep_call_probe_depth2(self):
        """The deep-call-chain probe: checkpoint-array rebuild across many
        frames must survive crash-during-recovery at every sampled step."""
        result = run_workload_campaign(
            "deep-call", _config(check=True), scale=0.05
        )
        assert result.ok, result.failures[0]
        assert any(o.chain for o in result.outcomes)

    def test_depth3_chains(self):
        module = compile_capri(build_update_loop(n_iters=8, arr_words=8))
        cfg = _config(sample=4, depth=3, secondary_sample=3)
        result = run_campaign(module, [("main", [])], cfg, name="ul")
        assert result.ok, result.failures[0]
        assert any(len(o.chain) == 2 for o in result.outcomes)

    def test_chain_budget_truncates_and_is_counted(self):
        module = compile_capri(build_update_loop(n_iters=10, arr_words=8))
        cfg = _config(sample=4, secondary_sample=None, max_chains_per_point=3)
        result = run_campaign(module, [("main", [])], cfg, name="ul")
        assert result.ok, result.failures[0]
        assert result.truncated_chains > 0
        assert "truncated" in result.summary()

    def test_depth1_unchanged_by_default(self):
        module = compile_capri(build_update_loop(n_iters=8, arr_words=8))
        cfg = _config(depth=1)
        result = run_campaign(module, [("main", [])], cfg, name="ul")
        assert result.ok
        assert all(o.chain == () for o in result.outcomes)


class TestMutantTeeth:
    def test_early_clear_mutant_detected(self):
        """recovery_early_clear retires the proxy journal before the
        commit point — invisible to any single-crash run, fatal to
        re-entry.  The depth-2 campaign must catch it."""
        module = compile_capri(build_update_loop(n_iters=10, arr_words=8))
        muts = ProtocolMutations.single("recovery_early_clear")
        result = run_campaign(
            module, [("main", [])], _config(mutations=muts), name="ul"
        )
        assert not result.ok
        assert any(
            o.status == "divergent-recovery" for o in result.failures
        ), [o.status for o in result.failures]
        # And the failure names its chain (primary crash + recovery step).
        bad = next(o for o in result.failures
                   if o.status == "divergent-recovery")
        assert bad.chain

    def test_early_clear_invisible_to_single_crash(self):
        """The control: at depth 1 the same mutant sails through — which
        is exactly why the nested-failure mode exists."""
        module = compile_capri(build_update_loop(n_iters=10, arr_words=8))
        muts = ProtocolMutations.single("recovery_early_clear")
        result = run_campaign(
            module, [("main", [])],
            _config(depth=1, mutations=muts), name="ul",
        )
        assert result.ok, result.failures[0]


class TestCheckedChains:
    def test_leaves_past_the_violation_cap_are_model_violations(self):
        """A point's chain leaves share one checker report.  Once it holds
        its cap of violations, later ones are only counted as suppressed,
        and a leaf judged on the recorded list alone fell through to the
        differential oracle as a plain mismatch.  Leaves are judged on
        both counts, and each leaf's detail describes only its own."""
        muts = ProtocolMutations.single("recovery_skip_redo")
        result = run_workload_campaign(
            "genome",
            _config(
                sample=2, depth=3, secondary_sample=None, check=True,
                mutations=muts,
            ),
            scale=0.05,
        )
        assert set(result.counts()) == {"ok", "model-violation"}
        past_cap = [
            o for o in result.outcomes
            if o.detail.startswith("persistency check FAILED — 0 violations (+")
        ]
        assert past_cap
        assert all(o.chain for o in past_cap)
        assert all(
            o.detail.startswith("persistency check FAILED — 1 violations ")
            or o in past_cap
            for o in result.failures
        )


class TestDeterminism:
    def test_same_seed_same_chains(self):
        module = compile_capri(build_update_loop(n_iters=8, arr_words=8))
        golden_cfg = dict(sample=5, depth=2, secondary_sample=4)
        a = run_campaign(module, [("main", [])], _config(seed=3, **golden_cfg))
        b = run_campaign(module, [("main", [])], _config(seed=3, **golden_cfg))
        assert [(o.event_index, o.chain, o.status) for o in a.outcomes] == [
            (o.event_index, o.chain, o.status) for o in b.outcomes
        ]

    def test_point_runner_returns_truncation(self):
        from repro.fault.models import get_models
        from repro.trace.replay import TraceCampaignSource

        module = compile_capri(build_update_loop(n_iters=8, arr_words=8))
        spawns = [("main", [])]
        cfg = _config(secondary_sample=None, max_chains_per_point=2)
        outcomes, truncated, _ = run_crash_point(
            module,
            spawns,
            40,
            get_models(["clean"]),
            cfg,
            TraceCampaignSource(module, spawns, cfg),
        )
        assert outcomes and truncated > 0


class TestReporting:
    @pytest.fixture(scope="class")
    def lenient_result(self):
        module = compile_capri(build_update_loop(n_iters=10, arr_words=8))
        cfg = CampaignConfig(
            models=("all",), strict=False, minimize=False,
            sample=10, depth=2, secondary_sample=3,
        )
        return run_campaign(module, [("main", [])], cfg, name="ul")

    def test_quarantine_detail_in_summary(self, lenient_result):
        assert lenient_result.ok, lenient_result.failures[0]
        text = lenient_result.summary()
        assert "depth=2" in text
        assert "quarantine detail:" in text

    def test_stats_payload_shape(self, lenient_result):
        stats = lenient_result.to_stats()
        assert stats["depth"] == 2
        assert stats["ok"] is True
        q = stats["quarantine"]
        assert {
            "quarantined_outcomes", "quarantined_entries",
            "fenced_cores", "tainted_addrs",
        } <= set(q)
        assert sum(stats["counts"].values()) == len(lenient_result.outcomes)
        json.dumps(stats)  # JSON-ready end to end

    def test_quarantined_outcomes_carry_detail(self, lenient_result):
        quarantined = [
            o for o in lenient_result.outcomes if o.status == "quarantined"
        ]
        assert quarantined
        assert any(
            o.quarantined_entries or o.fenced_cores or o.tainted_addrs
            for o in quarantined
        )


class TestCli:
    def test_multi_crash_cli_with_json(self, capsys, tmp_path):
        from repro.fault.cli import main

        out_path = tmp_path / "stats.json"
        rc = main([
            "--workload", "deep-call",
            "--scale", "0.05",
            "--sample", "5",
            "--depth", "2",
            "--secondary-sample", "3",
            "--json", str(out_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "depth=2" in out
        payload = json.loads(out_path.read_text())
        assert payload["command"] == "fault"
        stats = payload["data"]
        assert stats["ok"] is True and stats["depth"] == 2

    def test_depth_requires_positive(self):
        from repro.fault.cli import main

        with pytest.raises(SystemExit):
            main(["--workload", "deep-call", "--depth", "0"])

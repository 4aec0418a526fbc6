"""Dependency-recorded cache invalidation: the tentpole acceptance story.

A warm cache plus an edit in one subsystem must invalidate exactly the
entries whose runs exercised that subsystem.  Edits are simulated with
``REPRO_SUBSYSTEM_SALT`` (perturbs one subsystem's hash without touching
files), so these tests exercise the same validation path a real source
edit would.
"""

import pytest

from repro.api import ResultCache, RunSpec
from repro.compiler import OptConfig
from repro.deps import deps_token
from repro.sweep.cache import PRE_DEPS_KEY, PRE_DEPS_STALE
from repro.sweep.engine import run_specs

TINY = 0.05


def spec(**kw) -> RunSpec:
    base = dict(workload="ssca2", scale=TINY, config=OptConfig.licm(64))
    base.update(kw)
    return RunSpec(**base)


class TestCacheValidation:
    def test_entry_valid_while_deps_unchanged(self, tmp_path):
        store = ResultCache(tmp_path)
        store.put("fp", {"metrics": {}, "deps": deps_token(["arch", "core"])})
        assert store.get("fp") is not None
        assert store.stale == 0

    def test_dependent_subsystem_edit_invalidates(self, tmp_path, monkeypatch):
        store = ResultCache(tmp_path)
        store.put("fp", {"metrics": {}, "deps": deps_token(["arch", "core"])})
        monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", "arch=edited")
        assert store.get("fp") is None
        assert store.stale == 1
        assert store.stale_log[("runs", "fp")]["subsystems"] == ["arch"]

    def test_non_dependent_edit_leaves_entry_warm(self, tmp_path, monkeypatch):
        store = ResultCache(tmp_path)
        store.put("fp", {"metrics": {}, "deps": deps_token(["arch", "core"])})
        monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", "eval=edited")
        assert store.get("fp") is not None
        assert store.stale == 0

    @pytest.mark.parametrize("deps", [None, {}], ids=["no-deps", "empty-deps"])
    def test_pre_deps_entry_is_always_stale(self, tmp_path, deps):
        # Entries from before dependency recording carry only a
        # whole-tree version stamp: nothing can vouch for them, so they
        # are refused (and re-run), never trusted as-is.
        store = ResultCache(tmp_path)
        payload = {"metrics": {"exec_cycles": 1.0}, PRE_DEPS_KEY: "old"}
        if deps is not None:
            payload["deps"] = deps
        store.put("fp", payload)
        assert store.get("fp") is None
        assert store.get("fp") is None
        assert store.stale == 2 and store.hits == 0
        assert store.stale_log[("runs", "fp")] == {
            "subsystems": [PRE_DEPS_STALE],
            "metrics": {"exec_cycles": 1.0},
        }

    def test_entry_without_any_token_is_trusted(self, tmp_path):
        store = ResultCache(tmp_path)
        store.put("fp", {"metrics": {"exec_cycles": 1.0}})
        assert store.get("fp") is not None

    def test_deps_take_precedence_over_pre_deps_stamp(self, tmp_path):
        # A matching deps token keeps the entry valid even when it also
        # carries the old whole-tree stamp.
        store = ResultCache(tmp_path)
        token = deps_token(["eval"])
        store.put(
            "fp",
            {"metrics": {}, "deps": token, PRE_DEPS_KEY: "something-old"},
        )
        assert store.get("fp") is not None


class TestSweepInvalidation:
    def _warm(self, tmp_path):
        specs = [spec(), spec(threshold=256), spec().baseline()]
        report = run_specs(specs, cache=tmp_path)
        assert report.failures == 0
        return specs

    def test_eval_edit_keeps_simulations_warm(self, tmp_path, monkeypatch):
        specs = self._warm(tmp_path)
        # Simulated eval/-only edit: zero re-simulations, 100% warm.
        monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", "eval=post-pr-edit")
        report = run_specs(specs, cache=tmp_path)
        assert report.simulations == 0
        assert report.cache_hits == len(specs)

    def test_arch_edit_invalidates_every_simulation(
        self, tmp_path, monkeypatch
    ):
        specs = self._warm(tmp_path)
        monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", "arch=post-pr-edit")
        report = run_specs(specs, cache=tmp_path)
        # Every run simulates on the architecture, so all re-run.
        assert report.cache_hits == 0
        assert report.simulations == len(specs)

    def test_compiler_edit_spares_the_baseline(self, tmp_path, monkeypatch):
        specs = self._warm(tmp_path)
        monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", "compiler=post-pr-edit")
        report = run_specs(specs, cache=tmp_path)
        # The two instrumented runs recompiled; the volatile baseline
        # never touched the compiler and stays warm.
        assert report.simulations == 2
        assert report.cache_hits == 1

    def test_stored_payload_carries_deps_token(self, tmp_path):
        specs = self._warm(tmp_path)
        store = ResultCache(tmp_path)
        payload = store.get(specs[0].fingerprint())
        assert payload is not None
        deps = payload["deps"]
        assert {"arch", "compiler", "core", "workloads"} <= set(deps)
        assert all(len(h) == 16 for h in deps.values())


@pytest.mark.parametrize("salt", ["check=x", "fault=x", "litmus=x"])
def test_unexercised_subsystems_never_invalidate(tmp_path, monkeypatch, salt):
    specs = [spec()]
    assert run_specs(specs, cache=tmp_path).failures == 0
    monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", salt)
    report = run_specs(specs, cache=tmp_path)
    # The run and its derived baseline both stay warm.
    assert report.simulations == 0 and report.cache_hits == 2

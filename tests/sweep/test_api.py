"""Tests for the repro.api facade: RunSpec, fingerprints, execution."""

import dataclasses

import pytest

from repro.api import (
    RunSpec,
    execute_spec,
    metrics_from_dict,
    metrics_to_dict,
)
from repro.arch.params import PersistMode, SimParams
from repro.arch.system import run_workload
from repro.compiler import OptConfig

TINY = 0.05


def salt_everything(tag: str) -> str:
    """A ``REPRO_SUBSYSTEM_SALT`` value that moves every subsystem hash."""
    from repro.deps import SUBSYSTEMS

    return ",".join(f"{name}={tag}" for name in SUBSYSTEMS)


def spec(**kw) -> RunSpec:
    base = dict(workload="ssca2", scale=TINY, config=OptConfig.licm(64))
    base.update(kw)
    return RunSpec(**base)


class TestRunSpec:
    def test_frozen(self):
        s = spec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.scale = 1.0

    def test_effective_defaults(self):
        s = spec()
        assert s.effective_threshold == 64
        assert s.effective_params == SimParams.scaled()
        assert s.effective_persistence is True
        assert spec(config=OptConfig.volatile()).effective_persistence is False

    def test_baseline_spec(self):
        base = spec(seed=7, label="x").baseline()
        assert base.effective_persistence is False
        assert not base.config.instrumented
        assert base.seed == 0 and base.label == "baseline"
        assert base.workload == "ssca2" and base.scale == TINY

    def test_describe_names_the_hart_count(self):
        # Core scaling's baselines differ only in threads.
        names = [
            RunSpec(workload="ocean", threads=t, label=f"{t}c").baseline().describe()
            for t in (1, 2, 4, 8)
        ]
        assert len(set(names)) == 4
        assert names[2] == "ocean:t256:volatile:4harts:baseline"
        assert "harts" not in spec().describe()


class TestFingerprint:
    def test_stable_and_derived_defaults_collide(self):
        assert spec().fingerprint() == spec().fingerprint()
        # None params hash like their effective value.
        assert (
            spec(params=SimParams.scaled()).fingerprint() == spec().fingerprint()
        )

    def test_label_is_presentational(self):
        assert spec(label="a").fingerprint() == spec(label="b").fingerprint()

    @pytest.mark.parametrize(
        "change",
        [
            dict(workload="genome"),
            dict(scale=TINY * 2),
            dict(config=OptConfig.licm(32)),
            dict(config=OptConfig.ckpt(64)),
            dict(check=True),
            dict(params=SimParams.scaled().with_(nvm_write_ns=301.0)),
            dict(params=SimParams.scaled().with_(persist_mode=PersistMode.SYNC)),
            dict(quantum=16),
            dict(config=OptConfig.volatile()),
            dict(seed=1),
            dict(threads=2),
            dict(max_steps=1000),
        ],
    )
    def test_any_field_change_misses(self, change):
        assert spec(**change).fingerprint() != spec().fingerprint()

    def test_fingerprint_is_a_pure_parameter_address(self, monkeypatch):
        # Schema v2: the fingerprint is code-independent — a code bump
        # must NOT move the key (invalidation happens per-entry via the
        # stored deps token, see test_invalidation in tests/deps).
        monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", salt_everything("v1"))
        fp1 = spec().fingerprint()
        monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", salt_everything("v2"))
        assert spec().fingerprint() == fp1

    def test_code_bump_invalidates_cache_entries(self, monkeypatch, tmp_path):
        # The old schema-v1 guarantee, now delivered by validation: an
        # entry written under v1 is refused once the code moves.
        from repro.api import ResultCache
        from repro.deps import SUBSYSTEMS, deps_token

        monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", salt_everything("v1"))
        store = ResultCache(tmp_path / "cache")
        fp = spec().fingerprint()
        store.put(fp, {"metrics": {"exec_cycles": 1.0},
                       "deps": deps_token(SUBSYSTEMS)})
        assert store.get(fp) is not None
        monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", salt_everything("v2"))
        assert store.get(fp) is None
        assert store.stale == 1

    def test_canon_distinguishes_key_types(self):
        # Regression: stringified dict keys made {1: x} and {"1": x}
        # collide before schema v2 encoded the key type alongside.
        from repro.api import _canon

        assert _canon({1: "a"}) != _canon({"1": "a"})
        # ...while staying deterministic across mixed-type keys.
        assert _canon({1: "a", "2": "b"}) == _canon({"2": "b", 1: "a"})


class TestExecute:
    def test_execute_volatile_vs_instrumented(self):
        vol = execute_spec(spec(config=OptConfig.volatile()))
        capri = execute_spec(spec())
        assert vol.metrics.exec_cycles > 0
        assert capri.metrics.exec_cycles > vol.metrics.exec_cycles
        assert capri.metrics.proxy_entries > 0
        assert vol.metrics.proxy_entries == 0

    def test_metrics_dict_roundtrip_exact(self):
        import json

        m = execute_spec(spec()).metrics
        rebuilt = metrics_from_dict(json.loads(json.dumps(metrics_to_dict(m))))
        assert rebuilt == m

    def test_run_workload_rejects_junk(self):
        with pytest.raises(TypeError):
            run_workload(42)

    def test_run_workload_module_requires_spawns(self):
        from repro.workloads import get_workload

        module, _ = get_workload("ssca2").build(TINY)
        with pytest.raises(TypeError):
            run_workload(module)


class TestHarnessShim:
    def test_run_spec_volatile_normalizes_to_one(self):
        from repro.sweep import run_specs

        spec = RunSpec(
            workload="ssca2", scale=TINY, config=OptConfig.volatile(),
            params=SimParams.scaled(), label="volatile",
        )
        assert not spec.effective_persistence
        table = run_specs([spec], cache=None).table()
        result = table["ssca2"]["volatile"]
        assert result.metrics.exec_cycles == result.baseline_cycles
        assert result.normalized_cycles == 1.0


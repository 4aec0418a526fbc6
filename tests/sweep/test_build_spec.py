"""One path from a RunSpec to a program, and campaigns that leave no files.

:func:`repro.api.build_spec` is the only code that builds and compiles a
spec's workload.  These tests pin what every caller relies on: the
spec's ``threads`` and ``config`` reach the program, a campaign compiles
and captures its trace exactly once, and a fault campaign writes nothing
to the result cache (traces live only in memory).
"""

from __future__ import annotations

import pytest

from repro.api import RunSpec, build_spec
from repro.compiler import CapriCompiler, OptConfig
from repro.fault import cli as fault_cli
from repro.fault.campaign import CampaignConfig, run_workload_campaign
from repro.ir.printer import format_module
from repro.workloads import get_workload
from repro.workloads.registry import Workload

WORKLOAD = "genome"
SCALE = 0.05
THRESHOLD = 32
QUANTUM = 32


@pytest.fixture
def calls(monkeypatch):
    """Count workload builds, compiles and trace captures."""
    import repro.trace.record as record

    counts = {"build": 0, "compile": 0, "capture": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Workload, "build", counted("build", Workload.build))
    monkeypatch.setattr(
        CapriCompiler, "compile", counted("compile", CapriCompiler.compile)
    )
    monkeypatch.setattr(
        record, "capture_trace", counted("capture", record.capture_trace)
    )
    return counts


def campaign_config() -> CampaignConfig:
    return CampaignConfig(
        threshold=THRESHOLD, quantum=QUANTUM, sample=3, minimize=False
    )


class TestBuildSpec:
    def test_honours_threads(self):
        _, default = get_workload("barnes").build(SCALE)
        assert len(default) != 2
        _, spawns = build_spec(RunSpec(workload="barnes", scale=SCALE, threads=2))
        assert len(spawns) == 2

    def test_honours_config(self):
        built = {
            label: format_module(
                build_spec(
                    RunSpec(workload=WORKLOAD, scale=SCALE, config=config)
                )[0]
            )
            for label, config in (
                ("region", OptConfig.region(THRESHOLD)),
                ("licm", OptConfig.licm(THRESHOLD)),
            )
        }
        assert built["region"] != built["licm"]
        module, _ = get_workload(WORKLOAD).build(SCALE)
        reference = CapriCompiler(OptConfig.region(THRESHOLD)).compile(module)
        assert built["region"] == format_module(reference.module)

    def test_volatile_skips_the_compiler(self, calls):
        build_spec(
            RunSpec(workload=WORKLOAD, scale=SCALE, config=OptConfig.volatile())
        )
        assert calls["build"] == 1
        assert calls["compile"] == 0


class TestCampaignCompilesOnce:
    def test_uncached(self, calls):
        run_workload_campaign(WORKLOAD, campaign_config(), scale=SCALE)
        assert calls["compile"] == 1
        assert calls["capture"] == 1


def test_fault_campaign_leaves_the_cache_empty(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    argv = [
        "--workload", WORKLOAD,
        "--scale", str(SCALE),
        "--threshold", str(THRESHOLD),
        "--sample", "3",
    ]
    assert fault_cli.main(argv) == 0
    assert list(cache_dir.iterdir()) == []

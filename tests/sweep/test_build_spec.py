"""One path from a RunSpec to a program and a trace.

:func:`repro.api.build_spec` is the only code that builds and compiles a
spec's workload, and :func:`repro.trace.record.load_spec_trace` the only
code that loads a spec's trace or captures and stores it.  These tests
pin what every caller relies on: the spec's ``threads`` and ``config``
reach the program, the trace CLI and the fault campaign share one cache
entry in both directions, a campaign compiles exactly once whether its
trace is cold or warm, a warm hit builds nothing, and every cold capture
records the build, the compile and the capture as its dependencies.
"""

from __future__ import annotations

import json

import pytest

from repro.api import RunSpec, build_spec, trace_fingerprint
from repro.compiler import CapriCompiler, OptConfig
from repro.fault.campaign import CampaignConfig, run_workload_campaign
from repro.ir.printer import format_module
from repro.sweep.cache import ResultCache
from repro.trace import cli as trace_cli
from repro.trace.codec import load_trace
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


@pytest.fixture
def store(monkeypatch, tmp_path):
    """One result cache behind every ``"default"`` cache lookup."""
    import repro.sweep.cache as cache

    shared = ResultCache(tmp_path)
    monkeypatch.setattr(
        cache, "resolve_cache", lambda c="default": None if c is None else shared
    )
    return shared


def campaign_config() -> CampaignConfig:
    return CampaignConfig(
        threshold=THRESHOLD, quantum=QUANTUM, sample=3, minimize=False
    )


def run_campaign(store):
    return run_workload_campaign(
        WORKLOAD, campaign_config(), scale=SCALE, cache=store
    )


def cli_capture(tmp_path, name="capture.json"):
    out = tmp_path / name
    argv = [
        "capture",
        "--workload", WORKLOAD,
        "--scale", str(SCALE),
        "--threshold", str(THRESHOLD),
        "--quantum", str(QUANTUM),
        "--json", str(out),
    ]
    assert trace_cli.main(argv) == 0
    return json.loads(out.read_text())["data"]


def campaign_spec() -> RunSpec:
    """The spec a campaign keys its trace on."""
    return RunSpec(
        workload=WORKLOAD,
        scale=SCALE,
        config=OptConfig.licm(THRESHOLD),
        quantum=QUANTUM,
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


class TestSharedTraceCache:
    def test_cli_capture_serves_a_campaign(self, tmp_path, store, calls):
        assert cli_capture(tmp_path)["cached"] is False
        assert calls["capture"] == 1
        hits = store.hits
        run_campaign(store)
        assert store.hits == hits + 1
        assert calls["capture"] == 1

    def test_campaign_serves_cli_capture(self, tmp_path, store, calls):
        run_campaign(store)
        assert calls["capture"] == 1
        hits, builds = store.hits, calls["build"]
        assert cli_capture(tmp_path)["cached"] is True
        assert store.hits == hits + 1
        assert calls["capture"] == 1
        assert calls["build"] == builds  # a warm hit builds nothing


class TestCampaignCompilesOnce:
    def test_cold(self, store, calls):
        run_campaign(store)
        assert calls["compile"] == 1
        assert calls["capture"] == 1

    def test_warm(self, store, calls):
        run_campaign(store)
        calls.update(compile=0, capture=0)
        run_campaign(store)
        assert calls["compile"] == 1
        assert calls["capture"] == 0

    def test_uncached(self, calls):
        run_workload_campaign(
            WORKLOAD, campaign_config(), scale=SCALE, cache=None
        )
        assert calls["compile"] == 1
        assert calls["capture"] == 1


def test_stored_deps_cover_build_compile_and_capture(tmp_path, monkeypatch):
    import repro.sweep.cache as cache

    cli_store = ResultCache(tmp_path / "cli")
    monkeypatch.setattr(
        cache, "resolve_cache", lambda c="default": cli_store if c == "default" else c
    )
    cli_capture(tmp_path)
    campaign_store = ResultCache(tmp_path / "campaign")
    run_campaign(campaign_store)

    fingerprint = trace_fingerprint(campaign_spec())
    deps = {
        name: set(load_trace(s, fingerprint).meta["deps"])
        for name, s in (("cli", cli_store), ("campaign", campaign_store))
    }
    assert deps["cli"] == deps["campaign"]
    assert {"workloads", "compiler", "trace"} <= deps["cli"]

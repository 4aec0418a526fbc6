"""A run's dependencies: ``spec_deps`` and what ``execute_spec`` records."""

import pytest

from repro.api import RunSpec, execute_spec, spec_deps
from repro.compiler import OptConfig
from repro.deps import subsystem_for_path


class TestExecuteSpecIntegration:
    def test_execute_spec_records_exercised_subsystems(self):
        result = execute_spec(
            RunSpec(workload="ssca2", scale=0.05, config=OptConfig.licm(64))
        )
        deps = set(result.deps)
        # An instrumented run builds the workload, compiles it with
        # Capri, and simulates on the architecture.
        assert {"core", "workloads", "compiler", "arch"} <= deps
        assert "fault" not in deps

    def test_baseline_skips_compiler(self):
        result = execute_spec(
            RunSpec(
                workload="ssca2", scale=0.05, config=OptConfig.volatile()
            )
        )
        deps = set(result.deps)
        assert {"core", "workloads", "arch"} <= deps
        assert "compiler" not in deps


class TestSpecDeps:
    @pytest.mark.parametrize(
        "config, check, deps",
        [
            (OptConfig.volatile(), False, ("arch", "core", "workloads")),
            (OptConfig.licm(64), False, ("arch", "compiler", "core", "workloads")),
            (
                OptConfig.licm(64),
                True,
                ("arch", "check", "compiler", "core", "workloads"),
            ),
        ],
    )
    def test_set_follows_the_spec(self, config, check, deps):
        spec = RunSpec(workload="genome", scale=0.05, config=config, check=check)
        assert spec_deps(spec) == deps

    def test_baseline_depends_on_the_ir(self):
        # Every run builds its program in IR and executes IR
        # instructions, so an ir/ edit must invalidate a volatile
        # baseline as well as the instrumented runs.
        spec = RunSpec(workload="genome", scale=0.05, config=OptConfig.volatile())
        for relpath in ("ir/instructions.py", "ir/module.py", "ir/builder.py"):
            assert subsystem_for_path(relpath) in spec_deps(spec), relpath

    def test_execute_spec_stores_spec_deps(self):
        memo = {}
        spec = RunSpec(workload="genome", scale=0.05, config=OptConfig.licm(256))
        first = execute_spec(spec, memo)
        shared = execute_spec(
            RunSpec(workload="genome", scale=0.05, config=OptConfig.licm(512)),
            memo,
        )
        assert shared.shared  # served from the memo, not simulated
        assert first.deps == shared.deps == spec_deps(spec)

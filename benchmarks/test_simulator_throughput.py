"""Simulator-throughput benchmarks: events/second of the hot loops.

Not a paper figure — this measures the reproduction's own engineering,
so regressions to the interpreter or the persistence pipeline show up in
CI.  The functional machine and the full Capri system are measured
separately: their ratio is the cost of the architecture model.
"""

import pytest

from repro.arch.system import build_system
from repro.compiler import CapriCompiler, OptConfig
from repro.isa import Machine
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def compiled_workload():
    module, spawns = get_workload("519.lbm_r").build(scale=1.0)
    capri = CapriCompiler(OptConfig.licm(256)).compile(module).module
    return module, capri, spawns


def test_functional_machine_throughput(benchmark, compiled_workload):
    module, _, spawns = compiled_workload

    def run():
        machine = Machine(module)
        for fn, args in spawns:
            machine.spawn(fn, args)
        return machine.run()

    retired = benchmark(run)
    assert retired > 5_000
    # Record instructions/second for the report.
    benchmark.extra_info["instructions"] = retired


def test_full_system_throughput(benchmark, compiled_workload):
    _, capri, spawns = compiled_workload

    def run():
        machine, system = build_system(capri, spawns, threshold=256)
        retired = machine.run(system)
        system.finish()
        return retired

    retired = benchmark(run)
    assert retired > 5_000
    benchmark.extra_info["instructions"] = retired


def test_compiler_throughput(benchmark, compiled_workload):
    module, _, _ = compiled_workload
    compiler = CapriCompiler(OptConfig.licm(256))
    result = benchmark(lambda: compiler.compile(module))
    assert result.function_stats

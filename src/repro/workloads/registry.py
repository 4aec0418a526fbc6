"""Benchmark registry: name -> builder, organised by suite.

Suites and member order follow the x-axes of the paper's Figures 8-11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.deps import touch
from repro.ir.module import Module
from repro.workloads import kvstore, oskernel, probes, spec, splash, stamp

Spawns = List[Tuple[str, Sequence[int]]]


@dataclass(frozen=True)
class Workload:
    """One benchmark stand-in, ready to build at a given scale."""

    name: str
    suite: str
    builder: Callable  # (scale) -> Module | (Module, Spawns)
    multithreaded: bool = False
    #: default scale for the benchmark harness (tests use smaller).
    default_scale: float = 1.0

    def build(
        self, scale: float | None = None, threads: int | None = None
    ) -> Tuple[Module, Spawns]:
        """Build the uninstrumented module and its spawn list.

        ``threads`` overrides the hart count for multithreaded workloads
        (core-count scaling); single-threaded builders ignore it.
        """
        touch("workloads")  # usage-probe dependency recording
        s = self.default_scale if scale is None else scale
        if self.multithreaded and threads is not None:
            result = self.builder(s, threads=threads)
        else:
            result = self.builder(s)
        if isinstance(result, tuple):
            module, spawns = result
        else:
            module = result
            main = module.functions["main"]
            args = [int(400 * s)] if main.num_params == 1 else []
            spawns = [("main", args)]
        return module, spawns


#: Suite membership in the paper's figure order.
SUITES: Dict[str, List[str]] = {
    "cpu2017": [
        "505.mcf_r",
        "531.deepsjeng_r",
        "541.leela_r",
        "508.namd_r",
        "519.lbm_r",
    ],
    "stamp": ["genome", "intruder", "labyrinth", "ssca2", "vacation"],
    "splash3": [
        "barnes",
        "fmm",
        "ocean",
        "radiosity",
        "raytrace",
        "volrend",
        "water-nsquared",
        "water-spatial",
        "radix",
    ],
    "os": ["oskernel"],
}


_REGISTRY: Dict[str, Workload] = {}


def _register(name: str, suite: str, builder, multithreaded=False) -> None:
    _REGISTRY[name] = Workload(
        name=name, suite=suite, builder=builder, multithreaded=multithreaded
    )


_register("505.mcf_r", "cpu2017", spec.build_mcf)
_register("531.deepsjeng_r", "cpu2017", spec.build_deepsjeng)
_register("541.leela_r", "cpu2017", spec.build_leela)
_register("508.namd_r", "cpu2017", spec.build_namd)
_register("519.lbm_r", "cpu2017", spec.build_lbm)

_register("genome", "stamp", stamp.build_genome)
_register("intruder", "stamp", stamp.build_intruder)
_register("labyrinth", "stamp", stamp.build_labyrinth)
_register("ssca2", "stamp", stamp.build_ssca2)
_register("vacation", "stamp", stamp.build_vacation)

_register("barnes", "splash3", splash.build_barnes, multithreaded=True)
_register("fmm", "splash3", splash.build_fmm, multithreaded=True)
_register("ocean", "splash3", splash.build_ocean, multithreaded=True)
_register("radiosity", "splash3", splash.build_radiosity, multithreaded=True)
_register("raytrace", "splash3", splash.build_raytrace, multithreaded=True)
_register("volrend", "splash3", splash.build_volrend, multithreaded=True)
_register("water-nsquared", "splash3", splash.build_water_nsquared, multithreaded=True)
_register("water-spatial", "splash3", splash.build_water_spatial, multithreaded=True)
_register("radix", "splash3", splash.build_radix, multithreaded=True)

_register("oskernel", "os", oskernel.build_oskernel)

# Hardware-parameter probes: resolvable by name (the sweep engine's
# worker processes build workloads by registry name) but deliberately
# absent from SUITES, so the figure suites and ``workload_names`` are
# unchanged.
_register("stream-write", "probe", probes.build_stream_probe)
_register("hot-writeback", "probe", probes.build_hot_writeback_probe)
_register("deep-call", "probe", probes.build_deep_call_probe)

# Application workloads outside the paper's figure suites: first-class
# registry members (sweeps, fault campaigns, and the checker all
# resolve them by name) but, like the probes,
# deliberately absent from SUITES so the figure axes are unchanged.
_register("kv_store", "service", kvstore.build_kv_store)


def get_workload(name: str) -> Workload:
    """Look up one benchmark stand-in by its paper name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def workload_names() -> List[str]:
    return [name for members in SUITES.values() for name in members]


def suite_workloads(suite: str) -> List[Workload]:
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; known: {sorted(SUITES)}")
    return [get_workload(name) for name in SUITES[suite]]


def all_workloads() -> List[Workload]:
    return [get_workload(name) for name in workload_names()]

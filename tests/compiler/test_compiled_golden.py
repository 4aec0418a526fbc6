"""Golden fingerprints of the Capri compiler's output.

For every registry workload (scale 0.05), a sha256 over what the compiler
produces under the six Figure 8 thresholds and the Figure 9 ladder at
threshold 256, each verified by ``compile`` itself (every checkpointing
compile runs :mod:`repro.compiler.verify_capri`): the printed module
(recovery blocks included), ``CompileResult.function_stats``, and every
region's live-in set.  A pass or analysis change that alters any
instruction, statistic or checkpoint set fails here, naming the workload.
To re-pin after an intended output change, print :func:`workload_digest`
for each workload.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

import pytest

from repro.compiler import CapriCompiler, CompileResult, OptConfig
from repro.eval.figures import FIG8_THRESHOLDS
from repro.ir.printer import format_module
from repro.workloads import get_workload, workload_names

SCALE = 0.05
LADDER_THRESHOLD = 256


def golden_configs() -> List[OptConfig]:
    """Figure 8's thresholds, then the Figure 9 ladder, without repeats."""
    configs = [OptConfig.licm(t) for t in FIG8_THRESHOLDS]
    configs += OptConfig.ladder(LADDER_THRESHOLD).values()
    return list(dict.fromkeys(configs))


def render(result: CompileResult) -> str:
    parts = [
        format_module(result.module),
        json.dumps(result.function_stats, sort_keys=True),
    ]
    for func in result.module.functions.values():
        for region in func.meta.get("regions", []):
            parts.append(
                f"{func.name} #{region.region_id} {region.entry_block} "
                f"{sorted(region.live_in)}"
            )
    return "\n".join(parts)


def workload_digest(name: str) -> str:
    module, _ = get_workload(name).build(SCALE)
    h = hashlib.sha256()
    for config in golden_configs():
        result = CapriCompiler(config).compile(module)
        h.update(repr(config).encode())
        h.update(render(result).encode())
    return h.hexdigest()


GOLDEN: Dict[str, str] = {
    "505.mcf_r": "80f3bc413bb51dbbf49ade946ffcd442171f0f21b9eb15a65583815e032ae729",
    "531.deepsjeng_r": "5d449c861df7728f2e573419fe700776ed9fc400b7b7e22568030a203b4c480c",
    "541.leela_r": "c3fbf3ba07073d0d762b3b6e0323bba6b0b0cb0a6dfe8d199996289647a7d583",
    "508.namd_r": "ff2caabb1bd65a7ca16bf3dd05052a31f32ede60387dc7d03bb4bbeb5a00b509",
    "519.lbm_r": "34674204b637818ca61966313539d370e9d913f1c4d224ba4ddb8cb9f00aad84",
    "genome": "042ba367bea1bb4cfbf9bd4f94bf35f0b666a72893b90bf27b9bc8af8f86279f",
    "intruder": "98dabdb83ca56e730013f2b867cc0d4e7fe93a0024620adeb2b72e3113981896",
    "labyrinth": "03671db080dbe524c7d54f5a42afdfe711d2f3d2642e8ed9bff8d8939e037cc6",
    "ssca2": "fcb3f75de278e33f91ec0cb5403a73345a6746130fbf0827fdfeb17b1b5738c0",
    "vacation": "cd7e60612d246021bcbaf299b8b98ca824bcafa260830d747ef2bee99e02d040",
    "barnes": "e49ffadd769ea15ab2cb0bd685560258ff9eb59a5dd6830c74b77d3bb71de66c",
    "fmm": "cb70bf08360653ddb155d56f73778ebce89b7576bb51ba6d4b2b431ab4f29ff1",
    "ocean": "db2f88230760172719841ab0248b6fbbbc07c2a8f9042eb89168c0c57d7c666a",
    "radiosity": "f701c208a3421f653b666d0576b1728dcbe6c3828b83317abb50b38a41ff4431",
    "raytrace": "242b2effe3898df97fca3c61733c965c058ef9e458277c89109beada07562ff4",
    "volrend": "5482d1c765fbab179f95a52ca2d9ab4209a74e7529d856d1829bdabadd787e0e",
    "water-nsquared": "865f5f93bc1b36f4dfa675a670e864d199e2b1b3a62d3bfb094f693ad1875c0e",
    "water-spatial": "cbb739c42b923208445e591b37369db71a5d939b036ae883e1ab6195e005b3a2",
    "radix": "75799668dee8a78165a33d1421ee99c86239eed7223e7da33298590e1a2280ee",
    "oskernel": "6ee7fbc9299c7d6c491fad6d7e15386954ba4e2ab899c7f323b1be66c745bda9",
}


def test_every_registry_workload_is_pinned():
    assert sorted(GOLDEN) == sorted(workload_names())


@pytest.mark.parametrize("name", workload_names())
def test_compiled_output_matches_golden(name):
    assert workload_digest(name) == GOLDEN[name]


# ---------------------------------------------------------------------------
# Figure 8 scale: the exact compiles of a cold Figure 8 sweep
# ---------------------------------------------------------------------------

#: One sha256 over every registry workload at scale 1.0 under the six
#: Figure 8 thresholds, compiled from the inputs the sweep's
#: :func:`repro.api.build_spec` compiles (default ``RunSpec`` scale and
#: threads, no validation).  Ten of the twenty workloads compile to
#: different IR here than at scale 0.05, so this pins what the
#: scale-0.05 table above cannot.
FIG8_DIGEST = "7b9b70f1709ada6ea25f71a275c7f6d7583cfb84ec31c9be80e3f69edfaa2509"


def fig8_digest() -> str:
    from repro.api import RunSpec

    h = hashlib.sha256()
    for name in workload_names():
        for threshold in FIG8_THRESHOLDS:
            spec = RunSpec(workload=name, config=OptConfig.licm(threshold))
            module, _ = get_workload(name).build(spec.scale, threads=spec.threads)
            result = CapriCompiler(spec.effective_config).compile(module)
            h.update(f"{name} {threshold}\n".encode())
            h.update(render(result).encode())
    return h.hexdigest()


def test_figure8_scale_compiles_match_golden():
    assert fig8_digest() == FIG8_DIGEST

"""Golden campaign outcomes: every verdict of a pinned set of sweeps.

Each row is one fault campaign; its pin is the sha256 of the full
``CrashOutcome`` list, ``to_stats()`` and ``minimized``, so a change to
any crash point's status, detail, chain or quarantine figures moves it.
The rows are the CI ``repro fault`` sweeps (same workloads, scales and
knobs as ``.github/workflows/ci.yml``), a checked sweep of a planted
recovery bug (``recovery_skip_redo``), a depth-3 checked deep-call
sweep, and the planted non-idempotent recovery (``recovery_early_clear``)
at depths 2 and 3.  The pins were taken from the separate single- and
multi-crash point runners that :func:`~repro.fault.campaign.run_crash_point`
replaced, so they hold the merged routine to the old verdicts.

To re-pin after an intended verdict change, run this file as a script
(``PYTHONPATH=src python -m tests.arch.test_campaign_golden``) and say
in the change why each moved row moved.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict

import pytest

from repro.arch.persistence import ProtocolMutations
from repro.fault.campaign import (
    CampaignConfig,
    run_campaign,
    run_workload_campaign,
)

from tests.arch.conftest import build_update_loop, compile_capri

_LENIENT_ALL = dict(models=("all",), strict=False)

#: name -> (workload, scale, CampaignConfig overrides).  The workload
#: ``update-loop`` is the read-modify-write loop of tests/arch/conftest.
ROWS = {
    "genome-clean": ("genome", 0.05, dict(sample=50)),
    "genome-all-lenient": ("genome", 0.05, dict(sample=25, **_LENIENT_ALL)),
    "hot-writeback-all-lenient": (
        "hot-writeback", 0.2, dict(sample=40, **_LENIENT_ALL),
    ),
    "genome-check": ("genome", 0.05, dict(sample=25, check=True)),
    "genome-check-skip-redo": (
        "genome", 0.05,
        dict(sample=60, check=True, mutations="recovery_skip_redo"),
    ),
    "deep-call-depth2": (
        "deep-call", 0.1, dict(depth=2, sample=24, secondary_sample=8),
    ),
    "genome-depth2": (
        "genome", 0.05, dict(depth=2, sample=16, secondary_sample=6),
    ),
    "genome-depth2-all-lenient": (
        "genome", 0.05,
        dict(depth=2, sample=16, secondary_sample=6, **_LENIENT_ALL),
    ),
    "deep-call-depth2-all-lenient": (
        "deep-call", 0.1,
        dict(depth=2, sample=16, secondary_sample=6, **_LENIENT_ALL),
    ),
    "deep-call-depth3-check": (
        "deep-call", 0.1,
        dict(depth=3, sample=12, secondary_sample=4, check=True),
    ),
    "update-loop-early-clear-depth2": (
        "update-loop", None,
        dict(depth=2, sample=8, secondary_sample=5,
             mutations="recovery_early_clear"),
    ),
    "update-loop-early-clear-depth3": (
        "update-loop", None,
        dict(depth=3, sample=4, secondary_sample=3,
             mutations="recovery_early_clear"),
    ),
}

PINS: Dict[str, str] = {
    "genome-clean": "2480495a9aa515e87ee2050f53a8dadc78dc3a2e98333fcd4b1cb700dbdf8951",
    "genome-all-lenient": "02bd7817e0a5211dfef204c70fa13d35161ea2fe00d75f51242f81d735e65640",
    "hot-writeback-all-lenient": "135012639a011dd9ef7b60ced0008ae36f6577479e6b4fce21772c270df8a714",
    "genome-check": "57f332a85546539a77daff529a5e9aaea757d0cf638a5d23f8e4d80d8ddc98ef",
    "genome-check-skip-redo": "86df69d2bd8fb342db51c9e238a67753d13cc8f40ccbfecaaf6bc3362bf332e9",
    "deep-call-depth2": "96553495edb588473602524b007017ac888ffe82881f7b0d92f14917757a2317",
    "genome-depth2": "3aee1a53b88d23558964429c9d929bc720cbb50ee29d6461190031dc9ca98e97",
    "genome-depth2-all-lenient": "75a146b3549d8e2db4cc5a647cc3e6d508b9ef7d9b24b7fd7e6a1bfb5fe2229b",
    "deep-call-depth2-all-lenient": "96c48000224f57f3ab383c624e8dd9c6321170e415c5de81d67c888cdff20325",
    "deep-call-depth3-check": "a9e8d614e5b97ccb0d37c8085a81242d41498bf2bc1e8645abf3147c964f2106",
    "update-loop-early-clear-depth2": "a7689ece31d56ffebb89a34955a48f863db1a564adf42e09beaad1429965eee6",
    "update-loop-early-clear-depth3": "64f5806992df14eac3907604c8909183631f7a0abc5cf2a302b89064d062e07e",
}


def run_row(name: str):
    workload, scale, overrides = ROWS[name]
    overrides = dict(overrides)
    if "mutations" in overrides:
        overrides["mutations"] = ProtocolMutations.single(
            overrides["mutations"]
        )
    config = CampaignConfig(**overrides)
    if workload == "update-loop":
        module = compile_capri(build_update_loop(n_iters=10, arr_words=8))
        return run_campaign(module, [("main", [])], config, name=workload)
    return run_workload_campaign(workload, config, scale=scale, cache=None)


def digest(result) -> str:
    blob = "\n".join(
        [
            repr(result.outcomes),
            json.dumps(result.to_stats(), sort_keys=True),
            repr(result.minimized),
        ]
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def test_every_row_is_pinned():
    assert sorted(PINS) == sorted(ROWS)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_campaign_outcomes_match_pin(name):
    assert digest(run_row(name)) == PINS[name]


if __name__ == "__main__":
    for row in ROWS:
        print(f'    "{row}": "{digest(run_row(row))}",')

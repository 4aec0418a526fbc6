"""Golden fingerprints: schema drift must fail loudly.

These pin the *exact* fingerprint digests of known RunSpecs.  If any of
them moves, you changed the fingerprint schema — every cached result,
trace, and campaign golden in every user's cache directory silently
misses.  That can be the right call, but it must be deliberate:

1. bump ``_FINGERPRINT_SCHEMA`` in ``repro.api`` (and/or
   ``_TRACE_FINGERPRINT_SCHEMA`` in ``repro.trace.record``),
2. re-pin the digests below,
3. note the schema change in DESIGN.md.

Fingerprints are pure parameter addresses (schema v2): pinned digests
must be identical on every machine and under any ``REPRO_SUBSYSTEM_SALT``
environment, so these tests set it.
"""

import pytest

from repro.api import RunSpec, _FINGERPRINT_SCHEMA
from repro.compiler import OptConfig
from repro.trace.record import _TRACE_FINGERPRINT_SCHEMA, trace_fingerprint

GOLDEN_SPEC = RunSpec(workload="ssca2", scale=0.05, config=OptConfig.licm(64))

GOLDEN = "16b5f30dedfbe5cee6bd44c63ca40693c47d90230d7da61e8a051886b267ef23"
GOLDEN_SEEDED = (
    "1146ec3ad6da8f69c0bd463cbafe5ef18b99e50bfa08812e936589a07486fa92"
)
GOLDEN_BASELINE = (
    "2efb52c85972b4c3a4585d9a83b9c95f0f88775024b9f9eab4b035438769d38d"
)
GOLDEN_TRACE = (
    "0d49c902554a98f2960fbd36b7f1ad8d1f33a4152b01f851f4a4f448eb4ecf0e"
)


@pytest.fixture(autouse=True)
def hostile_environment(monkeypatch):
    """Fingerprints must ignore the subsystem-salt knob."""
    monkeypatch.setenv("REPRO_SUBSYSTEM_SALT", "arch=noise,eval=noise")


class TestGoldenFingerprints:
    def test_schema_version_pinned(self):
        assert _FINGERPRINT_SCHEMA == 2
        assert _TRACE_FINGERPRINT_SCHEMA == 2

    def test_run_fingerprint(self):
        assert GOLDEN_SPEC.fingerprint() == GOLDEN

    def test_seeded_quantum_fingerprint(self):
        s = RunSpec(
            workload="genome",
            scale=0.25,
            config=OptConfig.licm(32),
            quantum=16,
            seed=7,
        )
        assert s.fingerprint() == GOLDEN_SEEDED

    def test_baseline_fingerprint(self):
        assert GOLDEN_SPEC.baseline().fingerprint() == GOLDEN_BASELINE

    def test_trace_fingerprint(self):
        assert trace_fingerprint(GOLDEN_SPEC) == GOLDEN_TRACE

    def test_all_four_distinct(self):
        assert (
            len({GOLDEN, GOLDEN_SEEDED, GOLDEN_BASELINE, GOLDEN_TRACE}) == 4
        )

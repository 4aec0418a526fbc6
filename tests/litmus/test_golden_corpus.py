"""Golden litmus corpus: generator drift must fail loudly.

These pin the *exact* content hashes, shapes, and end-of-run allowed
outcome sets of the default corpus seeds (``repro litmus``'s
``DEFAULT_SEEDS``).  If any of them moves, you changed the generator
(or the oracle's commit/contribution rules) — the benchmark's
litmus-corpus digest moves, and any baseline numbers quoted in
EXPERIMENTS.md describe programs that no longer exist.  That can be the right call, but it must be deliberate
(mirroring ``tests/deps/test_golden_fingerprint.py``):

1. re-pin ``GOLDEN_PROGRAMS`` / ``GOLDEN_OUTCOMES`` below by running::

       PYTHONPATH=src python - <<'PY'
       from repro.litmus.generate import litmus_corpus
       from repro.litmus.oracle import oracle_snapshots
       from repro.trace.record import capture_trace
       for p in litmus_corpus(range(6)):
           print(p.seed, p.content_hash(), p.harts,
                 p.metadata["regions"], p.instr_counts())
       for seed in (0, 1):
           p = litmus_corpus([seed])[0]
           t = capture_trace(p.module, p.spawns, quantum=p.quantum)
           s = oracle_snapshots(t)[-1]
           print(seed, {hex(a): sorted(v) for a, v in s.allowed.items()})
       PY

2. bump the ``schema`` field in ``LitmusVerdict.to_payload`` if
   verdicts are no longer comparable,
3. note the change in DESIGN.md and re-measure EXPERIMENTS.md.
"""

from repro.litmus.generate import generate_program, litmus_corpus
from repro.litmus.oracle import oracle_snapshots

#: seed -> (content_hash, harts, regions, per-hart instruction counts).
GOLDEN_PROGRAMS = {
    0: ("ff93c21ce79c6638", 3, 2, [41, 40, 40]),
    1: ("ae1dd8b1cb0e1d3e", 2, 2, [41, 40]),
    2: ("63ec31e75998b84f", 2, 3, [47, 45]),
    3: ("cb5320298e16d6ac", 2, 3, [46, 45]),
    4: ("8a4d20eec7b8b027", 3, 3, [48, 44, 44]),
    5: ("7cdb86325112fb31", 2, 2, [42, 38]),
}

#: seed -> end-of-run allowed outcome sets (the canonical trace's final
#: oracle snapshot): addr -> sorted allowed values.
GOLDEN_OUTCOMES = {
    0: {
        0x10000: [10210, 20200, 30200],
        0x10040: [10221, 20211, 30211],
        0x10080: [20482],
        0x100C0: [40483],
        0x10100: [60484],
    },
    1: {
        0x10000: [10200, 20200],
        0x10040: [10211, 20211],
        0x10080: [20482],
        0x100C0: [40483],
    },
}


class TestGoldenPrograms:
    def test_content_hashes_pinned(self):
        for seed, (digest, harts, regions, counts) in GOLDEN_PROGRAMS.items():
            p = generate_program(seed)
            assert p.content_hash() == digest, f"seed {seed} drifted"
            assert p.harts == harts
            assert p.metadata["regions"] == regions
            assert p.instr_counts() == counts

    def test_all_six_distinct(self):
        assert len({d for d, *_ in GOLDEN_PROGRAMS.values()}) == 6


class TestGoldenOutcomes:
    def test_end_of_run_allowed_sets_pinned(self):
        from repro.trace.record import capture_trace

        for seed, expected in GOLDEN_OUTCOMES.items():
            p = generate_program(seed)
            trace = capture_trace(p.module, p.spawns, quantum=p.quantum)
            snap = oracle_snapshots(trace)[-1]
            got = {addr: sorted(vals) for addr, vals in snap.allowed.items()}
            assert got == expected, f"seed {seed} outcome sets drifted"


class TestExplorerCampaignAgreement:
    """The two engines must agree: any outcome the exhaustive-crash
    campaign actually *observes* on the faithful protocol must be in the
    bounded explorer's interleaving-closed allowed union (the explorer
    over-approximates the canonical schedule, never under)."""

    def test_campaign_outcomes_within_explorer_union(self):
        from repro.arch.recovery import recover
        from repro.fault.campaign import CampaignConfig
        from repro.litmus.explore import explore_program
        from repro.litmus.matrix import litmus_params
        from repro.trace.replay import TraceCampaignSource

        for seed in (0, 1):
            p = generate_program(seed)
            explored = explore_program(p, max_schedules=60, pipeline_schedules=0)
            config = CampaignConfig(
                threshold=32,
                quantum=p.quantum,
                params=litmus_params(),
            )
            source = TraceCampaignSource(p.module, p.spawns, config)
            stride = max(1, len(source.trace) // 24)
            for k in range(0, len(source.trace), stride):
                state, _io, _facade = source.capture_at(k)
                if state is None:
                    break
                recovered = recover(state, p.module, strict=False)
                for addr in p.addrs:
                    got = recovered.nvm_image.get(addr, 0)
                    assert explored.allows(addr, got), (
                        f"seed {seed} crash {k}: recovered "
                        f"{hex(addr)}={got} outside the explorer union"
                    )

    def test_matrix_verdicts_clean_across_corpus(self):
        """The full acceptance gate at test scale: zero forbidden
        outcomes over the pinned corpus under the default regime."""
        from repro.litmus.matrix import run_litmus_program

        for p in litmus_corpus(range(3)):
            verdict = run_litmus_program(p)
            assert verdict.ok, (p.seed, verdict.witness)

"""The headline result — per-suite overheads at the default threshold.

Paper (abstract / Section 1.4): Capri achieves whole-system persistence
at 0% (SPEC CPU2017), 12.4% (STAMP) and 9.1% (Splash-3) overhead in
geometric mean, 5.1% overall, at the default threshold of 256.

Our substrate is a cost-model simulator over synthetic stand-ins (declared
band repro=3), so we assert the *band*: every suite lands in low single
digits to low teens, and the overall gmean is single-digit — same story,
not the same decimals.  EXPERIMENTS.md records paper-vs-measured values.
"""

from repro.eval.figures import headline

PAPER = {"cpu2017": 0.0, "stamp": 12.4, "splash3": 9.1, "overall": 5.1}


def test_headline_suite_overheads(benchmark, harness):
    overheads = benchmark.pedantic(
        lambda: headline(threshold=256, harness=harness), rounds=1, iterations=1
    )
    # Headline band: lightweight WSP — single digits overall.
    assert 0.0 <= overheads["overall"] < 10.0, overheads
    # Every suite is within [0%, 20%): "failure atomicity on the cheap".
    for suite, pct in overheads.items():
        assert 0.0 <= pct < 20.0, (suite, overheads)
    # SPEC CPU2017 is the cheapest or near-cheapest suite in the paper
    # (0%); allow a small margin over the others.
    assert overheads["cpu2017"] < max(overheads["stamp"], overheads["splash3"]) + 5.0

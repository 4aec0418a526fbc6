"""Tests for the workload profiler — including the shape claims DESIGN.md
makes about the stand-ins, asserted quantitatively."""

import pytest

from repro.eval.profile import (
    CharacterizationObserver,
    WorkloadProfile,
    main,
    profile_workload,
)

SCALE = 0.3


@pytest.fixture(scope="module")
def profiles():
    names = [
        "519.lbm_r",
        "531.deepsjeng_r",
        "505.mcf_r",
        "508.namd_r",
        "oskernel",
        "radix",
    ]
    return {n: profile_workload(n, scale=SCALE) for n in names}


class TestObserver:
    def test_counts_and_working_set(self):
        obs = CharacterizationObserver()
        obs.on_retire(0, "BinOp")
        obs.on_retire(0, "Load")
        obs.on_load(0, 0x100, 0)
        obs.on_retire(0, "Store")
        obs.on_store(0, 0x108, 1, 0)
        assert obs.retired == 3
        assert obs.loads == 1 and obs.stores == 1
        assert obs.lines_touched == 1  # same 64B line
        obs.on_load(0, 0x1000, 0)
        assert obs.lines_touched == 2


class TestShapeClaims:
    """DESIGN.md's substitution table, checked against measurements."""

    def test_lbm_is_most_store_dense(self, profiles):
        lbm = profiles["519.lbm_r"].store_density
        assert lbm > 10
        for name, p in profiles.items():
            if name != "519.lbm_r":
                assert lbm > p.store_density, name

    def test_call_dense_workloads(self, profiles):
        # deepsjeng (recursion) and oskernel (syscalls) are the call-heavy
        # shapes; loop kernels make essentially no calls.
        assert profiles["531.deepsjeng_r"].call_density > 3
        assert profiles["oskernel"].call_density > 3
        assert profiles["519.lbm_r"].call_density < 1
        assert profiles["508.namd_r"].call_density < 1

    def test_mcf_is_load_heavy_pointer_chaser(self, profiles):
        mcf = profiles["505.mcf_r"]
        assert mcf.load_density > mcf.store_density

    def test_call_dense_code_has_short_regions(self, profiles):
        # Calls are mandatory boundaries: regions can't grow past them.
        assert (
            profiles["oskernel"].avg_region_instrs
            < profiles["519.lbm_r"].avg_region_instrs / 3
        )

    def test_region_stores_below_threshold(self, profiles):
        for name, p in profiles.items():
            assert p.avg_region_stores <= 256, name

    def test_ckpt_fraction_reasonable(self, profiles):
        for name, p in profiles.items():
            assert 0.0 <= p.ckpt_fraction < 0.25, name


class TestCLI:
    def test_main_single_workload(self, capsys):
        rc = main(["radix", "--scale", str(SCALE)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "radix" in out
        assert "st/100" in out

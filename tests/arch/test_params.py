"""Tests that the default configuration matches the paper's Table 1."""

import pytest

from repro.arch.params import PersistMode, SimParams


class TestTable1:
    """Each row of Table 1, asserted against the defaults."""

    def setup_method(self):
        self.p = SimParams.paper()

    def test_clock_2ghz(self):
        assert self.p.clock_ghz == 2.0

    def test_l1_32kb_8way(self):
        assert self.p.l1_size_bytes == 32 * 1024
        assert self.p.l1_assoc == 8

    def test_l1_2ns_hit(self):
        assert self.p.l1_hit_ns == 2.0
        assert self.p.l1_hit_cycles == 4.0  # 2ns @ 2GHz

    def test_l2_16mb_16way_20ns(self):
        assert self.p.l2_size_bytes == 16 * 1024 * 1024
        assert self.p.l2_assoc == 16
        assert self.p.l2_hit_ns == 20.0

    def test_dram_cache_8gb(self):
        assert self.p.dram_cache_size_bytes == 8 * 1024**3

    def test_nvm_latencies(self):
        assert self.p.nvm_read_ns == 150.0
        assert self.p.nvm_write_ns == 300.0

    def test_wpq_16_entries(self):
        assert self.p.wpq_entries == 16

    def test_proxy_path_20ns(self):
        assert self.p.proxy_path_ns == 20.0

    def test_frontend_32_entries(self):
        assert self.p.frontend_entries == 32

    def test_backend_sized_by_threshold(self):
        # Section 6.1: back-end entries = compiler threshold (+1 for the
        # boundary delimiter slot in our model).
        assert self.p.backend_capacity(256) == 257
        assert self.p.backend_capacity(32) == 33

    def test_line_64b(self):
        assert self.p.line_bytes == 64


class TestDerived:
    def test_ns_to_cycles(self):
        p = SimParams.paper()
        assert p.ns_to_cycles(10) == 20.0

    def test_nvm_write_interval(self):
        p = SimParams.paper()
        assert p.nvm_write_interval_cycles == p.nvm_write_cycles / p.nvm_write_parallelism

    def test_line_counts(self):
        p = SimParams.paper()
        assert p.l1_lines == 32 * 1024 // 64
        assert p.l2_lines == 16 * 1024 * 1024 // 64

    def test_scaled_preserves_latencies(self):
        paper, scaled = SimParams.paper(), SimParams.scaled()
        assert scaled.l1_hit_ns == paper.l1_hit_ns
        assert scaled.nvm_write_ns == paper.nvm_write_ns
        assert scaled.proxy_path_ns == paper.proxy_path_ns
        assert scaled.frontend_entries == paper.frontend_entries

    def test_scaled_shrinks_capacities(self):
        paper, scaled = SimParams.paper(), SimParams.scaled()
        assert scaled.l1_size_bytes < paper.l1_size_bytes
        assert scaled.l2_size_bytes < paper.l2_size_bytes
        assert scaled.dram_cache_size_bytes < paper.dram_cache_size_bytes

    def test_with_updates(self):
        p = SimParams.paper().with_(persist_mode=PersistMode.SYNC)
        assert p.persist_mode is PersistMode.SYNC
        assert p.l1_size_bytes == SimParams.paper().l1_size_bytes

    def test_backend_override(self):
        p = SimParams.paper().with_(backend_entries=512)
        assert p.backend_capacity(256) == 513

    def test_tight_is_scaled_with_tiny_caches_and_a_throttled_port(self):
        scaled, tight = SimParams.scaled(), SimParams.tight()
        assert tight == scaled.with_(
            l1_size_bytes=512,
            l2_size_bytes=1024,
            dram_cache_size_bytes=1024,
            nvm_write_parallelism=8,
        )
        assert tight.nvm_write_ns == scaled.nvm_write_ns

"""The litmus generator's structural guarantees (generate.py docstring)."""

import pytest

from repro.ir.instructions import CheckpointStore, RegionBoundary, Ret, Store
from repro.ir.values import Imm
from repro.litmus.generate import (
    LITMUS_QUANTUM,
    generate_program,
    litmus_corpus,
    private_addr,
    shared_addr,
    value_tag,
)


class TestDeterminism:
    def test_same_seed_same_program(self):
        a, b = generate_program(17), generate_program(17)
        assert a.content_hash() == b.content_hash()
        assert a.text() == b.text()
        assert a.spawns == b.spawns

    def test_different_seeds_differ(self):
        hashes = {generate_program(s).content_hash() for s in range(20)}
        assert len(hashes) > 10  # collisions only via identical rng draws

    def test_corpus_is_orderwise(self):
        corpus = litmus_corpus((3, 1))
        assert [p.seed for p in corpus] == [3, 1]


class TestStructure:
    @pytest.mark.parametrize("seed", range(8))
    def test_shape_invariants(self, seed):
        p = generate_program(seed)
        assert p.harts in (2, 3)
        assert len(p.spawns) == p.harts
        assert p.quantum == LITMUS_QUANTUM
        regions = p.metadata["regions"]
        assert regions in (2, 3)
        for name, args in p.spawns:
            func = p.module.functions[name]
            # straight-line: exactly one block, ending in ret
            assert len(func.blocks) == 1
            assert isinstance(func.entry.instrs[-1], Ret)
            boundaries = [
                i for i in func.entry.instrs if isinstance(i, RegionBoundary)
            ]
            assert len(boundaries) == regions
            ckpts = [
                i for i in func.entry.instrs if isinstance(i, CheckpointStore)
            ]
            assert len(ckpts) == regions

    @pytest.mark.parametrize("seed", range(8))
    def test_stores_are_immediate_and_tagged(self, seed):
        p = generate_program(seed)
        seen = set()
        for name, _ in p.spawns:
            for i in p.module.functions[name].entry.instrs:
                if isinstance(i, Store) and isinstance(i.value, Imm):
                    assert isinstance(i.addr, Imm)
                    assert i.addr.value in p.shared_addrs
                    # unique tags: collision-free allowed-set membership
                    assert i.value.value not in seen
                    seen.add(i.value.value)

    def test_shared_words_are_contended(self):
        p = generate_program(0)
        # hart 0 pins slot 0 every region; at least one shared word is
        # written by more than one hart for every generated program.
        writers = {}
        for h, (name, _) in enumerate(p.spawns):
            for i in p.module.functions[name].entry.instrs:
                if isinstance(i, Store) and isinstance(i.value, Imm):
                    writers.setdefault(i.addr.value, set()).add(h)
        assert any(len(w) > 1 for w in writers.values())

    def test_address_layout_is_line_disjoint(self):
        assert shared_addr(1) - shared_addr(0) == 64
        assert private_addr(0) > shared_addr(1)
        p = generate_program(2)
        assert len(set(p.addrs)) == len(p.addrs)

    def test_value_tags_unique_across_space(self):
        tags = {
            value_tag(h, r, s)
            for h in range(3)
            for r in range(4)
            for s in range(100)
        }
        assert len(tags) == 3 * 4 * 100


class TestSeedArgumentParsing:
    """The CLI's --seeds grammar: comma lists with a-b ranges."""

    def test_lists_ranges_and_mixtures(self):
        from repro.litmus.cli import DEFAULT_SEEDS, _parser, _seed_list

        def seeds(*argv):
            return _seed_list(_parser().parse_args(["run", *argv]))

        assert seeds("--seeds", "0,1,2") == [0, 1, 2]
        assert seeds("--seeds", "0-5") == [0, 1, 2, 3, 4, 5]
        assert seeds("--seeds", "0,3,5-8") == [0, 3, 5, 6, 7, 8]
        assert seeds("--seeds", " 1 , 4-4 ") == [1, 4]
        assert seeds("--count", "2") == [0, 1]
        assert seeds() == list(DEFAULT_SEEDS)

"""Tests for liveness and reaching definitions."""

import pytest

from repro.ir import (
    CFG,
    IRBuilder,
    compute_liveness,
    compute_reaching_defs,
)
from repro.ir.values import Reg


class TestLiveness:
    def test_straightline(self):
        b = IRBuilder("m")
        with b.function("f", params=["a"]) as f:
            x = f.add(f.param(0), 1)
            y = f.add(x, 2)
            f.ret(y)
        func = b.module.function("f")
        lv = compute_liveness(func)
        assert lv.live_in["entry"] == {0}
        assert lv.live_out["entry"] == frozenset()

    def test_loop_carried_values_live_at_header(self):
        b = IRBuilder("m")
        with b.function("f", params=["n"]) as f:
            acc = f.li(0)
            with f.for_range(f.param(0)) as i:
                f.add(acc, i, dst=acc)
            f.ret(acc)
        func = b.module.function("f")
        cfg = CFG(func)
        from repro.ir import natural_loops

        header = natural_loops(cfg)[0].header
        lv = compute_liveness(func, cfg)
        # n, acc, i all live at the loop header
        assert {0, acc.index}.issubset(lv.live_in[header])

    def test_dead_value_not_live(self):
        b = IRBuilder("m")
        with b.function("f", params=["a"]) as f:
            f.add(f.param(0), 1)  # dead
            f.ret(f.param(0))
        func = b.module.function("f")
        lv = compute_liveness(func)
        assert lv.live_in["entry"] == {0}

    def test_branch_merges_liveness(self):
        b = IRBuilder("m")
        with b.function("f", params=["c", "x", "y"]) as f:
            r = f.reg()
            with f.if_else(f.cmp("sgt", f.param(0), 0)) as h:
                f.move(r, f.param(1))  # uses x on the then-path
                h.otherwise()
                f.move(r, f.param(2))  # uses y on the else-path
            f.ret(r)
        func = b.module.function("f")
        lv = compute_liveness(func)
        # c, x, y all live into the entry block (both branch paths merge).
        assert {0, 1, 2}.issubset(lv.live_in["entry"])

    def test_live_before_index(self):
        b = IRBuilder("m")
        with b.function("f", params=["a", "b"]) as f:
            x = f.add(f.param(0), f.param(1))  # idx 0
            y = f.mul(x, x)  # idx 1
            f.ret(y)  # idx 2
        func = b.module.function("f")
        lv = compute_liveness(func)
        # Before instr 0: a, b live.
        assert lv.live_before_index(func, "entry", 0) == {0, 1}
        # Before instr 1: only x live.
        assert lv.live_before_index(func, "entry", 1) == {2}
        # Before ret: only y live.
        assert lv.live_before_index(func, "entry", 2) == {3}

    def test_live_before_index_bounds(self):
        b = IRBuilder("m")
        with b.function("f") as f:
            f.ret()
        func = b.module.function("f")
        lv = compute_liveness(func)
        with pytest.raises(IndexError):
            lv.live_before_index(func, "entry", 5)


class TestReachingDefs:
    def test_single_def_reaches_use(self):
        b = IRBuilder("m")
        with b.function("f", params=["a"]) as f:
            x = f.add(f.param(0), 1)  # def at entry[0]
            f.ret(x)
        func = b.module.function("f")
        rd = compute_reaching_defs(func)
        sites = rd.reaching_defs_of(func, "entry", 1, x.index)
        assert sites == {("entry", 0, x.index)}

    def test_redefinition_kills(self):
        b = IRBuilder("m")
        with b.function("f") as f:
            x = f.li(1)  # entry[0]
            f.li(2, dst=x)  # entry[1] kills entry[0]
            f.ret(x)
        func = b.module.function("f")
        rd = compute_reaching_defs(func)
        sites = rd.reaching_defs_of(func, "entry", 2, x.index)
        assert sites == {("entry", 1, x.index)}

    def test_branch_merges_defs(self):
        b = IRBuilder("m")
        with b.function("f", params=["c"]) as f:
            x = f.reg()
            with f.if_else(f.cmp("sgt", f.param(0), 0)) as h:
                f.move(x, 1)
                h.otherwise()
                f.move(x, 2)
            f.ret(x)
        func = b.module.function("f")
        rd = compute_reaching_defs(func)
        # At the join, both defs reach.
        end_label = [l for l in func.blocks if l.startswith("if.end")][0]
        sites = rd.reaching_defs_of(func, end_label, 0, x.index)
        assert len(sites) == 2

    def test_param_has_no_reaching_def(self):
        b = IRBuilder("m")
        with b.function("f", params=["a"]) as f:
            f.ret(f.param(0))
        func = b.module.function("f")
        rd = compute_reaching_defs(func)
        assert rd.reaching_defs_of(func, "entry", 0, 0) == frozenset()

    def test_defs_of_index(self):
        b = IRBuilder("m")
        with b.function("f") as f:
            x = f.li(1)
            f.li(2, dst=x)
            f.ret()
        func = b.module.function("f")
        rd = compute_reaching_defs(func)
        assert len(rd.defs_of[x.index]) == 2


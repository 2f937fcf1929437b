"""Set-associative LRU cache model and solver-backed leak check."""

import random

import pytest

from conftest import path_of
from specsim.cache import (CacheConfig, CacheState, NO_LEAK, leak_check,
                           observable_expr)
from specsim.expr import Const, coerce, const, evaluate, mk_binop, sym
from specsim.solver import BudgetExceeded


class TestCacheState:
    def test_miss_then_hit(self):
        c = CacheState(CacheConfig())
        assert c.access(0x1000).hit is False
        assert c.access(0x1000).hit is True
        assert c.access(0x103F).hit is True   # same 64-byte line
        assert c.access(0x1040).hit is False  # next line

    def test_set_indexing(self):
        cfg = CacheConfig(line_size=64, sets=4, ways=1)
        c = CacheState(cfg)
        c.access(0)             # line 0, set 0
        r = c.access(4 * 64)    # line 4, same set: evicts line 0
        assert r.evicted == 0
        assert c.access(0).hit is False

    def test_lru_order_within_set(self):
        cfg = CacheConfig(line_size=64, sets=1, ways=2)
        c = CacheState(cfg)
        c.access(0 * 64)
        c.access(1 * 64)
        c.access(0 * 64)              # refresh line 0
        evicted = c.access(2 * 64).evicted
        assert evicted == 1           # line 1 was least recently used

    def test_matches_reference_lru(self):
        cfg = CacheConfig(line_size=64, sets=4, ways=2)
        c = CacheState(cfg)
        ref = {i: [] for i in range(4)}  # MRU-first line lists
        rng = random.Random(7)
        for _ in range(3_000):
            addr = rng.randrange(1 << 16)
            line = addr // 64
            entries = ref[line % 4]
            expect_hit = line in entries
            if expect_hit:
                entries.remove(line)
            entries.insert(0, line)
            del entries[2:]
            assert c.access(addr).hit == expect_hit

    def test_clone_independent(self):
        c = CacheState(CacheConfig())
        c.access(0x1000)
        d = c.clone()
        d.access(0x2000)
        assert c != d and sum(map(len, c.sets)) == 1

    @pytest.mark.parametrize("kwargs", [
        {"line_size": 0}, {"line_size": 48}, {"sets": 3}, {"ways": 0},
        {"granularity": "page"},
    ])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            CacheConfig(**kwargs)


class TestObservable:
    def test_line_granularity_is_address_over_line_size(self):
        a = sym("a", 32)
        obs = observable_expr(a, CacheConfig(line_size=64))
        assert evaluate(obs, _model(a=0x1085)) == 0x1085 // 64

    def test_set_granularity_masks_set_bits(self):
        a = sym("a", 32)
        obs = observable_expr(a, CacheConfig(line_size=64, sets=4,
                                             granularity="set"))
        assert evaluate(obs, _model(a=0x1085)) == (0x1085 // 64) % 4

    def test_concrete_address_folds_to_const(self):
        obs = observable_expr(const(0x1085, 32), CacheConfig())
        assert isinstance(obs, Const)


def _model(**kv):
    from specsim.expr import Model
    return Model(kv)


class TestLeakCheck:
    CFG = CacheConfig()

    def test_untainted_address_is_clean(self):
        a = sym("a", 32)
        assert leak_check(a, path_of(()), self.CFG) is NO_LEAK

    def test_secret_index_leaks_with_distinct_lines(self):
        k = sym("k", 8, secret=True)
        addr = mk_binop("add", const(0x1000, 32),
                        mk_binop("mul", coerce(k, 32), const(64, 32)))
        r = leak_check(addr, path_of(()), self.CFG)
        assert r.positive
        m1, m2 = r.witness
        i1, i2 = evaluate(r.observable, m1), evaluate(r.observable, m2)
        assert i1 != i2
        # the lines of the two secrets the witness picked
        assert {i1, i2} == {(0x1000 + 64 * m.assignment["k"]) // 64
                            for m in (m1, m2)}

    def test_sub_line_secret_offset_is_clean(self):
        # secret selects a byte within one cache line: nothing observable
        k = sym("k", 8, secret=True)
        addr = mk_binop("add", const(0x1000, 32),
                        mk_binop("and", coerce(k, 32), const(0x3F, 32)))
        assert leak_check(addr, path_of(()), self.CFG).positive is False

    def test_set_granularity_hides_aliased_lines(self):
        # two lines that map to the same set are indistinguishable in
        # set granularity but distinct in line granularity
        k = sym("k", 8, secret=True)
        bit = mk_binop("and", coerce(k, 32), const(1, 32))
        addr = mk_binop("mul", bit, const(4 * 64, 32))  # line 0 or line 4
        line_cfg = CacheConfig(line_size=64, sets=4)
        set_cfg = CacheConfig(line_size=64, sets=4, granularity="set")
        assert leak_check(addr, path_of(()), line_cfg).positive
        assert leak_check(addr, path_of(()), set_cfg).positive is False

    def test_budget_overrun_degrades_to_unknown(self):
        ks = [sym(f"k{i}", 8, secret=True) for i in range(4)]
        addr = const(0, 32)
        for k in ks:
            addr = mk_binop("add", addr, coerce(k, 32))
        addr = mk_binop("mul", addr, const(64, 32))
        r = leak_check(addr, path_of((), bit_budget=16), self.CFG)
        assert r.status == "unknown" and not r.positive and r.witness is None
        # the solver's overrun travels with the result, without a traceback
        assert isinstance(r.error, BudgetExceeded)
        assert str(r.error) == "32 symbolic bits exceed budget 16"
        assert r.error.__traceback__ is None

    def test_path_condition_restricts_pairs(self):
        k = sym("k", 8, secret=True)
        addr = mk_binop("mul", coerce(k, 32), const(64, 32))
        pinned = (mk_binop("eq", coerce(k, 32), const(5, 32)),)
        assert leak_check(addr, path_of(pinned), self.CFG).positive is False

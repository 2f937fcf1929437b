"""Direction predictor, BTB, static fallback, and composite prediction,
with the sparse tables checked against dense reference models."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from specsim.predictor import (PRESETS, Btb, PredictorConfig, PredictorState,
                               TwoLevel, preset)


class TestTwoLevel:
    def test_bhr_0111_counter_10_predicts_taken(self):
        t = TwoLevel(4)
        t.bhr = 0b0111
        t.pht[0b0111] = 2
        assert t.predict() is True

    def test_counter_below_weak_predicts_not_taken(self):
        t = TwoLevel(4)
        t.bhr = 0b0111
        t.pht[0b0111] = 1
        assert t.predict() is False

    def test_counters_saturate(self):
        t = TwoLevel(1, init_counter=2)
        for _ in range(10):
            t.update(True)
        assert max(t.counter(i) for i in range(2)) == 3
        t2 = TwoLevel(1, init_counter=1)
        for _ in range(10):
            t2.update(False)
        assert min(t2.counter(i) for i in range(2)) == 0

    def test_update_trains_the_indexing_entry(self):
        t = TwoLevel(2, init_counter=2)
        t.update(False)          # pht[0] 2 -> 1, bhr -> 0b00
        assert t.counter(0) == 1 and t.bhr == 0
        t.update(True)           # pht[0] 1 -> 2, bhr -> 0b01
        assert t.counter(0) == 2 and t.bhr == 1

    def test_bhr_shift_fidelity_over_outcome_log(self):
        rng = random.Random(1234)
        for n in (1, 4, 8):
            t = TwoLevel(n)
            log = []
            for _ in range(10_000):
                taken = rng.random() < 0.5
                log.append(taken)
                t.update(taken)
                # reference: the BHR is exactly the last n outcomes,
                # most recent in bit 0
                expect = 0
                for i, o in enumerate(reversed(log[-n:])):
                    expect |= int(o) << i
                assert t.bhr == expect

    def test_clone_is_independent(self):
        t = TwoLevel(2)
        c = t.clone()
        c.update(True)
        assert t != c and t.bhr == 0


class ReferenceBtb:
    """Independent dict/list LRU model used as the oracle."""

    def __init__(self, sets, ways, tag_bits):
        self.sets, self.ways, self.tag_bits = sets, ways, tag_bits
        self.mem = {i: [] for i in range(sets)}  # list of (tag, target), MRU first

    def _key(self, pc):
        return pc % self.sets, (pc >> (self.sets.bit_length() - 1)) % (1 << self.tag_bits)

    def lookup(self, pc):
        s, tag = self._key(pc)
        for i, (t, tgt) in enumerate(self.mem[s]):
            if t == tag:
                self.mem[s].insert(0, self.mem[s].pop(i))
                return tgt
        return None

    def install(self, pc, target):
        s, tag = self._key(pc)
        self.mem[s] = [(t, g) for t, g in self.mem[s] if t != tag]
        self.mem[s].insert(0, (tag, target))
        self.mem[s] = self.mem[s][:self.ways]


class TestBtb:
    def test_miss_then_hit(self):
        b = Btb(4)
        assert b.lookup(10) is None
        b.install(10, 99)
        assert b.lookup(10) == 99

    def test_alias_same_set_same_tag(self):
        # sets=1, tag_bits=4: pcs 14 and 30 share set 0 and tag 14
        b = Btb(1, tag_bits=4)
        b.install(14, 7)
        assert b.lookup(30) == 7

    def test_distinct_tags_do_not_alias(self):
        # sets=4: pcs 14 and 30 share set 2 but differ in tag (3 vs 7)
        b = Btb(4, tag_bits=4)
        b.install(14, 7)
        assert b.lookup(30) is None

    def test_lru_eviction_single_way(self):
        b = Btb(1, ways=1)
        b.install(0, 5)
        b.install(1, 6)    # same (only) set, different tag: evicts
        assert b.lookup(0) is None and b.lookup(1) == 6

    def test_lru_refresh_on_lookup(self):
        b = Btb(1, ways=2)
        b.install(0, 5)
        b.install(1, 6)
        b.lookup(0)            # refresh entry for pc 0
        b.install(2, 7)        # evicts LRU, which is now pc 1's entry
        assert b.lookup(0) == 5
        assert b.lookup(1) is None

    def test_matches_reference_model(self):
        rng = random.Random(99)
        for sets, ways in ((1, 1), (4, 2), (8, 4)):
            b = Btb(sets, ways=ways, tag_bits=4)
            ref = ReferenceBtb(sets, ways, 4)
            for _ in range(5_000):
                pc = rng.randrange(256)
                if rng.random() < 0.5:
                    tgt = rng.randrange(256)
                    b.install(pc, tgt)
                    ref.install(pc, tgt)
                else:
                    assert b.lookup(pc) == ref.lookup(pc)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"pht_bits": 0}, {"pht_bits": 17}, {"btb_sets": 3},
        {"fallback": "wat"}, {"init_counter": 4}, {"window": -1},
        {"btb_sets": 4, "btb_ways": 0}, {"btb_sets": 0}, {"btb_sets": -1},
        {"btb_sets": 4, "btb_tag_bits": -1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PredictorConfig(**kwargs)

    def test_presets(self):
        a53 = preset("cortex-a53")
        assert (a53.pht_bits, a53.btb_sets, a53.window) == (12, 256, 32)
        a7 = preset("cortex-a7")
        assert (a7.pht_bits, a7.btb_sets, a7.window) == (8, 8, 16)
        p4 = preset("pentium4")
        assert (p4.pht_bits, p4.btb_sets, p4.window) == (None, 4096, 40)
        assert p4.fallback == "btfnt"
        with pytest.raises(ValueError):
            preset("8086")
        assert set(PRESETS) == {"cortex-a53", "cortex-a7", "pentium4"}


class TestComposite:
    def test_untrained_pht_predicts_taken_to_static_target(self):
        p = PredictorState(PredictorConfig(pht_bits=1))
        assert p.predict_conditional(4, 10, 5) == (True, 10)

    def test_trained_not_taken(self):
        p = PredictorState(PredictorConfig(pht_bits=1))
        p.update(4, False, None)
        p.two_level.bhr = 0   # isolate the counter effect
        assert p.predict_conditional(4, 10, 5) == (False, 5)

    def test_pht_taken_uses_btb_target_when_hit(self):
        p = PredictorState(PredictorConfig(pht_bits=1, btb_sets=1))
        p.update(4, True, 40)
        # stale entry: same set/tag pc predicts taken to the stored target
        taken, target = p.predict_conditional(4, 10, 5)
        assert (taken, target) == (True, 40)

    def test_btb_only_miss_falls_back_not_taken(self):
        p = PredictorState(PredictorConfig(btb_sets=4))
        assert p.predict_conditional(6, 2, 7) == (False, 7)

    def test_btfnt_backward_taken_forward_not(self):
        p = PredictorState(PredictorConfig(btb_sets=4, fallback="btfnt"))
        assert p.predict_conditional(6, 2, 7) == (True, 2)    # backward
        assert p.predict_conditional(6, 9, 7) == (False, 7)   # forward

    def test_indirect_target_requires_btb(self):
        p = PredictorState(PredictorConfig(pht_bits=2))
        assert p.predict_target(10) is None
        q = PredictorState(PredictorConfig(btb_sets=4))
        q.update(10, True, 33, conditional=False)
        assert q.predict_target(10) == 33

    def test_indirect_update_leaves_bhr_alone(self):
        p = PredictorState(PredictorConfig(pht_bits=2, btb_sets=4))
        p.update(10, True, 33, conditional=False)
        assert p.two_level.bhr == 0
        p.update(4, True, 9)
        assert p.two_level.bhr == 1

    def test_not_taken_resolution_does_not_install(self):
        p = PredictorState(PredictorConfig(btb_sets=4))
        p.update(4, False, 9)
        assert p.btb.lookup(4) is None

    def test_spec_note_shifts_bhr_only(self):
        p = PredictorState(PredictorConfig(pht_bits=2))
        before = [p.two_level.counter(i) for i in range(4)]
        p.spec_note_direction(True)
        assert p.two_level.bhr == 1
        assert [p.two_level.counter(i) for i in range(4)] == before

    def test_clone_and_eq(self):
        p = PredictorState(PredictorConfig(pht_bits=2, btb_sets=2))
        c = p.clone()
        assert p == c
        c.update(3, True, 8)
        assert p != c


class DenseTwoLevel:
    """Oracle: the whole PHT as a list."""

    def __init__(self, n, init):
        self.n, self.bhr, self.table = n, 0, [init] * (1 << n)

    def update(self, taken):
        c = self.table[self.bhr]
        self.table[self.bhr] = min(3, c + 1) if taken else max(0, c - 1)
        self.shift(taken)

    def shift(self, taken):
        self.bhr = ((self.bhr << 1) | int(taken)) % (1 << self.n)


class ReferencePredictor:
    """Oracle for PredictorState over the dense tables above."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.tl = (DenseTwoLevel(cfg.pht_bits, cfg.init_counter)
                   if cfg.pht_bits is not None else None)
        self.btb = (ReferenceBtb(cfg.btb_sets, cfg.btb_ways, cfg.btb_tag_bits)
                    if cfg.btb_sets is not None else None)

    def predict_conditional(self, pc, taken_target, fallthrough):
        if self.tl is not None:
            if self.tl.table[self.tl.bhr] < 2:
                return False, fallthrough
            stored = self.btb.lookup(pc) if self.btb is not None else None
            return True, taken_target if stored is None else stored
        stored = self.btb.lookup(pc) if self.btb is not None else None
        if stored is not None:
            return True, stored
        if self.cfg.fallback == "btfnt" and taken_target < pc:
            return True, taken_target
        return False, fallthrough

    def predict_target(self, pc):
        return self.btb.lookup(pc) if self.btb is not None else None

    def update(self, pc, taken, target, conditional):
        if conditional and self.tl is not None:
            self.tl.update(taken)
        if self.btb is not None and taken and target is not None:
            self.btb.install(pc, target)

    def spec_note_direction(self, taken):
        if self.tl is not None:
            self.tl.shift(taken)

    def state(self):
        return (self.tl and (self.tl.bhr, tuple(self.tl.table)),
                self.btb and tuple(tuple(self.btb.mem[s])
                                   for s in range(self.btb.sets)))


def assert_same(p, ref):
    """Every counter, the BHR and every BTB set agree, and the sparse
    tables hold exactly the non-default entries."""
    if ref.tl is not None:
        tl = p.two_level
        assert tl.bhr == ref.tl.bhr
        assert [tl.counter(i) for i in range(1 << tl.n)] == ref.tl.table
        assert tl.pht == {i: c for i, c in enumerate(ref.tl.table)
                          if c != ref.cfg.init_counter}
    if ref.btb is not None:
        assert p.btb.sets == {s: tuple(e) for s, e in ref.btb.mem.items() if e}


_config = st.builds(
    PredictorConfig, pht_bits=st.sampled_from((None, 1, 2, 3)),
    btb_sets=st.sampled_from((None, 1, 2, 4)), btb_ways=st.integers(1, 3),
    btb_tag_bits=st.integers(1, 3), fallback=st.sampled_from(("none", "btfnt")),
    init_counter=st.integers(0, 3))
_pc = st.integers(0, 7)
_op = st.one_of(
    st.tuples(st.just("update"), _pc, st.booleans(), st.none() | _pc,
              st.booleans()),
    st.tuples(st.just("spec"), st.booleans()),
    st.tuples(st.just("predict"), _pc, _pc, _pc),
    st.tuples(st.just("target"), _pc))


def apply(p, op):
    kind, *args = op
    if kind == "update":
        return p.update(*args)
    if kind == "spec":
        return p.spec_note_direction(*args)
    if kind == "predict":
        return p.predict_conditional(*args)
    return p.predict_target(*args)


class TestSparseDifferential:
    @settings(max_examples=150, deadline=None)
    @given(_config, st.lists(_op, min_size=20, max_size=40))
    def test_matches_dense_reference(self, cfg, ops):
        p, ref = PredictorState(cfg), ReferencePredictor(cfg)
        for op in ops:
            assert apply(p, op) == apply(ref, op)
            assert_same(p, ref)
        # a clone follows its own history without touching the original
        c = p.clone()
        assert c == p
        for op in ops:
            apply(c, op)
        assert_same(p, ref)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from((1, 2)), st.sampled_from((None, 1, 2)),
           st.lists(_op, max_size=6), st.lists(_op, max_size=6))
    def test_equality_is_canonical(self, pht_bits, btb_sets, ops_a, ops_b):
        cfg = PredictorConfig(pht_bits=pht_bits, btb_sets=btb_sets,
                              btb_tag_bits=1)
        a, b = PredictorState(cfg), PredictorState(cfg)
        ra, rb = ReferencePredictor(cfg), ReferencePredictor(cfg)
        for p, ref, ops in ((a, ra, ops_a), (b, rb, ops_b)):
            for op in ops:
                apply(p, op)
                apply(ref, op)
        assert (a == b) == (ra.state() == rb.state())

    def test_counter_trained_back_to_default_equals_fresh(self):
        t = TwoLevel(2, init_counter=2)
        t.update(True)             # pht[0] 2 -> 3
        t.bhr = 0
        t.update(False)            # pht[0] 3 -> 2
        t.bhr = 0
        assert t.pht == {} and t == TwoLevel(2, init_counter=2)

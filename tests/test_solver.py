"""Enumeration-based satisfiability oracle and leak-pair search."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import path_of
from specsim import solver
from specsim.expr import (MemRead, Model, Snapshot, Sym, coerce, const,
                          evaluate, mask, mk_binop, mk_memread, sym)
from specsim.solver import (BudgetExceeded, PathCondition, Session,
                            _binop_bounds, _bounds, _fact, _narrow, _narrowed,
                            find_leak_pair, is_sat)


def lt(a, b):
    return mk_binop("lt", a, b)


def eq(a, b):
    return mk_binop("eq", a, b)


class TestIsSat:
    def test_sat_returns_valid_witness(self):
        x = sym("x", 8)
        q = path_of((lt(coerce(x, 32), const(10, 32)),))
        m = is_sat(q)
        assert m is not None
        assert evaluate(q.constraints[0], m) == 1

    def test_unsat_returns_none(self):
        x = sym("x", 8)
        q = path_of((lt(coerce(x, 32), const(0, 32)),))  # unsigned: never
        assert is_sat(q) is None

    def test_contradiction(self):
        x = sym("x", 8)
        q = path_of((eq(x, const(3, 8)), eq(x, const(4, 8))))
        assert is_sat(q) is None

    def test_deterministic_first_witness(self):
        x, y = sym("x", 8), sym("y", 8)
        q = path_of((lt(const(2, 32), coerce(x, 32)),
                   lt(const(0, 32), coerce(y, 32))))
        m = is_sat(q)
        # lexicographic by name, ascending values: smallest x first, then y
        assert m.assignment == {"x": 3, "y": 1}

    def test_budget_enforced(self):
        # one connected slice of 24 bits: the budget counts all of them
        s0, s1, s2 = (coerce(sym(f"s{i}", 8), 32) for i in range(3))
        cons = (eq(mk_binop("add", mk_binop("add", s0, s1), s2),
                   const(3, 32)),)
        with pytest.raises(BudgetExceeded):
            is_sat(path_of(cons, bit_budget=20))
        assert is_sat(path_of(cons, bit_budget=24)) is not None

    def test_budget_applies_per_independent_slice(self):
        syms = [sym(f"s{i}", 8) for i in range(3)]
        cons = tuple(eq(s, const(1, 8)) for s in syms)
        m = is_sat(path_of(cons, bit_budget=20))
        assert m is not None and m.assignment == {"s0": 1, "s1": 1, "s2": 1}

    def test_unsat_slice_decides_despite_overrun_elsewhere(self):
        x = sym("x", 8)
        y, z = sym("y", 8), sym("z", 8)
        wide = eq(mk_binop("add", y, z), const(7, 8))  # 16 bits > 12
        q = path_of((wide, eq(x, const(3, 8)), eq(x, const(4, 8))),
                  bit_budget=12)
        assert is_sat(q) is None
        with pytest.raises(BudgetExceeded):
            is_sat(path_of((wide, eq(x, const(3, 8))), bit_budget=12))

    def test_snapshot_byte_links_syntactically_independent_constraints(self):
        # a and b share no symbol, but both reads can reach the byte n
        a, b = sym("a", 2), sym("b", 2)
        n = sym("n", 8)
        ra = mk_memread(Snapshot(0, {0: n}), coerce(a, 32), 8, secret=False)
        rb = mk_memread(Snapshot(1, {2: n}),
                        mk_binop("add", coerce(b, 32), const(2, 32)),
                        8, secret=False)
        # n cannot be both 3 and 5, and only a=0 / b=0 reach it
        assert is_sat(path_of((eq(ra, const(3, 8)),
                               eq(rb, const(5, 8))))) is None
        m = is_sat(path_of((eq(ra, const(3, 8)), eq(rb, const(3, 8)))))
        assert m is not None and m.assignment == {"a": 0, "b": 0, "n": 3}

    def test_nested_snapshot_read_links_constraints(self):
        # version 1 holds a read of version 0, whose byte is n
        a, b = sym("a", 2), sym("b", 2)
        n = sym("n", 8)
        s0 = Snapshot(0, {0: n})
        s1 = Snapshot(1, {0: mk_memread(s0, const(0, 32), 8, False)})
        ra = mk_memread(s0, coerce(a, 32), 8, secret=False)
        rb = mk_memread(s1, coerce(b, 32), 8, secret=False)
        assert is_sat(path_of((eq(ra, const(3, 8)),
                               eq(rb, const(5, 8))))) is None

    def test_discovers_symbols_behind_memread(self):
        # The secret byte appears only inside a snapshot, not in the query.
        k = sym("k", 8, secret=True)
        a = sym("a", 8)
        snap = Snapshot(0, {0x40: k})
        read = mk_memread(snap,
                          mk_binop("add", coerce(a, 32), const(0x40, 32)),
                          8, secret=True)
        q = path_of((eq(coerce(a, 32), const(0, 32)),
                   eq(coerce(read, 32), const(0x55, 32))))
        m = is_sat(q)
        assert m is not None
        assert m.assignment["k"] == 0x55
        assert m.assignment["a"] == 0

    @given(st.integers(0, 255))
    def test_agreement_with_reference_evaluator(self, bound):
        x = sym("x", 8)
        c = lt(coerce(x, 32), const(bound, 32))
        m = is_sat(path_of((c,)))
        brute = [v for v in range(256) if v < bound]
        if brute:
            assert m is not None and m.assignment["x"] == brute[0]
        else:
            assert m is None


class TestFindLeakPair:
    def test_secret_dependent_observable(self):
        k = sym("k", 8, secret=True)
        pair = find_leak_pair(path_of(()), coerce(k, 32))
        assert pair is not None
        m1, m2 = pair
        assert m1.assignment["k"] != m2.assignment["k"]

    def test_public_only_observable_is_clean(self):
        x = sym("x", 8)
        k = sym("k", 8, secret=True)
        q = path_of((eq(coerce(k, 32), coerce(k, 32)),))
        assert find_leak_pair(q, coerce(x, 32)) is None

    def test_pair_agrees_on_public_inputs(self):
        x = sym("x", 8)
        k = sym("k", 8, secret=True)
        obs = mk_binop("add", coerce(x, 32), coerce(k, 32))
        pair = find_leak_pair(path_of(()), obs)
        assert pair is not None
        m1, m2 = pair
        assert m1.assignment["x"] == m2.assignment["x"]
        assert evaluate(obs, m1) != evaluate(obs, m2)

    def test_constrained_secret_with_single_value_is_clean(self):
        k = sym("k", 8, secret=True)
        q = path_of((eq(k, const(9, 8)),))
        assert find_leak_pair(q, coerce(k, 32)) is None

    def test_masked_secret_leaks_only_visible_bits(self):
        k = sym("k", 8, secret=True)
        obs = mk_binop("and", coerce(k, 32), const(1, 32))
        pair = find_leak_pair(path_of(()), obs)
        assert pair is not None
        m1, m2 = pair
        assert m1.assignment["k"] & 1 != m2.assignment["k"] & 1

    def test_secret_behind_memread_discovered(self):
        # observable reads secret bytes through a snapshot, guarded by a
        # public index: the classic gadget shape
        x = sym("x", 8)
        snap = Snapshot(0, {0x40 + i: sym(f"sec[{i}]", 8, secret=True)
                            for i in range(4)})
        addr = mk_binop("add", const(0x40, 32),
                        mk_binop("and", coerce(x, 32), const(3, 32)))
        obs = coerce(mk_memread(snap, addr, 8, secret=True), 32)
        pair = find_leak_pair(path_of(()), obs)
        assert pair is not None
        m1, m2 = pair
        assert evaluate(obs, m1) != evaluate(obs, m2)

    def test_other_slices_are_shared_by_both_models(self):
        x, y = sym("x", 8), sym("y", 8)
        k = sym("k", 8, secret=True)
        q = path_of((lt(coerce(y, 32), const(3, 32)),
                   lt(const(5, 32), coerce(y, 32))))
        assert find_leak_pair(q, coerce(k, 32)) is None  # y is unsat
        q = path_of((eq(y, const(7, 8)), eq(x, const(2, 8))))
        m1, m2 = find_leak_pair(q, mk_binop("add", coerce(x, 32),
                                            coerce(k, 32)))
        assert m1.assignment["y"] == m2.assignment["y"] == 7
        assert m1.assignment["x"] == m2.assignment["x"] == 2
        assert m1.assignment["k"] != m2.assignment["k"]

    def test_inner_budget_is_remaining_bits(self):
        # 16 public bits leave only 4 of a 20-bit budget: an 8-bit secret
        # cannot be enumerated and must raise rather than silently pass.
        x, y = sym("x", 8), sym("y", 8)
        k = sym("k", 8, secret=True)
        obs = mk_binop("add", mk_binop("add", coerce(x, 32), coerce(y, 32)),
                       coerce(k, 32))
        with pytest.raises(BudgetExceeded):
            find_leak_pair(path_of((), bit_budget=20), obs)


# ---------------------------------------------------------------------------
# Differential check against a brute-force reference that knows nothing of
# slicing: it enumerates every symbol the query can reach, snapshot bytes
# included, and evaluates every constraint under each full assignment.

_POOL = [sym("a", 2), sym("b", 2), sym("c", 2), sym("k", 2, secret=True),
         sym("j", 2, secret=True)]
# symbols that only ever sit in snapshot bytes, never in a query
_HIDDEN = [sym("m", 2), sym("n", 2, secret=True)]


def _reachable(exprs, through_memory=True):
    """Every Sym in `exprs` and, if `through_memory`, in any byte of a
    snapshot they can read."""
    out, stack, versions = {}, list(exprs), set()
    while stack:
        e = stack.pop()
        if isinstance(e, Sym):
            out[e.name] = e
        elif isinstance(e, MemRead):
            stack.append(e.addr)
            snap = e.snapshot
            if through_memory and snap.version not in versions:
                versions.add(snap.version)
                stack.extend(snap.mem.values())
        else:
            stack.extend(getattr(e, f) for f in ("a", "b", "cond")
                         if hasattr(e, f))
    return out


def _all_models(syms):
    names = sorted(syms)
    for values in itertools.product(*(range(1 << syms[n].width)
                                      for n in names)):
        yield dict(zip(names, values))


def _holds(constraints, assignment):
    m = Model(assignment)
    return all(evaluate(c, m) != 0 for c in constraints)


def _total(model, syms):
    return {n: model.assignment.get(n, 0) for n in syms}


def _check_is_sat(constraints, m):
    """`m`, an is_sat answer, agrees with the unsliced reference."""
    syms = _reachable(constraints)
    ref = next((a for a in _all_models(syms)
                if _holds(constraints, a)), None)
    assert (m is None) == (ref is None)
    if m is None:
        return
    assert set(m.assignment) <= set(syms)
    # strict Model: the witness binds every symbol evaluation reads
    assert all(evaluate(c, m) != 0 for c in constraints)
    # symbols reachable only through snapshot bytes are found on demand
    # and held at 0 until an enumeration stage fails, so the witness is
    # the reference's whenever that one holds them all at 0
    hidden = [n for n in syms if n not in _reachable(constraints, False)]
    if all(ref[n] == 0 for n in hidden):
        assert _total(m, syms) == ref


@st.composite
def _queries(draw):
    leaf_syms = _POOL + _HIDDEN

    def byte():
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return const(draw(st.integers(0, 7)), 8)
        return coerce(draw(st.sampled_from(leaf_syms)), 8)

    s0 = Snapshot(0, {i: byte() for i in range(4)})
    mem1 = {i: byte() for i in range(4)}
    if draw(st.booleans()):  # a byte of version 1 reads version 0
        addr = coerce(draw(st.sampled_from(_POOL)), 32)
        mem1[draw(st.integers(0, 3))] = mk_memread(s0, addr, 8, False)
    snapshots = (s0, Snapshot(1, mem1))

    def read(width):
        addr = mk_binop("add", coerce(draw(st.sampled_from(_POOL)), 32),
                        const(draw(st.integers(0, 2)), 32))
        return mk_memread(snapshots[draw(st.integers(0, 1))], addr, width,
                          secret=False)

    def term():
        kind = draw(st.integers(0, 3))
        if kind == 0:
            return const(draw(st.integers(0, 7)), 8)
        if kind == 1:
            return coerce(draw(st.sampled_from(_POOL)), 8)
        r = coerce(read(draw(st.sampled_from((8, 32)))), 8)
        if kind == 2:
            return r
        return mk_binop("add", r, coerce(draw(st.sampled_from(_POOL)), 8))

    constraints = tuple(
        mk_binop(draw(st.sampled_from(("lt", "le", "eq", "ne"))), term(), term())
        for _ in range(draw(st.integers(1, 4))))
    # a term, a whole 32-bit read (all four bytes visible), or a read plus
    # a second one, on either side of the leak-pair search's one-read gate
    kind = draw(st.integers(0, 2))
    observable = coerce(term(), 32) if kind == 0 else read(32)
    if kind == 2:
        observable = mk_binop("add", observable,
                              coerce(read(draw(st.sampled_from((8, 32)))), 32))
    return constraints, observable


class TestDifferential:
    @settings(max_examples=120, deadline=None)
    @given(_queries())
    def test_is_sat_matches_unsliced_reference(self, case):
        constraints, _obs = case
        _check_is_sat(constraints, is_sat(path_of(constraints)))

    @settings(max_examples=60, deadline=None)
    @given(_queries())
    def test_find_leak_pair_matches_unsliced_reference(self, case):
        constraints, obs = case
        syms = _reachable(constraints + (obs,))
        public = [n for n, s in syms.items() if not s.taint.secret]
        seen = {}
        leaks = False
        for a in _all_models(syms):
            if not _holds(constraints, a):
                continue
            key = tuple(a[n] for n in public)
            value = evaluate(obs, Model(a))
            first = seen.setdefault(key, value)
            if first != value:
                leaks = True
                break
        pair = find_leak_pair(path_of(constraints), obs)
        assert (pair is not None) == leaks
        if pair is None:
            return
        t1, t2 = (_total(m, syms) for m in pair)
        assert _holds(constraints, t1)
        assert _holds(constraints, t2)
        assert all(t1[n] == t2[n] for n in public)
        assert evaluate(obs, Model(t1)) != evaluate(obs, Model(t2))


def _closure(constraints):
    """Constraint indices grouped by naive pairwise closure: two
    constraints are joined when the symbols they can reach, snapshot bytes
    included, share a name.  Groups are ordered by their first index."""
    names = [set(_reachable((c,))) for c in constraints]
    groups = [[i] for i in range(len(constraints))]
    joined = True
    while joined:
        joined = False
        for a, b in itertools.combinations(range(len(groups)), 2):
            if any(names[i] & names[j] for i in groups[a] for j in groups[b]):
                groups[a] += groups.pop(b)
                joined = True
                break
    return sorted(sorted(g) for g in groups)


def _extended(path, constraints):
    for c in constraints:
        path = path.extend(c)
    return path


class TestPathCondition:
    @settings(max_examples=120, deadline=None)
    @given(_queries(), st.integers(0, 4))
    def test_slices_are_the_naive_closure(self, case, split):
        constraints, obs = case
        constraints += (obs,)  # a non-boolean constraint slices the same
        prefix = path_of(constraints[:split])
        path = _extended(prefix, constraints[split:])
        for p, cons in ((prefix, constraints[:split]), (path, constraints)):
            assert p.constraints == cons
            assert [list(sl.members) for sl in p.slices] == _closure(cons)
            for sl in p.slices:
                assert sl.exprs == tuple(cons[i] for i in sl.members)
                assert sl.syms == _reachable(sl.exprs, False)  # syntactic

    @settings(max_examples=80, deadline=None)
    @given(_queries())
    def test_reached_is_the_closure_of_the_expression(self, case):
        constraints, obs = case
        path = path_of(constraints)
        (group,) = [g for g in _closure(constraints + (obs,))
                    if len(constraints) in g]
        assert path.reached(obs) == tuple(constraints[i] for i in group[:-1])

    @settings(max_examples=80, deadline=None)
    @given(_queries(), st.integers(0, 4))
    def test_answers_on_a_path_match_unsliced_reference(self, case, split):
        constraints, _obs = case
        prefix = path_of(constraints[:split])
        _check_is_sat(constraints[:split], is_sat(prefix))
        # the prefix's slices keep their answers; the rest are asked anew
        path = _extended(prefix, constraints[split:])
        m = is_sat(path)
        _check_is_sat(constraints, m)
        assert is_sat(path_of(constraints)) == m


# ---------------------------------------------------------------------------
# Interval refutation: sound, and strong enough for the engine's shapes.

def zx(e):
    return coerce(e, 32)


def add(a, b):
    return mk_binop("add", a, b)


def refuted(constraints):
    return _narrowed(constraints) is None


def taken(cond, direction=True):
    """The engine's branch-direction constraint on a 32-bit condition."""
    return mk_binop("ne" if direction else "eq", cond, const(0, 32))


class TestRefutation:
    def test_may_touch_after_bounds_check_is_refuted(self):
        # x < 7 keeps array1 + x far below the secret region
        x = sym("x", 8)
        addr = add(const(4096, 32), zx(x))
        cons = (taken(lt(zx(x), const(7, 32))),
                mk_binop("le", const(4160, 32), addr),
                lt(addr, const(4224, 32)))
        assert refuted(cons)
        # refuted before the budget check: no overrun at 4 bits
        assert is_sat(path_of(cons, bit_budget=4)) is None

    def test_out_of_bounds_secret_read_past_region_is_refuted(self):
        # array2 + 64 * byte can never fall below array2's base
        snap = Snapshot(0, {4096 + i: sym(f"s{i}", 8, secret=True)
                            for i in range(64)})
        read = mk_memread(snap, add(const(4096, 32), zx(sym("x", 8))), 8,
                          True)
        addr = add(const(4224, 32), mk_binop("mul", const(64, 32), zx(read)))
        cons = (lt(addr, const(4224, 32)),)
        assert refuted(cons)
        assert is_sat(path_of(cons, bit_budget=4)) is None

    def test_negated_and_conflicting_branch_constraints(self):
        x = sym("x", 8)
        # not (x < 9) and x < 5
        assert refuted((taken(lt(zx(x), const(9, 32)), False),
                        taken(lt(zx(x), const(5, 32)))))
        # not (x == 3) and x == 3
        assert refuted((taken(eq(x, const(3, 8)), False), eq(x, const(3, 8))))
        # x != 0 and x <= 0, constant on the left
        assert refuted((mk_binop("ne", x, const(0, 8)),
                        mk_binop("le", x, const(0, 8))))
        assert refuted((lt(const(200, 32), zx(x)), lt(zx(x), const(201, 32))))

    def test_satisfiable_and_wrapping_shapes_are_not_refuted(self):
        x, y, z = sym("x", 8), sym("y", 8), sym("z", 8)
        assert not refuted((lt(zx(x), const(7, 32)),))
        # y + z may wrap at width 8: no bounds, the slice must be enumerated
        assert not refuted((eq(add(y, z), const(7, 8)),))
        assert not refuted((lt(add(x, const(250, 8)), const(4, 8)),))
        assert not refuted((lt(mk_binop("mul", x, const(3, 8)),
                               const(2, 8)),))


_NPOOL = [sym("p", 3), sym("q", 3), sym("r", 2, secret=True)]
_NHIDDEN = sym("h", 2)
_NCONSTS = (0, 1, 2, 3, 5, 7, 8, 37, 64, 250, 253, 255, 256, 4096,
            0xFFFFFFF0, 0xFFFFFFFF)
_WIDTHS = st.sampled_from((8, 32))


class _Draws:
    """Pieces of a refutation case: constants near bounds and wrap points,
    wrapping arithmetic, and 8- and 32-bit reads of one snapshot."""

    def __init__(self, draw):
        self.draw = draw
        self.snap = Snapshot(0, {
            i: coerce(draw(st.sampled_from(_NPOOL + [_NHIDDEN])), 8)
            if draw(st.booleans()) else const(draw(st.integers(0, 255)), 8)
            for i in range(8)})

    def num(self, width):
        return const(self.draw(st.one_of(
            st.integers(0, 9), st.sampled_from(_NCONSTS),
            st.integers(0, mask(width)))), width)

    def leaf(self, width):
        kind = self.draw(st.integers(0, 2))
        if kind == 0:
            return self.num(width)
        if kind == 1:
            return coerce(self.draw(st.sampled_from(_NPOOL)), width)
        addr = add(zx(self.draw(st.sampled_from(_NPOOL))),
                   const(self.draw(st.integers(0, 2)), 32))
        read = mk_memread(self.snap, addr,
                          self.draw(st.sampled_from((8, 32))), False)
        return coerce(read, width)

    def term(self, width, depth=2):
        kind = 0 if depth == 0 else self.draw(st.integers(0, 3))
        if kind == 0:
            return self.leaf(width)
        if kind == 1:  # zext or trunc of a term at the other width
            return coerce(self.term(40 - width, depth - 1), width)
        op = self.draw(st.sampled_from(("add", "sub", "mul", "and", "or",
                                        "xor", "shl", "lshr")))
        return mk_binop(op, self.term(width, depth - 1),
                        self.term(width, depth - 1))

    def compare(self, a, b):
        """a and b compared in either order, maybe as a branch direction."""
        op = self.draw(st.sampled_from(("lt", "le", "eq", "ne")))
        c = mk_binop(op, *((a, b) if self.draw(st.booleans()) else (b, a)))
        if self.draw(st.booleans()):
            return taken(c, self.draw(st.booleans()))
        return c

    def range_of(self, s):
        lo = self.draw(st.integers(0, mask(s.width)))
        return lo, self.draw(st.integers(lo, mask(s.width)))

    def held(self, s, lo, hi):
        """Two constraints that hold s in [lo, hi], in the engine's forms."""
        w = self.draw(_WIDTHS)
        x, k = coerce(s, w), (lambda v: const(v, w))
        lower = [mk_binop("le", k(lo), x), taken(lt(x, k(lo)), False),
                 taken(mk_binop("le", k(lo), x))]
        upper = [mk_binop("le", x, k(hi)), lt(x, k(hi + 1)),
                 taken(lt(k(hi), x), False), taken(mk_binop("le", x, k(hi)))]
        if lo > 0:
            lower.append(lt(k(lo - 1), x))
        return [self.draw(st.sampled_from(lower)),
                self.draw(st.sampled_from(upper))]


@st.composite
def _terms(draw):
    """(term, bounds of each pool symbol)."""
    d = _Draws(draw)
    env = {s: d.range_of(s) for s in _NPOOL}
    return d.term(draw(_WIDTHS)), env


@st.composite
def _symbol_comparisons(draw):
    """A pool symbol plus up to three constant offsets, each added on
    either side and maybe after a zero extension, compared with a
    constant.  Offsets near wrap points give adds that can wrap."""
    d = _Draws(draw)
    x = draw(st.sampled_from(_NPOOL))
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            x = coerce(x, draw(st.sampled_from([w for w in (8, 32)
                                                if w >= x.width])))
        k = d.num(x.width)
        x = add(k, x) if draw(st.booleans()) else add(x, k)
    w = draw(_WIDTHS)
    return d.compare(coerce(x, w), d.num(w))


@st.composite
def _refutable(draw):
    """Symbols held in ranges, then comparisons of terms over them."""
    d = _Draws(draw)
    constraints = []
    for s in _NPOOL:
        if draw(st.booleans()):
            constraints += d.held(s, *d.range_of(s))
    for _ in range(draw(st.integers(1, 2))):
        w = draw(_WIDTHS)
        constraints.append(d.compare(d.term(w), d.num(w) if draw(st.booleans())
                                     else d.term(w)))
    return tuple(draw(st.permutations(constraints)))


def _models_within(syms, env):
    """Every assignment of `syms` that keeps each symbol in `env` in its
    bounds."""
    names = sorted(syms)
    ranges = [range(env[syms[n]][0], env[syms[n]][1] + 1) if syms[n] in env
              else range(1 << syms[n].width) for n in names]
    for values in itertools.product(*ranges):
        yield dict(zip(names, values))


@st.composite
def _operand_ranges(draw):
    """(op, width, a, b): small ranges, often at a wrap point."""
    width = draw(_WIDTHS)

    def small_range():
        lo = draw(st.one_of(st.integers(0, 16), st.sampled_from(_NCONSTS),
                            st.integers(0, mask(width)))) & mask(width)
        return lo, min(lo + draw(st.integers(0, 7)), mask(width))

    op = draw(st.sampled_from(("add", "sub", "mul", "and", "or", "xor", "shl",
                               "lshr", "lt", "le", "eq", "ne")))
    return op, width, small_range(), small_range()


class TestRefutationSoundness:
    @settings(max_examples=500, deadline=None)
    @given(_operand_ranges())
    def test_operator_bounds_hold_every_value(self, case):
        op, width, (alo, ahi), (blo, bhi) = case
        lo, hi = _binop_bounds(op, (alo, ahi), (blo, bhi), width)
        for x in range(alo, ahi + 1):
            for y in range(blo, bhi + 1):
                v = mk_binop(op, const(x, width), const(y, width)).value
                assert lo <= v <= hi

    @settings(max_examples=300, deadline=None)
    @given(_terms())
    def test_bounds_hold_every_value(self, case):
        term, env = case
        lo, hi = _bounds(term, env, {})
        for a in _models_within(_reachable((term,)), env):
            assert lo <= evaluate(term, Model(a)) <= hi

    @settings(max_examples=300, deadline=None)
    @given(_symbol_comparisons())
    def test_facts_hold_for_every_value(self, c):
        fact = _fact(c)
        if fact is None:
            return
        s, op, k = fact
        lo, hi = _narrow(0, mask(s.width), op, k)
        for v in range(1 << s.width):
            if evaluate(c, Model({s.name: v})):
                assert lo <= v <= hi

    @settings(max_examples=300, deadline=None)
    @given(_refutable())
    def test_refuted_queries_have_no_model(self, constraints):
        if not refuted(constraints):
            return
        syms = _reachable(constraints)
        assert not any(_holds(constraints, a) for a in _all_models(syms))


# ---------------------------------------------------------------------------
# The session's memo: slices and leak-pair searches.

def _counting(monkeypatch, name):
    """Record the arguments of every call to `solver.<name>`."""
    calls = []
    fn = getattr(solver, name)
    monkeypatch.setattr(solver, name, lambda *a: calls.append(a) or fn(*a))
    return calls


class TestMemo:
    def test_repeated_query_returns_equal_model(self, monkeypatch):
        solves = _counting(monkeypatch, "_solve")
        x, y = sym("x", 8), sym("y", 8)
        session = Session()
        cons = (lt(const(2, 32), zx(x)), lt(const(0, 32), zx(y)))
        first = is_sat(path_of(cons, session=session))
        first.assignment["x"] = 99  # a caller's copy, not the stored witness
        # a fresh path of the session asks the memo, not the enumeration
        again = is_sat(path_of(cons, session=session))
        assert len(solves) == 2 and len(session.memo) == 2  # one per slice
        assert again == Model({"x": 3, "y": 1}) == is_sat(path_of(cons))

    def test_a_path_keeps_its_slices_answers(self, monkeypatch):
        solves = _counting(monkeypatch, "_solve")
        x = sym("x", 8)
        path = path_of((lt(const(2, 32), zx(x)),))
        assert is_sat(path) == is_sat(path) == Model({"x": 3})
        path.session.memo.clear()  # the slice answers without the memo
        assert is_sat(path) == Model({"x": 3}) and len(solves) == 1

    def test_leak_pair_search_shares_the_memo(self, monkeypatch):
        solves = _counting(monkeypatch, "_solve")
        y, k = sym("y", 8), sym("k", 8, secret=True)
        session = Session()
        cons = (eq(y, const(7, 8)),)
        assert is_sat(path_of(cons, session=session)) == Model({"y": 7})
        m1, m2 = find_leak_pair(path_of(cons, session=session), zx(k))
        assert len(solves) == 1
        assert m1.assignment["y"] == m2.assignment["y"] == 7

    def test_constraints_are_part_of_the_pair_key(self):
        k = sym("k", 8, secret=True)
        session = Session()
        pinned = path_of((eq(k, const(3, 8)),), session=session)
        assert find_leak_pair(pinned, zx(k)) is None  # one secret value
        assert find_leak_pair(PathCondition(session), zx(k)) is not None

    def test_memoised_pair_overrun_is_raised_again(self, monkeypatch):
        searches = _counting(monkeypatch, "_slice_leak_pair")
        y, k = sym("y", 8), sym("k", 8, secret=True)
        path = path_of((lt(zx(y), const(7, 32)),), bit_budget=12)
        for _ in range(2):
            with pytest.raises(BudgetExceeded):
                find_leak_pair(path, add(zx(k), zx(y)))
        assert len(searches) == 1
        (stored,) = [v for key, v in path.session.memo.items()
                     if key[0] == "pair"]
        assert isinstance(stored, BudgetExceeded)
        assert stored.__traceback__ is None

    def test_memoised_overrun_is_raised_again(self, monkeypatch):
        solves = _counting(monkeypatch, "_solve")
        y, z = sym("y", 8), sym("z", 8)
        session = Session(bit_budget=12)
        cons = (eq(add(y, z), const(7, 8)),)
        for _ in range(2):
            with pytest.raises(BudgetExceeded):
                is_sat(path_of(cons, session=session))
        assert len(solves) == 1
        (stored,) = session.memo.values()
        assert isinstance(stored, BudgetExceeded)
        assert stored.__traceback__ is None


# ---------------------------------------------------------------------------
# Narrowed enumeration: linear facts and the secret-byte hull skip only
# values that cannot matter.

def _v01_shape():
    """v01's layout and its wrong-path leak query: array1 at 4096, the 64
    secret bytes at 4160, array2 at 4224, and x >= 16."""
    x = sym("x", 8)
    mem = {4096 + i: const(i, 8) for i in range(16)}
    mem.update({4160 + i: sym(f"secret[{i}]", 8, secret=True)
                for i in range(64)})
    snap = Snapshot(0, mem)
    addr = add(const(4096, 32), zx(x))
    read = mk_memread(snap, addr, 8, secret=True)
    line = mk_binop("lshr", add(const(4224, 32),
                                mk_binop("mul", zx(read), const(64, 32))),
                    const(6, 32))
    return (taken(lt(zx(x), const(16, 32)), False),), addr, line, snap


class TestNarrowedEnumeration:
    def test_linear_facts(self):
        x = sym("x", 8)
        # const <= 4096 + zext(x), the constant on either side of the add
        for addr in (add(const(4096, 32), zx(x)), add(zx(x), const(4096, 32))):
            assert _fact(mk_binop("le", const(4160, 32), addr)) == (
                x, "ge", 64)
        # nested adds under zexts, inside the branch wrapper
        nested = add(zx(add(coerce(x, 16), const(3, 16))), const(5, 32))
        assert _fact(taken(lt(nested, const(20, 32)), False)) == (x, "ge", 12)
        # x + 250 can wrap at width 8, and so can an inner add
        assert _fact(lt(add(x, const(250, 8)), const(4, 8))) is None
        assert _fact(lt(zx(add(x, const(1, 8))), const(4, 32))) is None

    def test_may_touch_query_probes_one_assignment(self, monkeypatch):
        path, addr, _line, _snap = _v01_shape()
        calls = _counting(monkeypatch, "evaluate")
        cons = path + (mk_binop("le", const(4160, 32), addr),
                       lt(addr, const(4224, 32)))
        assert is_sat(path_of(cons)) == Model({"x": 64})
        assert len(calls) == len(cons)  # x = 64 is the first value tried

    def test_leak_pair_search_starts_at_the_secret_bytes(self, monkeypatch):
        path, _addr, line, snap = _v01_shape()
        calls = _counting(monkeypatch, "_leak_pair_for_public")
        m1, m2 = find_leak_pair(path_of(path), line)
        assert len(calls) == 1
        assert m1.assignment == {"secret[0]": 0, "x": 64}
        assert m2.assignment == {"secret[0]": 1, "x": 64}
        assert solver._secret_runs(snap) == ((4160, 4224),)

    def test_secret_spans_cover_regions_and_secret_bytes(self):
        # one widened-span rule for the may-touch check and the hull: the
        # declared region [8, 10) counts though its bytes are public
        x, k = sym("x", 8), sym("k", 8, secret=True)
        snap = Snapshot(0, {3: k, 4: const(1, 8), 9: const(0, 8)}, ((8, 10),))
        assert solver.secret_spans(snap, 1) == [(3, 4), (8, 10)]
        assert solver.secret_spans(snap, 4) == [(0, 4), (5, 10)]
        read = mk_memread(snap, zx(x), 8, secret=True)
        lo, hi = solver._hull_facts((), zx(read), {"x": x})
        assert (lo.a.value, hi.b.value) == (3, 9)

    def test_wide_read_below_the_hull_reaches_it(self):
        # a 32-bit read at x < 3 still covers the secret byte at 3
        x, k = sym("x", 2), sym("k", 8, secret=True)
        snap = Snapshot(0, {0: const(1, 8), 1: const(2, 8), 2: const(3, 8),
                            3: k})
        read = mk_memread(snap, zx(x), 32, secret=True)
        m1, m2 = find_leak_pair(path_of((lt(zx(x), const(3, 32)),)), read)
        assert m1.assignment == {"k": 0, "x": 0}
        assert m2.assignment == {"k": 1, "x": 0}

    @pytest.mark.parametrize("secret_at", [1, 9])
    def test_two_reads_get_no_hull(self, secret_at):
        # only one of the two reads can land on the secret byte
        x = sym("x", 2)
        mem = {i: const(i, 8) for i in range(12)}
        mem[secret_at] = sym("k", 8, secret=True)
        snap = Snapshot(0, mem)
        near = mk_memread(snap, zx(x), 8, secret=True)
        far = mk_memread(snap, add(zx(x), const(8, 32)), 8, secret=True)
        pair = find_leak_pair(path_of(()), add(zx(near), zx(far)))
        assert pair is not None
        assert pair[0].assignment["x"] == pair[1].assignment["x"] == 1

    def test_syntactic_secret_gets_no_hull(self):
        # no byte reaches a secret, but k appears in the observable itself
        x, k = sym("x", 2), sym("k", 8, secret=True)
        read = mk_memread(Snapshot(0, {0: const(5, 8)}), zx(x), 8,
                          secret=False)
        pair = find_leak_pair(path_of(()), add(zx(read), zx(k)))
        assert pair is not None
        assert pair[0].assignment["k"] != pair[1].assignment["k"]

    def test_no_secret_byte_is_clean_after_the_budget_check(self):
        x, y = sym("x", 8), sym("y", 8)
        snap = Snapshot(0, {i: const(i, 8) for i in range(8)})
        read = mk_memread(snap, add(zx(x), zx(y)), 8, secret=False)
        with pytest.raises(BudgetExceeded, match="16 symbolic bits"):
            find_leak_pair(path_of(bit_budget=12), zx(read))
        assert find_leak_pair(path_of(()), zx(read)) is None

    def test_symbol_read_only_at_skipped_values_is_not_discovered(self):
        # x = 0 would read h, but x >= 2 skips it: h is neither discovered
        # nor defaulted into the witness
        x, h = sym("x", 2), sym("h", 8)
        read = mk_memread(Snapshot(0, {0: h, 2: const(7, 8)}), zx(x), 8,
                          secret=False)
        cons = (eq(read, const(7, 8)), lt(const(1, 32), zx(x)))
        m = is_sat(path_of(cons))
        assert m == Model({"x": 2})

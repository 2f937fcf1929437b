"""Expression construction, folding, taint propagation, and evaluation."""

import pytest
from hypothesis import given, strategies as st

from specsim.expr import (BIN_OPS, BinOp, Const, MemRead, Model, Sym, Taint,
                          UnboundSymbol, UnOp, WidthError, coerce, const,
                          evaluate, mask, mk_binop, mk_memread, references,
                          sym, syntactic_syms, to_str)


# Independent reference semantics used as the oracle for folding/evaluation.
def ref_binop(op, x, y, width):
    m = (1 << width) - 1
    table = {
        "add": (x + y) & m, "sub": (x - y) & m, "mul": (x * y) & m,
        "and": x & y, "or": x | y, "xor": x ^ y,
        "shl": (x << (y % width)) & m, "lshr": (x & m) >> (y % width),
        "lt": int(x < y), "le": int(x <= y),
        "eq": int(x == y), "ne": int(x != y),
    }
    return table[op]


class TestConst:
    def test_masking(self):
        assert const(0x1ff, 8).value == 0xFF
        assert const(-1, 8).value == 0xFF
        assert const(2**40, 32).value == 0

    def test_const_is_untainted(self):
        assert const(7, 8).taint == Taint(False, False)

    def test_bad_width(self):
        with pytest.raises(WidthError):
            const(1, 0)
        with pytest.raises(WidthError):
            const(1, 65)


class TestFolding:
    @given(st.sampled_from(BIN_OPS), st.integers(0, 2**32 - 1),
           st.integers(0, 2**32 - 1), st.sampled_from([8, 32]))
    def test_const_fold_matches_reference(self, op, x, y, width):
        e = mk_binop(op, const(x, width), const(y, width))
        assert isinstance(e, Const)
        assert e.value == ref_binop(op, x & mask(width), y & mask(width), width)

    def test_cmp_results_are_w32_booleans(self):
        x = sym("x", 8)
        e = mk_binop("lt", x, const(3, 8))
        assert e.width == 32
        for v in (0, 5):
            assert evaluate(e, Model({"x": v})) in (0, 1)

    def test_identities(self):
        x = sym("x", 32)
        assert mk_binop("add", x, const(0, 32)) is x
        assert mk_binop("mul", x, const(1, 32)) is x
        assert mk_binop("xor", x, x) == const(0, 32)
        z = mk_binop("and", x, const(0, 32))
        assert z == const(0, 32)

    def test_identity_drops_eliminated_operand_taint(self):
        k = sym("k", 32, secret=True)
        e = mk_binop("mul", k, const(0, 32))
        assert isinstance(e, Const) and not e.taint.secret

    def test_width_mismatch_rejected(self):
        with pytest.raises(WidthError):
            mk_binop("add", sym("a", 8), sym("b", 32))


class TestTaint:
    def test_join(self):
        assert Taint(True, False).join(Taint(False, True)) == Taint(True, True)

    def test_binop_joins_operands(self):
        k = sym("k", 8, secret=True)
        x = sym("x", 8)
        e = mk_binop("add", k, x)
        assert e.taint == Taint(secret=True, symbolic=True)

    def test_secret_survives_masking(self):
        k = sym("k", 8, secret=True)
        e = mk_binop("and", k, const(0xF0, 8))
        assert e.taint.secret

    def test_unop_copies_taint(self):
        k = sym("k", 8, secret=True)
        assert coerce(k, 32).taint.secret
        assert coerce(coerce(k, 32), 8).taint.secret

    @given(st.sampled_from(BIN_OPS), st.booleans(), st.booleans())
    def test_taint_monotonic(self, op, s1, s2):
        a = sym("a", 8, secret=s1)
        b = sym("b", 8, secret=s2)
        e = mk_binop(op, a, b)
        assert e.taint.secret == (s1 or s2)


class TestUnops:
    def test_zext_trunc(self):
        x = sym("x", 8)
        assert coerce(x, 32).width == 32
        assert coerce(coerce(x, 32), 8).width == 8
        assert coerce(x, 8) is x
        assert evaluate(coerce(const(0x1234, 32), 8), Model({})) == 0x34

    def test_shift_amount_mod_width(self):
        e = mk_binop("shl", const(1, 8), const(9, 8))
        assert e.value == 2  # 9 mod 8 == 1


class TestEvaluate:
    def test_unbound_symbol_raises(self):
        with pytest.raises(UnboundSymbol):
            evaluate(sym("x", 8), Model({}))

    def test_memread_little_endian(self):
        snap = {0x100: const(0x11, 8), 0x101: const(0x22, 8),
                0x102: const(0x33, 8), 0x103: const(0x44, 8)}
        e = mk_memread(0, const(0x100, 32), 32, secret=False)
        assert evaluate(e, Model({}), {0: snap}) == 0x44332211

    def test_memread_missing_bytes_read_zero(self):
        e = mk_memread(0, const(0x500, 32), 8, secret=False)
        assert evaluate(e, Model({}), {0: {}}) == 0

    def test_memread_symbolic_address(self):
        snap = {0x10: sym("k", 8, secret=True)}
        a = sym("a", 32)
        e = mk_memread(1, a, 8, secret=True)
        assert evaluate(e, Model({"a": 0x10, "k": 0x7E}), {1: snap}) == 0x7E
        assert e.taint == Taint(secret=True, symbolic=True)

    @given(st.sampled_from(BIN_OPS), st.sampled_from(BIN_OPS),
           st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_tree_evaluation_matches_reference(self, op1, op2, vx, vy, c):
        x, y = sym("x", 8), sym("y", 8)
        e = mk_binop(op2, coerce(mk_binop(op1, x, y), 32),
                     coerce(const(c, 8), 32))
        inner = ref_binop(op1, vx, vy, 8)  # comparisons already yield {0,1}
        expect = ref_binop(op2, inner, c, 32)
        assert evaluate(e, Model({"x": vx, "y": vy})) == expect


class TestStructure:
    def test_syntactic_syms_traverses_memread_addr(self):
        a = sym("a", 32)
        e = mk_memread(3, mk_binop("add", a, const(1, 32)), 8, False)
        assert set(syntactic_syms([e])) == {"a"}
        # references also names the snapshot versions and the reads met
        reads = []
        assert references([e], reads) == ({"a": a}, {3})
        assert reads == [e]

    def test_to_str_stable(self):
        e = mk_binop("add", sym("k", 8, secret=True), const(1, 8))
        assert to_str(e) == "(add (sym k w8 secret) (const 1 w8))"

    def test_exprs_hashable_and_shared(self):
        assert sym("x", 8) == sym("x", 8)
        assert hash(const(1, 8)) == hash(const(1, 8))

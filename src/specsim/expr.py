"""Bit-precise symbolic expression trees with per-expression taint labels.

Expressions are immutable and freely shareable across execution paths.
Every node carries a width in bits and a two-bit taint (secret, symbolic).
Smart constructors apply constant folding plus a small set of identity
rewrites; anything stronger is intentionally left to the enumeration
oracle in :mod:`specsim.solver`.

A `MemRead` holds the `Snapshot` it reads, so every expression evaluates
under a model alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Tuple


class ExprError(Exception):
    pass


class WidthError(ExprError):
    pass


class UnboundSymbol(ExprError):
    pass


@dataclass(frozen=True, slots=True)
class Taint:
    """Independent secrecy and symbolicness bits attached to a value."""

    secret: bool = False
    symbolic: bool = False

    def join(self, other: "Taint") -> "Taint":
        return _TAINTS[self.secret or other.secret][self.symbolic or other.symbolic]


# every Taint value, shared: _TAINTS[secret][symbolic]
_TAINTS = tuple(tuple(Taint(secret, symbolic) for symbolic in (False, True))
                for secret in (False, True))
NO_TAINT = _TAINTS[False][False]

# op -> its result at `width`, of operands already masked to `width`
BINOP_FNS = {
    "add": lambda x, y, width: (x + y) & ((1 << width) - 1),
    "sub": lambda x, y, width: (x - y) & ((1 << width) - 1),
    "mul": lambda x, y, width: (x * y) & ((1 << width) - 1),
    "and": lambda x, y, width: x & y,
    "or": lambda x, y, width: x | y,
    "xor": lambda x, y, width: x ^ y,
    # shift amounts are taken modulo the width
    "shl": lambda x, y, width: (x << (y % width)) & ((1 << width) - 1),
    "lshr": lambda x, y, width: x >> (y % width),
    "lt": lambda x, y, width: int(x < y),
    "le": lambda x, y, width: int(x <= y),
    "eq": lambda x, y, width: int(x == y),
    "ne": lambda x, y, width: int(x != y),
}
CMP_OPS = ("lt", "le", "eq", "ne")
BIN_OPS = tuple(BINOP_FNS)
UN_OPS = ("zext", "trunc")


@dataclass(frozen=True, slots=True)
class Expr:
    width: int
    taint: Taint


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: int


@dataclass(frozen=True, slots=True)
class Sym(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class UnOp(Expr):
    op: str
    a: Expr


@dataclass(frozen=True, slots=True)
class BinOp(Expr):
    op: str
    a: Expr
    b: Expr


class Snapshot:
    """A frozen memory image: `mem` maps byte addresses to width-8
    expressions and never changes once a read holds it; `regions` are the
    [lo, end) spans of the declared secret regions; `facts` is the solver's
    slot for what it learns of the bytes, made on first use.  Compares and
    hashes by `version` alone, as equal reads on sibling paths must."""

    __slots__ = ("version", "mem", "regions", "facts")

    def __init__(self, version: int, mem: Mapping[int, Expr],
                 regions: Tuple[Tuple[int, int], ...] = ()):
        self.version, self.mem, self.regions = version, mem, regions
        self.facts = None

    def __eq__(self, other) -> bool:
        return type(other) is Snapshot and other.version == self.version

    def __hash__(self) -> int:
        return hash(self.version)

    def __repr__(self) -> str:
        return f"Snapshot(v{self.version})"


@dataclass(frozen=True, slots=True)
class MemRead(Expr):
    """Read of `width` bits from `snapshot` at a symbolic address."""

    snapshot: Snapshot
    addr: Expr


def mask(width: int) -> int:
    return (1 << width) - 1


def const(value: int, width: int = 32) -> Const:
    if not 0 < width <= 64:
        raise WidthError(f"bad width {width}")
    return Const(width, NO_TAINT, value & mask(width))


def sym(name: str, width: int, secret: bool = False) -> Sym:
    if not 0 < width <= 64:
        raise WidthError(f"bad width {width}")
    return Sym(width, _TAINTS[secret][True], name)


def mk_binop(op: str, a: Expr, b: Expr) -> Expr:
    """Build a binary operation; taint is the join of the operand taints.

    Comparison results are width-32 values in {0, 1}.  Identity rewrites
    that eliminate an operand (x & 0, x ^ x) drop that operand's taint,
    keeping taint equal to the OR over the remaining symbolic leaves.
    """
    fn = BINOP_FNS.get(op)
    if fn is None:
        raise ExprError(f"unknown binop {op}")
    if a.width != b.width:
        raise WidthError(f"{op}: width mismatch {a.width} vs {b.width}")
    out_width = 32 if op in CMP_OPS else a.width

    if isinstance(a, Const) and isinstance(b, Const):
        return const(fn(a.value, b.value, a.width), out_width)

    # identity rewrites
    if isinstance(b, Const):
        if b.value == 0 and op in ("add", "sub", "or", "xor", "shl", "lshr"):
            return a
        if b.value == 0 and op in ("and", "mul"):
            return const(0, out_width)
        if b.value == 1 and op == "mul":
            return a
    if isinstance(a, Const):
        if a.value == 0 and op in ("add", "or", "xor"):
            return b
        if a.value == 0 and op in ("and", "mul"):
            return const(0, out_width)
        if a.value == 1 and op == "mul":
            return b
    if op == "xor" and a == b:
        return const(0, out_width)

    return BinOp(out_width, a.taint.join(b.taint), op, a, b)


def mk_unop(op: str, a: Expr, width: int) -> Expr:
    """Zero-extend (`zext`) or truncate (`trunc`) `a` to `width`; taint is
    copied from the operand."""
    if op not in UN_OPS:
        raise ExprError(f"unknown unop {op}")
    if op == "zext" and width < a.width:
        raise WidthError("zext needs a wider target width")
    if op == "trunc" and width > a.width:
        raise WidthError("trunc needs a narrower target width")
    if isinstance(a, Const):
        return const(a.value, width)  # masking in const()
    if width == a.width:
        return a
    return UnOp(width, a.taint, op, a)


def coerce(a: Expr, width: int) -> Expr:
    """Zero-extend or truncate `a` to `width`."""
    if a.width == width:
        return a
    if a.width < width:
        return mk_unop("zext", a, width)
    return mk_unop("trunc", a, width)


def mk_memread(snapshot: Snapshot, addr: Expr, width: int, secret: bool
               ) -> MemRead:
    if width not in (8, 32):
        raise WidthError("memory reads are 8 or 32 bits")
    return MemRead(width, _TAINTS[secret][True], snapshot, addr)


class Model:
    """Concrete assignment of symbol names to values (a witness)."""

    def __init__(self, assignment: Mapping[str, int]):
        self.assignment = dict(assignment)

    def lookup(self, s: Sym) -> int:
        try:
            return self.assignment[s.name] & mask(s.width)
        except KeyError:
            raise UnboundSymbol(s.name) from None

    def __eq__(self, other) -> bool:
        return isinstance(other, Model) and self.assignment == other.assignment

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.assignment.items()))
        return f"Model({inner})"


def evaluate(e: Expr, model: Model) -> int:
    """Ground-truth evaluator: two's-complement semantics, modular at width.

    MemRead nodes evaluate their address under `model` and then read their
    snapshot byte-wise (little-endian); addresses missing from the
    snapshot read as zero.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Sym):
        return model.lookup(e)
    if isinstance(e, UnOp):
        return evaluate(e.a, model) & mask(e.width)  # zext / trunc
    if isinstance(e, BinOp):
        x = evaluate(e.a, model)
        y = evaluate(e.b, model)
        return BINOP_FNS[e.op](x, y, e.a.width)
    if isinstance(e, MemRead):
        mem = e.snapshot.mem
        addr = evaluate(e.addr, model)
        value = 0
        for i in range(e.width // 8):
            byte = mem.get(addr + i)
            bv = evaluate(byte, model) if byte is not None else 0
            value |= (bv & 0xFF) << (8 * i)
        return value
    raise ExprError(f"cannot evaluate {e!r}")


def references(exprs: Iterable[Expr], reads: Optional[list] = None
               ) -> Tuple[dict, set]:
    """The Sym nodes appearing syntactically in `exprs`, by name, and the
    snapshots their MemRead nodes read.  `reads`, if given, gets every
    MemRead node met, once per occurrence."""
    out: dict = {}
    snaps: set = set()
    stack = list(exprs)
    while stack:
        e = stack.pop()
        if isinstance(e, Sym):
            out.setdefault(e.name, e)
        elif isinstance(e, UnOp):
            stack.append(e.a)
        elif isinstance(e, BinOp):
            stack.extend((e.a, e.b))
        elif isinstance(e, MemRead):
            snaps.add(e.snapshot)
            stack.append(e.addr)
            if reads is not None:
                reads.append(e)
    return out, snaps


def syntactic_syms(exprs: Iterable[Expr]) -> dict:
    """Collect the Sym nodes appearing syntactically in `exprs`, by name."""
    return references(exprs)[0]


def to_str(e: Expr) -> str:
    """Stable human-readable prefix printer used in reports."""
    if isinstance(e, Const):
        return f"(const {e.value} w{e.width})"
    if isinstance(e, Sym):
        tag = " secret" if e.taint.secret else ""
        return f"(sym {e.name} w{e.width}{tag})"
    if isinstance(e, UnOp):
        return f"({e.op} {to_str(e.a)} w{e.width})"
    if isinstance(e, BinOp):
        return f"({e.op} {to_str(e.a)} {to_str(e.b)})"
    if isinstance(e, MemRead):
        return f"(mem v{e.snapshot.version} {to_str(e.addr)} w{e.width})"
    raise ExprError(f"cannot print {e!r}")

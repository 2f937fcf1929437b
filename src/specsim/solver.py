"""Satisfiability oracle over path conditions and leak queries.

Decided by bounded brute-force enumeration of symbolic inputs.  Symbols
referenced only through memory snapshots (a symbolic load can touch
secret bytes that do not appear syntactically in the query) are
discovered on demand: evaluation under a probing model records every
symbol it reads, and enumeration restarts with the enlarged set until a
fixpoint is reached.

Every question is asked of a `PathCondition`: a path's constraints,
extended one at a time and split into independent slices (constraint
independence, as in KLEE), groups that share no symbol, counting every
symbol a `MemRead` can reach through its snapshot's bytes.  Slices are
enumerated one at a time, so k unrelated 8-bit checks cost k * 2^8
probes rather than 2^(8k).  Each path is bound to one `Session`, the
solver state of one run: its memos and one bit budget.  The budget applies
to each slice and each enumeration stage within it; exceeding it raises,
it is never truncated silently.

Two steps run in front of a slice's enumeration:

- Interval narrowing.  A symbol compared with a constant, plus a constant
  offset that no add can wrap (through `zext`, or inside the engine's
  `ne/eq(cmp, 0)` branch constraints), is narrowed first; then every node
  gets unsigned bounds [lo, hi] at its width.  If a range empties or some
  constraint's bounds are exactly {0}, the slice is unsat without a probe,
  before the budget check.  Otherwise each symbol is enumerated only in
  its narrowed range, in the same order; a skipped value violates a
  constraint, so only symbols read just at skipped values go undiscovered.
  The budget still counts declared widths.
- The session's memo.  It maps a slice's constraints to its witness,
  None, or its budget overrun, and the observable's slice of a leak-pair
  search (observable included) to its pair, None, or its overrun.  It is
  valid because a snapshot, once frozen, is never changed, so within a
  session a version always reads the same bytes; the engine names the
  unchanged initial image version 0, so sibling paths' equal reads are
  equal keys.  Each path slice also keeps its own answer, so a query
  skips the memo for the slices its path already answered.  A stored
  overrun is raised again on every hit.  A key that reads no snapshot but
  version 0 goes to `Session.memo`, which sessions over one image and
  budget may share (the engine keeps one `Store` per program and budget);
  every other key goes to the run's own `Session.local`, as other runs
  give the same versions other bytes.  An answer is a function of its key
  alone, so sharing changes which questions enumerate, never an answer.

Leak-pair search narrows its public loop further.  When the observable's
slice has no syntactic secret and one distinct MemRead, only bytes that
reach a secret symbol can make a pair, so that read's address must lie in
the hull of its snapshot's secret spans (`secret_spans`, which the
engine's may-touch check also reads).  What the solver learns of a
snapshot's bytes holds as long as the snapshot lives, so it is kept on it
(`_facts`); the initial image keeps its facts across runs.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence

from .expr import (CMP_OPS, BinOp, Const, Expr, MemRead, Model, Snapshot, Sym,
                   UnOp, const, evaluate, mask, mk_binop, references, to_str)


class BudgetExceeded(Exception):
    """A query needed more symbolic bits than the configured budget.
    Equal, and hashed alike, when of one type and message, so results that
    keep one compare by what they print."""

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.args == self.args

    def __hash__(self) -> int:
        return hash((type(self), self.args))


class _ProbeModel(Model):
    """Model that defaults missing symbols to 0 and records every lookup."""

    def __init__(self, assignment: Mapping[str, int], seen: dict[str, Sym]):
        super().__init__(assignment)
        self.seen = seen

    def lookup(self, s: Sym) -> int:
        self.seen.setdefault(s.name, s)
        return self.assignment.get(s.name, 0) & mask(s.width)


def _checked_bits(syms: Mapping[str, Sym], budget: int, fixed_bits: int = 0
                  ) -> int:
    """The declared bits of `syms` plus `fixed_bits`; raises BudgetExceeded
    if they exceed `budget`."""
    bits = fixed_bits + sum(s.width for s in syms.values())
    if bits > budget:
        raise BudgetExceeded(f"{bits} symbolic bits exceed budget {budget}")
    return bits


def _assignments(syms: Mapping[str, Sym], bounds: Mapping[Sym, _Bounds],
                 budget: int, fixed_bits: int = 0):
    """Lexicographic enumeration: sorted by name, values ascending, each
    symbol inside its `bounds` entry if it has one.  The budget counts
    declared widths, narrowed or not, and also covers `fixed_bits` already
    fixed by an outer loop."""
    _checked_bits(syms, budget, fixed_bits)
    names = sorted(syms)
    ranges = [range(lo, hi + 1) for lo, hi in
              (bounds.get(syms[n], (0, mask(syms[n].width))) for n in names)]
    for values in itertools.product(*ranges):
        yield dict(zip(names, values))


def _truthy(exprs: Sequence[Expr], model: Model) -> bool:
    return all(evaluate(e, model) != 0 for e in exprs)


_MISS = object()


class Store(dict):
    """A memo that keeps its newest `LIMIT` answers: past that, the oldest
    goes first."""

    __slots__ = ()
    LIMIT = 4096

    def __setitem__(self, key, value) -> None:
        if key not in self and len(self) >= self.LIMIT:
            del self[next(iter(self))]
        super().__setitem__(key, value)


class Session:
    """The solver state of one run: its bit budget, and two memos.  `memo`
    keeps the answers whose constraints read no snapshot but the initial
    image (version 0), which hold for every run over that image and budget,
    so runs may share it; `local` keeps the rest, as other runs number
    their own snapshots with the same versions."""

    __slots__ = ("bit_budget", "memo", "local")

    def __init__(self, bit_budget: int = 20, memo: dict | None = None):
        self.bit_budget = bit_budget
        self.memo: dict = Store() if memo is None else memo
        self.local: dict = {}


def _facts(snap: Snapshot) -> list:
    """[symbols, snapshots, spans] of `snap`'s bytes: the symbols and the
    snapshots they reference, and `secret_spans` by read width, `_MISS`
    until a query needs them; made once per snapshot object."""
    f = snap.facts
    if f is None:
        f = snap.facts = [*references(snap.mem.values()), _MISS]
    return f


def _reach(snaps: set[Snapshot]) -> dict[str, Sym]:
    """Every symbol in the bytes of these snapshots, by name, following
    MemReads nested in those bytes to the snapshots they read."""
    names: dict[str, Sym] = {}
    todo, done = list(snaps), set()
    while todo:
        snap = todo.pop()
        if snap in done:
            continue
        done.add(snap)
        snap_syms, inner, _spans = _facts(snap)
        names.update(snap_syms)
        todo.extend(inner)
    return names


class _Slice:
    """Independent constraints of a path: their indices, the constraints
    themselves (the memo key), their syntactic symbols, every name they
    also reach through snapshots, whether they read no snapshot but the
    image (so `Session.memo` may keep their answers), and their answer,
    `_MISS` until asked."""

    __slots__ = ("members", "exprs", "syms", "names", "image_only", "answer")

    def __init__(self, members, exprs, syms, names, image_only):
        self.members, self.exprs, self.syms = members, exprs, syms
        self.names, self.image_only, self.answer = names, image_only, _MISS

    def memo(self, session: Session) -> dict:
        """The memo of `session` that keeps this slice's answers."""
        return session.memo if self.image_only else session.local


class PathCondition:
    """Constraints split into independent slices, ordered by their first
    constraint.  Immutable, so forks share it: `extend` walks one
    constraint once and merges only the slices sharing a name with it.
    Bound to the session that answers it."""

    __slots__ = ("constraints", "slices", "session", "_parent", "_text")

    def __init__(self, session: Session):
        self.constraints: tuple[Expr, ...] = ()
        self.slices: tuple[_Slice, ...] = ()
        self.session = session
        self._parent: PathCondition | None = None  # until `text` is made
        self._text: str | None = ""

    @property
    def text(self) -> str:
        """The constraints printed and joined by " & ", or "true"; made on
        first use from the parent's text and the last constraint."""
        pending, p = [], self
        while p._text is None:  # no recursion: paths can be long
            pending.append(p)
            p = p._parent
        for p in reversed(pending):
            text, last = p._parent._text, to_str(p.constraints[-1])
            p._text, p._parent = f"{text} & {last}" if text else last, None
        return self._text or "true"

    @staticmethod
    def names(e: Expr) -> tuple[dict[str, Sym], set[str], set]:
        """The symbols of `e`, the names of every symbol it reaches,
        through snapshots included, and the snapshots it reads: the same for
        every constraint over the same symbols and reads.  `reached` and
        `extend` take them to skip the walk."""
        syms, snaps = references((e,))
        return syms, set(syms).union(_reach(snaps)), snaps

    def reached(self, e: Expr, names: tuple | None = None
                ) -> tuple[Expr, ...]:
        """The constraints, in path order, of the slices that share a name
        with `e`, whose `names(e)` the caller may pass."""
        key = (names or self.names(e))[1]
        return tuple(self.constraints[i] for i in sorted(
            i for sl in self.slices if not key.isdisjoint(sl.names)
            for i in sl.members))

    def extend(self, c: Expr, names: tuple | None = None) -> "PathCondition":
        """This path and `c`, whose `names(c)` the caller may pass."""
        out = PathCondition(self.session)
        out.constraints = self.constraints + (c,)
        out._parent, out._text = self, None
        kept, own = _merged(self.slices, out.constraints,
                            names or self.names(c))
        kept.append(own)
        out.slices = tuple(sorted(kept, key=lambda sl: sl.members[0]))
        return out


def _merged(slices: Sequence[_Slice], constraints: tuple[Expr, ...],
            names: tuple) -> tuple[list[_Slice], _Slice]:
    """The `slices` that share no name with the last of `constraints`, in
    order, and the slice of that last one merged with the others; `names`
    is the last one's `PathCondition.names`, left as it is."""
    syms, key, snaps = names
    kept, touched = [], []
    for sl in slices:
        (kept if key.isdisjoint(sl.names) else touched).append(sl)
    members = sorted([len(constraints) - 1]
                     + [i for sl in touched for i in sl.members])
    merged = {}
    for sl in touched:
        merged.update(sl.syms)
    merged.update(syms)
    image_only = (all(snap.version == 0 for snap in snaps)
                  and all(sl.image_only for sl in touched))
    return kept, _Slice(tuple(members),
                        tuple(constraints[i] for i in members), merged,
                        key.union(*(sl.names for sl in touched)), image_only)


_Bounds = tuple[int, int]

# the comparison that holds when a comparison fails, with the same operands
_NEGATION = {"lt": "ge", "le": "gt", "eq": "ne", "ne": "eq"}
# the comparison that holds with its operands swapped
_CONVERSE = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le", "eq": "eq",
             "ne": "ne"}


def _linear(e: Expr) -> tuple[Sym | None, int]:
    """(symbol, offset) such that `e == symbol + offset` for every value of
    the symbol, or (None, 0): a symbol under zexts and adds of a constant,
    where no add can wrap."""
    if isinstance(e, Sym):
        return e, 0
    if isinstance(e, UnOp) and e.op == "zext":
        return _linear(e.a)
    if isinstance(e, BinOp) and e.op == "add":
        a, b = (e.b, e.a) if isinstance(e.a, Const) else (e.a, e.b)
        s, offset = _linear(a) if isinstance(b, Const) else (None, 0)
        if s is not None and mask(s.width) + offset + b.value <= mask(e.width):
            return s, offset + b.value
    return None, 0


def _fact(c: Expr) -> tuple[Sym, str, int] | None:
    """(symbol, op, constant) such that `c != 0` implies `symbol op
    constant`, or None; the constant may be negative.  Reads a comparison
    of a constant with a symbol plus an offset (see `_linear`), also under
    the engine's `ne/eq(cmp, 0)` branch wrapper."""
    if not isinstance(c, BinOp) or c.op not in CMP_OPS:
        return None
    op, a, b = c.op, c.a, c.b
    if (op in ("eq", "ne") and isinstance(b, Const) and b.value == 0
            and isinstance(a, BinOp) and a.op in CMP_OPS):
        op = a.op if op == "ne" else _NEGATION[a.op]
        a, b = a.a, a.b
    if isinstance(a, Const):
        a, b, op = b, a, _CONVERSE[op]
    s, offset = _linear(a) if isinstance(b, Const) else (None, 0)
    return None if s is None else (s, op, b.value - offset)


def _narrow(lo: int, hi: int, op: str, k: int) -> _Bounds:
    if op == "lt":
        return lo, min(hi, k - 1)
    if op == "le":
        return lo, min(hi, k)
    if op == "gt":
        return max(lo, k + 1), hi
    if op == "ge":
        return max(lo, k), hi
    if op == "eq":
        return max(lo, k), min(hi, k)
    return lo + (lo == k), hi - (hi == k)  # ne can only cut an endpoint


def _compare(op: str, a: _Bounds, b: _Bounds) -> _Bounds:
    (alo, ahi), (blo, bhi) = a, b
    if op == "lt":
        true, false = ahi < blo, alo >= bhi
    elif op == "le":
        true, false = ahi <= blo, alo > bhi
    else:
        same, apart = alo == ahi == blo == bhi, ahi < blo or bhi < alo
        true, false = (same, apart) if op == "eq" else (apart, same)
    return (1, 1) if true else (0, 0) if false else (0, 1)


def _binop_bounds(op: str, a: _Bounds, b: _Bounds, width: int) -> _Bounds:
    """_Bounds of `a op b` at `width`: the full range when it may wrap or
    has no rule here."""
    if op in CMP_OPS:
        return _compare(op, a, b)
    (alo, ahi), (blo, bhi) = a, b
    full = (0, mask(width))
    if op == "add":
        lo, hi = alo + blo, ahi + bhi
    elif op == "sub":
        lo, hi = alo - bhi, ahi - blo
    elif op == "mul":
        lo, hi = alo * blo, ahi * bhi
    elif op == "and":
        lo, hi = 0, min(ahi, bhi)
    elif op in ("or", "xor"):
        lo, hi = 0, mask(max(ahi, bhi).bit_length())
    elif op == "shl" and blo == bhi:
        lo, hi = alo << (blo % width), ahi << (blo % width)
    elif op == "lshr" and blo == bhi:
        lo, hi = alo >> (blo % width), ahi >> (blo % width)
    else:
        return full
    return (lo, hi) if 0 <= lo and hi <= full[1] else full


def _bounds(e: Expr, env: Mapping[Sym, _Bounds], seen: dict[int, _Bounds]
            ) -> _Bounds:
    """Unsigned bounds of `e` at its width, given narrowed symbols `env`.
    A MemRead may read anything at its width from any snapshot; `seen`
    caches shared subtrees by identity."""
    if isinstance(e, Const):
        return e.value, e.value
    if isinstance(e, Sym):
        return env.get(e, (0, mask(e.width)))
    r = seen.get(id(e))
    if r is not None:
        return r
    r = (0, mask(e.width))
    if isinstance(e, UnOp):  # zext or trunc
        inner = _bounds(e.a, env, seen)
        if inner[1] <= r[1]:
            r = inner
    elif isinstance(e, BinOp):
        r = _binop_bounds(e.op, _bounds(e.a, env, seen),
                          _bounds(e.b, env, seen), e.a.width)
    seen[id(e)] = r
    return r


def _narrowed(exprs: Sequence[Expr]) -> dict[Sym, _Bounds] | None:
    """Bounds that every satisfying assignment keeps each narrowed symbol
    within, or None if interval bounds show that no assignment satisfies
    every constraint.  Sound but incomplete: bounds decide nothing."""
    env: dict[Sym, _Bounds] = {}
    for c in exprs:
        fact = _fact(c)
        if fact is None:
            continue
        s, op, k = fact
        lo, hi = _narrow(*env.get(s, (0, mask(s.width))), op, k)
        if lo > hi:
            return None
        env[s] = (lo, hi)
    seen: dict[int, _Bounds] = {}
    if any(_bounds(c, env, seen) == (0, 0) for c in exprs):
        return None
    return env


def _solve(exprs: Sequence[Expr], syms: dict[str, Sym], session: Session
           ) -> dict[str, int] | None:
    """First satisfying assignment of one slice in enumeration order, or
    None.  It assigns every symbol its evaluation touched; symbols
    discovered mid-enumeration default to 0.  A slice that interval
    bounds refute is unsat before the budget is checked."""
    bounds = _narrowed(exprs)
    if bounds is None:
        return None
    while True:
        seen: dict[str, Sym] = {}
        for assignment in _assignments(syms, bounds, session.bit_budget):
            probe = _ProbeModel(assignment, seen)
            if _truthy(exprs, probe):
                full = dict(assignment)
                for name in seen:
                    full.setdefault(name, 0)
                return full
        if set(seen) - set(syms):
            syms = {**syms, **seen}
            continue
        return None


def _memoized(memo: dict, key: tuple, compute, *args):
    """`compute(*args)` through `memo` under `key`.  A stored overrun is
    raised again on every hit; a stored result is shared by every hit, so
    callers must copy it, never change it."""
    hit = memo.get(key, _MISS)
    if isinstance(hit, BudgetExceeded):
        raise BudgetExceeded(*hit.args)
    if hit is not _MISS:
        return hit
    try:
        result = compute(*args)
    except BudgetExceeded as e:
        memo[key] = BudgetExceeded(*e.args)  # no traceback keeps frames alive
        raise
    memo[key] = result
    return result


def _solve_all(slices: Sequence[_Slice], session: Session
               ) -> dict[str, int] | None:
    """Union of the slices' witnesses, or None if any slice is unsat.  Each
    slice keeps its answer, so a query skips the memo key's hash for the
    slices its path already answered.

    An unsat slice decides the query even when another slice overran the
    budget; the overrun is raised only if every other slice is sat."""
    witness: dict[str, int] = {}
    overrun: BudgetExceeded | None = None
    for sl in slices:
        part = sl.answer
        if part is _MISS:
            try:
                part = _memoized(sl.memo(session), sl.exprs, _solve,
                                 sl.exprs, sl.syms, session)
            except BudgetExceeded as e:
                part = BudgetExceeded(*e.args)
            sl.answer = part
        if isinstance(part, BudgetExceeded):
            overrun = overrun or part
        elif part is None:
            return None
        else:
            witness.update(part)
    if overrun is not None:
        raise BudgetExceeded(*overrun.args)
    return witness


def is_sat(path: PathCondition) -> Model | None:
    """Return the first satisfying Model of `path` in enumeration order, or
    None.

    The witness is the union of each slice's first witness.  Independent
    slices form a product space, so while no slice has to enumerate
    symbols found behind a MemRead, this is the path's lexicographically
    first witness.  A returned witness assigns every symbol its
    evaluation touched; symbols discovered mid-enumeration default to 0.
    """
    witness = _solve_all(path.slices, path.session)
    return None if witness is None else Model(witness)


def find_leak_pair(path: PathCondition, observable: Expr
                   ) -> tuple[Model, Model] | None:
    """Find two models satisfying `path` that agree on all non-secret
    symbols, differ in secret assignments, and give distinct values of
    `observable`.

    Only the slice holding the observable is searched for the pair; every
    other slice must still be satisfiable, and its witness is shared by
    both models.  Returns None when no such pair exists, i.e. the
    observable reveals nothing about the secrets within the enumerated
    space.
    """
    kept, own = _merged(path.slices, path.constraints + (observable,),
                        PathCondition.names(observable))
    overrun: BudgetExceeded | None = None
    try:
        shared = _solve_all(kept, path.session)
    except BudgetExceeded as e:
        shared, overrun = {}, e
    if shared is None:
        return None
    # the observable is the slice's last constraint; "pair" keeps the key
    # apart from the slice keys
    pair = _memoized(own.memo(path.session), ("pair", own.exprs),
                     _slice_leak_pair, own.exprs[:-1], observable, own.syms,
                     path.session)
    if pair is None:
        return None
    if overrun is not None:
        raise overrun
    m1, m2 = pair
    return Model({**shared, **m1.assignment}), Model({**shared, **m2.assignment})


def _secret_runs(snap: Snapshot) -> tuple[_Bounds, ...]:
    """The maximal runs [lo, end) of addresses of the bytes of `snap` that
    reach a secret symbol, nested reads included, in address order; built
    byte by byte, so a public byte between two secret ones stays out."""
    mem = snap.mem
    runs: list[_Bounds] = []
    for addr in sorted(mem):
        syms, snaps = references((mem[addr],))
        syms.update(_reach(snaps))
        if not any(s.taint.secret for s in syms.values()):
            continue
        if runs and runs[-1][1] == addr:
            runs[-1] = (runs[-1][0], addr + 1)
        else:
            runs.append((addr, addr + 1))
    return tuple(runs)


def _widened(spans: Sequence[_Bounds], n: int) -> list[_Bounds]:
    """The addresses [lo, end) at which an n-byte read covers a byte of
    some span: each span widened down by n - 1, merged where they meet."""
    out: list[_Bounds] = []
    for lo, end in sorted(spans):
        lo = max(lo - (n - 1), 0)
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((lo, end))
    return out


def secret_spans(snap: Snapshot, n: int) -> list[_Bounds]:
    """The addresses [lo, end), in order, at which an n-byte read of
    `snap` covers a secret byte: of a declared secret region, or one that
    reaches a secret symbol (`_secret_runs`); made once per snapshot
    object for both read widths, 1 and 4 bytes."""
    f = _facts(snap)
    if f[2] is _MISS:
        secret = snap.regions + _secret_runs(snap)
        f[2] = {k: _widened(secret, k) for k in (1, 4)}
    return f[2][n]


def _hull_facts(constraints: tuple[Expr, ...], observable: Expr,
                known: dict[str, Sym]) -> tuple[Expr, ...]:
    """Facts that every public assignment giving a leak pair satisfies: a
    read's address lies in the hull of its snapshot's `secret_spans` (see
    the module docstring); a false fact if there are none; no facts where
    the hull does not apply."""
    if any(s.taint.secret for s in known.values()):
        return ()
    reads: list[MemRead] = []
    references(constraints + (observable,), reads)
    if len(set(reads)) != 1:
        return ()
    r = reads[0]
    spans = secret_spans(r.snapshot, r.width // 8)
    if not spans:
        return (const(0, 32),)
    w = r.addr.width
    lo, hi = (min(a, mask(w)) for a in (spans[0][0], spans[-1][1] - 1))
    return (mk_binop("le", const(lo, w), r.addr),
            mk_binop("le", r.addr, const(hi, w)))


def _slice_leak_pair(constraints: tuple[Expr, ...], observable: Expr,
                     known: dict[str, Sym], session: Session
                     ) -> tuple[Model, Model] | None:
    """find_leak_pair within one slice whose syntactic symbols are `known`."""
    budget = session.bit_budget
    public = {n: s for n, s in known.items() if not s.taint.secret}
    secret = {n: s for n, s in known.items() if s.taint.secret}
    bounds = _narrowed(constraints
                       + _hull_facts(constraints, observable, known))
    if bounds is not None:
        lo, hi = _bounds(observable, bounds, {})
    # no public assignment gives a pair, or every model gives the observable
    # one value; overruns still raise
    if bounds is None or lo == hi:
        _checked_bits(secret, budget, _checked_bits(public, budget))
        return None

    while True:
        new_public: dict[str, Sym] = {}
        for pub_assignment in _assignments(public, bounds, budget):
            pair = _leak_pair_for_public(constraints, observable,
                                         pub_assignment, dict(secret), public,
                                         new_public, bounds, session)
            if pair is not None:
                return pair
        if not new_public:
            return None
        public = {**public, **new_public}


def _leak_pair_for_public(constraints: tuple[Expr, ...], observable: Expr,
                          pub_assignment: dict[str, int],
                          secret: dict[str, Sym], public: dict[str, Sym],
                          new_public: dict[str, Sym],
                          bounds: Mapping[Sym, _Bounds], session: Session):
    """Inner enumeration over secret symbols for one fixed public assignment."""
    pub_bits = sum(s.width for s in public.values())
    while True:
        seen: dict[str, Sym] = {}
        first: tuple[int, dict[str, int]] | None = None
        for sec_assignment in _assignments(secret, bounds, session.bit_budget,
                                           pub_bits):
            probe = _ProbeModel({**pub_assignment, **sec_assignment}, seen)
            if not _truthy(constraints, probe):
                continue
            value = evaluate(observable, probe)
            if first is None:
                first = (value, sec_assignment)
            elif value != first[0]:
                defaults = {n: 0 for n in seen
                            if n not in pub_assignment and n not in sec_assignment}
                m1 = Model({**defaults, **pub_assignment, **first[1]})
                m2 = Model({**defaults, **pub_assignment, **sec_assignment})
                probe1 = _ProbeModel(m1.assignment, {})
                probe2 = _ProbeModel(m2.assignment, {})
                v1 = evaluate(observable, probe1)
                v2 = evaluate(observable, probe2)
                assert v1 != v2, "leak pair must yield distinct observables"
                return m1, m2
        new_secret = {n: s for n, s in seen.items()
                      if s.taint.secret and n not in secret}
        for n, s in seen.items():
            if not s.taint.secret and n not in public:
                new_public.setdefault(n, s)
        if new_secret:
            # enumerate again with the secrets this public assignment touches
            secret = {**secret, **new_secret}
            continue
        # newly found public symbols are handled by the caller's restart
        return None

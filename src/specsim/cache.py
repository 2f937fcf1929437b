"""The cache configuration and the solver-backed leak check.

An access leaks if two secrets, equal on public inputs, can put it on
different cache lines: the footprint a cache-timing adversary observes,
which a wrong path leaves behind.  Leakage is judged at cache-line
granularity (Flush+Reload) by default, or at set granularity
(Prime+Probe) via the config flag.  The engine simulates no concrete
cache state.
"""

from __future__ import annotations

from collections import namedtuple

from .expr import Const, Expr, const, mk_binop
from .solver import BudgetExceeded, PathCondition, find_leak_pair


class CacheConfig(namedtuple("CacheConfig", "line_size sets ways granularity",
                             defaults=(64, 64, 4, "line"))):
    """granularity: "line" (Flush+Reload) or "set" (Prime+Probe).  Checked
    on construction, `_replace` included."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("line_size", "sets"):
            v = getattr(self, name)
            if v <= 0 or v & (v - 1):
                raise ValueError(f"{name} must be a positive power of two")
        if self.ways < 1:
            raise ValueError("ways must be >= 1")
        if self.granularity not in ("line", "set"):
            raise ValueError(f"unknown granularity {self.granularity!r}")
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # for `_replace`


# evicted: the line id of the victim, if any
AccessResult = namedtuple("AccessResult", "hit evicted")


class CacheState:
    """Per-set resident line ids, most recently used first.  Nothing in
    the package runs it; the benchmark tracer wraps `access`, so the
    benchmark change of ROADMAP item 2 deletes this class and
    `AccessResult` together with that wrapper."""

    def __init__(self, cfg: CacheConfig):
        self.cfg = cfg
        self.sets: list[list[int]] = [[] for _ in range(cfg.sets)]

    def access(self, addr: int) -> AccessResult:
        line = addr // self.cfg.line_size
        entries = self.sets[line % self.cfg.sets]
        if line in entries:
            entries.remove(line)
            entries.insert(0, line)
            return AccessResult(hit=True, evicted=None)
        entries.insert(0, line)
        evicted = entries.pop() if len(entries) > self.cfg.ways else None
        return AccessResult(hit=False, evicted=evicted)

    def clone(self) -> "CacheState":
        c = CacheState.__new__(CacheState)
        c.cfg = self.cfg
        c.sets = [list(entries) for entries in self.sets]
        return c

    def __eq__(self, other) -> bool:
        return (isinstance(other, CacheState) and self.cfg == other.cfg
                and self.sets == other.sets)


class LeakResult(namedtuple("LeakResult", "status witness observable error",
                            defaults=(None, None, None))):
    """status: "leak", "none", or "unknown"; witness: a (Model, Model) pair;
    observable: what the pair distinguishes; error: the BudgetExceeded
    that made the status "unknown"."""

    __slots__ = ()

    @property
    def positive(self) -> bool:
        return self.status == "leak"


NO_LEAK = LeakResult("none")


def observable_expr(addr_expr: Expr, cfg: CacheConfig) -> Expr:
    """What the adversary can distinguish about an access at this address."""
    line = mk_binop("lshr", addr_expr,
                    const(cfg.line_size.bit_length() - 1, addr_expr.width))
    if cfg.granularity == "set":
        return mk_binop("and", line, const(cfg.sets - 1, line.width))
    return line


def leak_check(addr_expr: Expr, path: PathCondition, cfg: CacheConfig
               ) -> LeakResult:
    """Can two secrets, indistinguishable on public inputs and satisfying
    the path condition `path`, leave different cache footprints through
    this access?  Delegates to the enumeration oracle; budget overruns
    degrade to "unknown" rather than a verdict."""
    if not addr_expr.taint.secret:
        return NO_LEAK
    obs = observable_expr(addr_expr, cfg)
    if isinstance(obs, Const):
        return NO_LEAK
    try:
        pair = find_leak_pair(path, obs)
    except BudgetExceeded as e:
        return LeakResult("unknown", error=e.with_traceback(None))
    if pair is None:
        return NO_LEAK
    return LeakResult("leak", witness=pair, observable=obs)

"""Pattern-detection monitor: a directed-path automaton with token propagation.

A pattern is a chain Start -> Node_1 -> ... -> Node_n.  Tokens are copied
(never moved) forward when an observed event satisfies the next node's
properties; a token reaching the final node is a match, reconstructed
through predecessor links.  Patterns load from JSON:

    {"name": str, "nodes": [{"instruction"?: str, "isSpeculative"?: bool,
      "isConst"?: bool, "isSensitive"?: bool, "checkCacheState"?: bool,
      "startTTL"?: int, "stopTTL"?: bool}, ...]}

where an instruction is a SIR opcode (`sir.OPCODES`).

Note on isConst: true matches events with NO symbolic operand.  Patterns
that demand symbolic operands must say "isConst": false.

Events reach monitors by class, (name, speculative, symbolic, secret),
which decides every node property but checkCacheState: a class's plan
names the monitors it reaches and, for each, the nodes that admit it.
TTLs run on the path's event clock, which counts every event, routed or
not; monitors keep none of their own, so each observe is given it.  A
token with a deadline is queued by deadline when it is made and leaves its
node's list once, when the clock passes the deadline.
"""

from __future__ import annotations

import functools
import json
import math
from collections import namedtuple
from collections.abc import Callable
from heapq import heappop, heappush

from .sir import OPCODES


class PatternError(Exception):
    """Schema violation in a pattern file; message names the field path."""


# each property but stop_ttl (False) may be None: not constrained
NodeProps = namedtuple(
    "NodeProps", "instruction is_speculative is_const is_sensitive "
    "check_cache_state start_ttl stop_ttl", defaults=(None,) * 6 + (False,))


def event_class(event) -> tuple[str, bool, bool, bool]:
    """(name, speculative, symbolic, secret): what `admits` reads."""
    return (event.name, event.speculation, event.symbolic_access,
            event.secret_access)


class MonitorSpec(namedtuple("MonitorSpec", "name nodes")):
    """A pattern: its name and its nodes, a tuple of NodeProps."""

    __slots__ = ()

    @property
    def uses_cache_state(self) -> bool:
        return any(np.check_cache_state is not None for np in self.nodes)


@functools.lru_cache(maxsize=64)
def plans(specs: tuple[MonitorSpec, ...]) -> Callable:
    """event class -> its plan: (k, the nodes of `specs[k]`, last first, that
    `admits` the class) for each k with such a node.  One table per pattern
    set, shared by every engine that watches an equal set."""
    def plan(cls):
        admitted = (tuple(i for i in range(len(spec.nodes) - 1, -1, -1)
                          if admits(spec.nodes[i], cls)) for spec in specs)
        return tuple((k, nodes) for k, nodes in enumerate(admitted) if nodes)
    return functools.cache(plan)


_JSON_FIELDS = {
    "instruction": ("instruction", str),
    "isSpeculative": ("is_speculative", bool),
    "isConst": ("is_const", bool),
    "isSensitive": ("is_sensitive", bool),
    "checkCacheState": ("check_cache_state", bool),
    "startTTL": ("start_ttl", int),
    "stopTTL": ("stop_ttl", bool),
}


def load_pattern(text: str) -> MonitorSpec:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise PatternError(f"not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise PatternError("$: expected an object")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise PatternError("$.name: expected a non-empty string")
    raw_nodes = raw.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise PatternError("$.nodes: expected a non-empty list")
    unknown = set(raw) - {"name", "nodes"}
    if unknown:
        raise PatternError(f"$.{unknown.pop()}: unknown field")

    nodes: list[NodeProps] = []
    for i, raw_np in enumerate(raw_nodes):
        path = f"$.nodes[{i}]"
        if not isinstance(raw_np, dict):
            raise PatternError(f"{path}: expected an object")
        kwargs = {}
        for key, value in raw_np.items():
            if key not in _JSON_FIELDS:
                raise PatternError(f"{path}.{key}: unknown property")
            attr, typ = _JSON_FIELDS[key]
            if not isinstance(value, typ) or (typ is int and isinstance(value, bool)):
                raise PatternError(f"{path}.{key}: expected {typ.__name__}")
            kwargs[attr] = value
        op = kwargs.get("instruction")
        if op is not None and op not in OPCODES:
            raise PatternError(
                f"{path}.instruction: {op!r} is not a SIR opcode")
        if not kwargs:
            raise PatternError(f"{path}: at least one property required")
        np = NodeProps(**kwargs)
        if np.start_ttl is not None and np.stop_ttl:
            raise PatternError(f"{path}: startTTL and stopTTL are exclusive")
        if np.start_ttl is not None and np.start_ttl <= 0:
            raise PatternError(f"{path}.startTTL: must be positive")
        nodes.append(np)
    return MonitorSpec(name, tuple(nodes))


def load_pattern_file(path: str) -> MonitorSpec:
    with open(path, "r", encoding="utf-8") as f:
        return load_pattern(f.read())


def admits(np: NodeProps, cls: tuple[str, bool, bool, bool]) -> bool:
    """Whether events of class `cls` satisfy every property of `np` but
    checkCacheState, the one read per event."""
    name, speculative, symbolic, secret = cls
    return (np.instruction in (None, name)
            and np.is_speculative in (None, speculative)
            and np.is_const in (None, not symbolic)
            and np.is_sensitive in (None, secret))


class Token:
    """`inst` is (pc, name, speculative), None at Start; `deadline` the
    event-clock tick it expires at, None: no TTL."""

    __slots__ = ("parent", "inst", "deadline")

    def __init__(self, parent: Token | None,
                 inst: tuple[int, str, bool] | None, deadline: int | None):
        self.parent, self.inst, self.deadline = parent, inst, deadline


# chain: the (pc, name, speculative) of Node_1..Node_n
Match = namedtuple("Match", "pattern chain")


class MonitorInstance:
    """One live automaton; per path, survives speculation rollback.

    TTLs are deadlines on the path's event clock, its count of events, which
    the caller keeps: a `startTTL` node sets `now + startTTL`, a `stopTTL`
    node none, and any other node keeps the source token's deadline.  Each
    token with a deadline is also queued, once, in `_deadlines`: a heap of
    (deadline, seq, node index, token), where seq numbers the pushes so
    that no two entries tie.  `_expire` pops the due entries and takes
    each one's token out of its node's list.
    """

    def __init__(self, spec: MonitorSpec):
        self.spec = spec
        self._deadlines: list[tuple[int, int, int, Token]] = []
        self._seq = 0  # tokens pushed so far: the heap's tie-break
        # index 0 is Start; it always holds the initial token
        self.node_tokens: list[list[Token]] = [[] for _ in range(len(spec.nodes) + 1)]
        self.node_tokens[0].append(Token(None, None, None))

    @property
    def _earliest(self) -> float:
        """The earliest live deadline; inf if no token has one."""
        return self._deadlines[0][0] if self._deadlines else math.inf

    def observe(self, event, leak, now: int,
                nodes: tuple[int, ...]) -> list[Match]:
        """Advance tokens for one event and its leak-check result.  `now` is
        the path's clock at the event; tokens expired by then go first.  Only
        `nodes`, the nodes that admit the event's class (its `plans` entry),
        are visited, last first, so an event advances a token by at most one
        node; a TTL counts the event that created the token.  Afterwards
        `node_tokens` holds the tokens live at `now + 1`.
        """
        queue = self._deadlines
        if queue and queue[0][0] <= now:
            self._expire(now)
        node_tokens = self.node_tokens
        for i in nodes:
            if node_tokens[i]:
                break
        else:  # no token to advance
            if queue and queue[0][0] <= now + 1:
                self._expire(now + 1)
            return []
        spec = self.spec
        matches: list[Match] = []
        n = len(spec.nodes)
        inst = (event.pc, event.name, event.speculation)
        positive = leak is not None and leak.positive
        for i in nodes:
            np = spec.nodes[i]
            if (not node_tokens[i]
                    or np.check_cache_state not in (None, positive)):
                continue
            inherit = np.start_ttl is None and not np.stop_ttl
            deadline = None if np.start_ttl is None else now + np.start_ttl
            for src in node_tokens[i]:
                tok = Token(src, inst, src.deadline if inherit else deadline)
                node_tokens[i + 1].append(tok)
                if tok.deadline is not None:
                    self._seq += 1
                    heappush(queue, (tok.deadline, self._seq, i + 1, tok))
                if i + 1 == n:
                    matches.append(Match(spec.name, self._chain(tok)))
        if queue and queue[0][0] <= now + 1:
            self._expire(now + 1)
        return matches

    def _expire(self, now: int) -> None:
        """Take each token whose deadline is `now` or earlier out of its
        node's list, which keeps the order of the rest."""
        queue, node_tokens = self._deadlines, self.node_tokens
        while queue and queue[0][0] <= now:
            _deadline, _seq, i, tok = heappop(queue)
            node_tokens[i].remove(tok)

    def _chain(self, tok: Token) -> tuple[tuple[int, str, bool], ...]:
        chain = []
        while tok.inst is not None:  # the Start token has none
            chain.append(tok.inst)
            tok = tok.parent
        return tuple(reversed(chain))

    def clone(self) -> "MonitorInstance":
        c = MonitorInstance.__new__(MonitorInstance)
        c.spec = self.spec
        c._deadlines, c._seq = list(self._deadlines), self._seq
        c.node_tokens = [list(node) for node in self.node_tokens]
        return c

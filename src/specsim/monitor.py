"""Pattern-detection monitor: a directed-path automaton with token propagation.

A pattern is a chain Start -> Node_1 -> ... -> Node_n.  Tokens are copied
(never moved) forward when an observed event satisfies the next node's
properties; a token reaching the final node is a match, reconstructed
through predecessor links.  Patterns load from JSON:

    {"name": str, "nodes": [{"instruction"?: str, "isSpeculative"?: bool,
      "isConst"?: bool, "isSensitive"?: bool, "checkCacheState"?: bool,
      "startTTL"?: int, "stopTTL"?: bool}, ...]}

Note on isConst: true matches events with NO symbolic operand.  Patterns
that demand symbolic operands must say "isConst": false.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple


class PatternError(Exception):
    """Schema violation in a pattern file; message names the field path."""


@dataclass(frozen=True)
class NodeProps:
    instruction: Optional[str] = None
    is_speculative: Optional[bool] = None
    is_const: Optional[bool] = None
    is_sensitive: Optional[bool] = None
    check_cache_state: Optional[bool] = None
    start_ttl: Optional[int] = None
    stop_ttl: bool = False


@dataclass(frozen=True)
class MonitorSpec:
    name: str
    nodes: Tuple[NodeProps, ...]

    def __post_init__(self):
        # by_instruction: instruction name -> the nodes, last first, an event
        # of that name can satisfy; None -> those naming no instruction, for
        # any other name.  Not a field, so not compared or printed.
        order = range(len(self.nodes) - 1, -1, -1)
        object.__setattr__(self, "by_instruction", {
            name: tuple(i for i in order
                        if self.nodes[i].instruction in (name, None))
            for name in {np.instruction for np in self.nodes} | {None}})

    @property
    def uses_cache_state(self) -> bool:
        return any(np.check_cache_state is not None for np in self.nodes)


def watched_names(specs: Sequence[MonitorSpec]) -> Optional[FrozenSet[str]]:
    """The event names some node of `specs` names, or None (all names) when
    a node names no instruction.  An event of any other name satisfies no
    node, so `MonitorInstance.tick` may stand in for `observe`."""
    names = frozenset(np.instruction for spec in specs for np in spec.nodes)
    return None if None in names else names


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

    nodes: List[NodeProps] = []
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


def satisfies(np: NodeProps, event, leak) -> bool:
    """Conjunction over the properties present on the node; `leak` is the
    leak check's result at this access, or None where none ran."""
    if np.instruction is not None and event.name != np.instruction:
        return False
    if np.is_speculative is not None and event.speculation != np.is_speculative:
        return False
    if np.is_const is not None and (not event.symbolic_access) != np.is_const:
        return False
    if np.is_sensitive is not None and event.secret_access != np.is_sensitive:
        return False
    if np.check_cache_state is not None:
        positive = leak is not None and leak.positive
        if positive != np.check_cache_state:
            return False
    return True


@dataclass(slots=True, eq=False)
class Token:
    parent: Optional["Token"]
    inst: Optional[Tuple[int, str, bool]]  # (pc, name, speculative); None at Start
    deadline: Optional[int]  # event-clock tick it expires at; None: no TTL


@dataclass(frozen=True)
class Match:
    pattern: str
    chain: Tuple[Tuple[int, str, bool], ...]  # Node_1..Node_n instruction info


class MonitorInstance:
    """One live automaton; per path, survives speculation rollback.

    TTLs are deadlines on an event clock, `now`, the number of events
    observed: a `startTTL` node sets `now + startTTL`, a `stopTTL` node
    none, and any other node keeps the source token's deadline.
    """

    def __init__(self, spec: MonitorSpec):
        self.spec = spec
        self.now = 0
        self._earliest: float = math.inf  # earliest live deadline
        # index 0 is Start; it always holds the initial token
        self.node_tokens: List[List[Token]] = [[] for _ in range(len(spec.nodes) + 1)]
        self.node_tokens[0].append(Token(None, None, None))

    def observe(self, event, leak=None) -> List[Match]:
        """Advance tokens for one event and its leak-check result, then
        `tick`.  Only the nodes that can name the event are visited, from
        the last backwards, so a single event advances any token by at
        most one node.  A TTL counts the event that created the token.
        """
        matches: List[Match] = []
        spec = self.spec
        n = len(spec.nodes)
        inst = (event.pc, event.name, event.speculation)
        index = spec.by_instruction
        for i in index.get(event.name, index[None]):
            np = spec.nodes[i]
            if not self.node_tokens[i] or not satisfies(np, event, leak):
                continue
            inherit = np.start_ttl is None and not np.stop_ttl
            deadline = None
            if np.start_ttl is not None:
                deadline = self.now + np.start_ttl
                self._earliest = min(self._earliest, deadline)
            for src in self.node_tokens[i]:
                tok = Token(src, inst, src.deadline if inherit else deadline)
                self.node_tokens[i + 1].append(tok)
                if i + 1 == n:
                    matches.append(Match(spec.name, self._chain(tok)))
        self.tick()
        return matches

    def tick(self) -> None:
        """Count one event on the clock and drop the tokens it expires, so
        `node_tokens` holds the live ones."""
        self.now += 1
        if self._earliest <= self.now:
            now = self.now
            for node in self.node_tokens[1:]:
                node[:] = [t for t in node if t.deadline is None or t.deadline > now]
            self._earliest = min((t.deadline for node in self.node_tokens
                                  for t in node if t.deadline is not None),
                                 default=math.inf)

    def _chain(self, tok: Token) -> Tuple[Tuple[int, str, bool], ...]:
        chain = []
        while tok.inst is not None:  # the Start token has none
            chain.append(tok.inst)
            tok = tok.parent
        return tuple(reversed(chain))

    def clone(self) -> "MonitorInstance":
        c = MonitorInstance.__new__(MonitorInstance)
        c.spec = self.spec
        c.now = self.now
        c._earliest = self._earliest
        c.node_tokens = [list(node) for node in self.node_tokens]
        return c

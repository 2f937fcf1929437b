"""Pattern schema, token automaton semantics, and TTL, with a
differential test of monitors on one path clock, reached by event class,
against per-event TTL countdowns that see every event."""

import heapq
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import admitted
from specsim.engine import Event
from specsim.cache import LeakResult, NO_LEAK
from specsim.monitor import (Match, MonitorInstance, MonitorSpec, NodeProps,
                             PatternError, Token, event_class, load_pattern,
                             plans)
from specsim.sir import OPCODES


def pat(*nodes, name="p"):
    return load_pattern(json.dumps({"name": name, "nodes": list(nodes)}))


def ev(name, pc=0, spec=False, symbolic=False, secret=False):
    return Event(name, pc, spec, symbolic, secret)


LEAKY = LeakResult("leak")


def at(m, now, event, leak=None):
    """`m.observe` of `event` at clock `now`, shown the nodes it admits."""
    return m.observe(event, leak, now, admitted(m.spec, event_class(event)))


def satisfies(np, event, leak):
    """Whether `event`, with its leak-check result, advances a token
    through `np` alone: the class's plan and the per-event check agree."""
    spec = MonitorSpec("one", (np,))
    return any(MonitorInstance(spec).observe(event, leak, 0, nodes)
               for _k, nodes in plans((spec,))(event_class(event)))


class TestSchema:
    def test_minimal_pattern(self):
        p = pat({"instruction": "br"}, {"instruction": "load"})
        assert p.name == "p" and len(p.nodes) == 2

    @pytest.mark.parametrize("raw", [
        "nope",
        '{"nodes": [{"instruction": "br"}]}',                 # missing name
        '{"name": "", "nodes": [{"instruction": "br"}]}',
        '{"name": "p", "nodes": []}',
        '{"name": "p", "nodes": [{}]}',                       # empty node
        '{"name": "p", "nodes": [{"wat": 1}]}',
        '{"name": "p", "nodes": [{"startTTL": true}]}',       # bool not int
        '{"name": "p", "nodes": [{"startTTL": 0}]}',
        '{"name": "p", "nodes": [{"startTTL": 2, "stopTTL": true}]}',
        '{"name": "p", "nodes": [{"isConst": 1}]}',           # int not bool
        '{"name": "p", "nodes": [{"instruction": "br"}], "extra": 1}',
    ])
    def test_rejected(self, raw):
        with pytest.raises(PatternError):
            load_pattern(raw)

    def test_error_names_field_path(self):
        with pytest.raises(PatternError) as e:
            load_pattern('{"name": "p", "nodes": [{"instruction": "br"}, '
                         '{"startTTL": -3}]}')
        assert "nodes[1]" in str(e.value)

    def test_instruction_must_be_a_sir_opcode(self):
        with pytest.raises(PatternError) as e:
            pat({"instruction": "br"}, {"instruction": "lod"})
        assert str(e.value).startswith("$.nodes[1].instruction: 'lod'")
        for op in OPCODES:  # every opcode is accepted
            assert pat({"instruction": op}).nodes[0].instruction == op

    def test_uses_cache_state(self):
        assert pat({"checkCacheState": True}).uses_cache_state
        assert not pat({"instruction": "br"}).uses_cache_state


class TestSatisfies:
    def test_instruction_and_speculation(self):
        np = pat({"instruction": "load", "isSpeculative": True}).nodes[0]
        assert satisfies(np, ev("load", spec=True), None)
        assert not satisfies(np, ev("load"), None)
        assert not satisfies(np, ev("store", spec=True), None)

    def test_is_const_means_no_symbolic_operand(self):
        np_const = pat({"isConst": True}).nodes[0]
        np_symbolic = pat({"isConst": False}).nodes[0]
        assert satisfies(np_const, ev("add"), None)
        assert not satisfies(np_const, ev("add", symbolic=True), None)
        assert satisfies(np_symbolic, ev("add", symbolic=True), None)

    def test_sensitive(self):
        np = pat({"isSensitive": True}).nodes[0]
        assert satisfies(np, ev("load", secret=True), None)
        assert not satisfies(np, ev("load"), None)

    def test_check_cache_state_needs_positive_leak(self):
        np = pat({"checkCacheState": True}).nodes[0]
        assert satisfies(np, ev("load"), LEAKY)
        assert not satisfies(np, ev("load"), NO_LEAK)
        assert not satisfies(np, ev("load"), LeakResult("unknown"))
        assert not satisfies(np, ev("load"), None)


class TestAutomaton:
    def test_simple_chain_match(self):
        m = MonitorInstance(pat({"instruction": "br"},
                                {"instruction": "load"}))
        assert at(m, 0, ev("br", pc=4)) == []
        matches = at(m, 1, ev("load", pc=6, spec=True))
        assert len(matches) == 1
        assert matches[0].chain == ((4, "br", False), (6, "load", True))
        assert m.node_tokens[-1]

    def test_tokens_are_copied_not_moved(self):
        m = MonitorInstance(pat({"instruction": "br"}, {"instruction": "load"}))
        at(m, 0, ev("br"))
        at(m, 1, ev("load"))
        # the node-1 token is still there: a second load matches again
        assert len(at(m, 2, ev("load"))) == 1

    def test_single_advance_per_event(self):
        # one event cannot carry a token across two nodes
        m = MonitorInstance(pat({"instruction": "load"}, {"instruction": "load"}))
        assert at(m, 0, ev("load")) == []
        assert len(at(m, 1, ev("load"))) == 1

    def test_multiple_predecessors_fan_out(self):
        m = MonitorInstance(pat({"instruction": "br"}, {"instruction": "load"}))
        at(m, 0, ev("br", pc=1))
        at(m, 1, ev("br", pc=2))
        matches = at(m, 2, ev("load", pc=3))
        chains = {match.chain for match in matches}
        assert chains == {((1, "br", False), (3, "load", False)),
                          ((2, "br", False), (3, "load", False))}

    def test_ttl_expires_counting_creation_observe(self):
        m = MonitorInstance(pat({"instruction": "br", "startTTL": 2},
                                {"instruction": "load"}))
        at(m, 0, ev("br"))        # token created, ttl 2 -> 1
        at(m, 1, ev("add"))       # ttl 1 -> 0: expired
        assert at(m, 2, ev("load")) == []

    def test_ttl_survives_within_window(self):
        m = MonitorInstance(pat({"instruction": "br", "startTTL": 2},
                                {"instruction": "load"}))
        at(m, 0, ev("br"))
        assert len(at(m, 1, ev("load"))) == 1

    def test_stop_ttl_disables_countdown(self):
        m = MonitorInstance(pat({"instruction": "br", "startTTL": 2},
                                {"instruction": "call", "stopTTL": True},
                                {"instruction": "load"}))
        at(m, 0, ev("br"))
        at(m, 1, ev("call"))      # countdown stops on the advanced token
        for now in range(2, 12):
            at(m, now, ev("add"))
        assert len(at(m, 12, ev("load"))) == 1

    def test_ttl_carried_forward_while_running(self):
        m = MonitorInstance(pat({"instruction": "br", "startTTL": 3},
                                {"instruction": "call"},
                                {"instruction": "load"}))
        at(m, 0, ev("br"))        # ttl -> 2
        at(m, 1, ev("call"))      # advance; ttl -> 1
        at(m, 2, ev("add"))       # ttl -> 0: expired before the load
        assert at(m, 3, ev("load")) == []

    def test_nodes_indexed_by_event_class_last_first(self):
        spec = pat({"instruction": "br"}, {"isSpeculative": True},
                   {"instruction": "load", "isSensitive": True},
                   {"instruction": "br", "isConst": True})
        plan = plans((spec,))
        assert plan(("br", False, False, False)) == ((0, (3, 0)),)
        assert plan(("br", True, False, False)) == ((0, (3, 1, 0)),)
        assert plan(("br", True, True, False)) == ((0, (1, 0)),)
        assert plan(("load", True, False, True)) == ((0, (2, 1)),)
        assert plan(("load", False, False, False)) == ()
        assert plan(("add", True, True, True)) == ((0, (1,)),)

    def test_routes_name_the_specs_with_a_node_for_the_class(self):
        br_ld = pat({"instruction": "br"}, {"instruction": "load",
                                            "isSensitive": True})
        icall = pat({"instruction": "icall"}, name="q")
        table = plans((br_ld, icall))
        assert table(("br", False, True, False)) == ((0, (0,)),)
        assert table(("icall", True, False, False)) == ((1, (0,)),)
        assert table(("load", True, True, True)) == ((0, (1,)),)
        assert table(("load", True, True, False)) == ()
        assert table(("add", False, False, False)) == ()
        # one table per pattern set: equal specs share it
        again = (pat({"instruction": "br"}, {"instruction": "load",
                                             "isSensitive": True}),
                 pat({"instruction": "icall"}, name="q"))
        assert plans(again) is table

    def test_clock_catches_up_on_next_observe(self):
        spec = pat({"instruction": "br", "startTTL": 2},
                   {"instruction": "load"})
        m = MonitorInstance(spec)
        at(m, 0, ev("br"))
        assert m._earliest == 2 and len(m.node_tokens[1]) == 1
        # the path saw one event this monitor was not shown: a load at
        # clock 1 is inside the TTL, one at clock 2 is not
        assert len(at(m.clone(), 1, ev("load"))) == 1
        assert at(m, 2, ev("load")) == []
        assert m._earliest == math.inf and m.node_tokens[1] == []

    def test_clone_is_independent(self):
        m = MonitorInstance(pat({"instruction": "br"}, {"instruction": "load"}))
        at(m, 0, ev("br"))
        c = m.clone()
        assert len(at(c, 1, ev("load"))) == 1
        assert not m.node_tokens[-1]



def ref_satisfies(np, event, leak) -> bool:
    """A node's properties checked one by one on the raw event fields."""
    return ((np.instruction is None or event.name == np.instruction)
            and (np.is_speculative is None
                 or event.speculation == np.is_speculative)
            and (np.is_const is None
                 or (not event.symbolic_access) == np.is_const)
            and (np.is_sensitive is None
                 or event.secret_access == np.is_sensitive)
            and (np.check_cache_state is None
                 or (leak is not None and leak.positive)
                 == np.check_cache_state))


class ReferenceMonitor:
    """Independent oracle: every token carries a TTL counter that each
    event decrements, the creating one included; a token whose counter
    reaches zero is gone.  Tokens live in per-node lists of (chain, ttl)
    pairs, ttl -1 meaning no counter runs.  It is fed every event."""

    def __init__(self, spec):
        self.spec = spec
        self.nodes = [[((), -1)]] + [[] for _ in spec.nodes]

    def observe(self, event, leak=None):
        matches = []
        n = len(self.spec.nodes)
        for i in range(n - 1, -1, -1):
            np = self.spec.nodes[i]
            if not ref_satisfies(np, event, leak):
                continue
            for chain, ttl in list(self.nodes[i]):
                if np.start_ttl is not None:
                    ttl = np.start_ttl
                elif np.stop_ttl:
                    ttl = -1
                chain = chain + ((event.pc, event.name, event.speculation),)
                self.nodes[i + 1].append((chain, ttl))
                if i + 1 == n:
                    matches.append(Match(self.spec.name, chain))
        for i in range(1, n + 1):
            ticked = [(c, t - 1 if t > 0 else t) for c, t in self.nodes[i]]
            self.nodes[i] = [(c, t) for c, t in ticked if t != 0]
        return matches

    def clone(self):
        c = ReferenceMonitor(self.spec)
        c.nodes = [list(node) for node in self.nodes]
        return c

    def live(self):
        return [[c for c, _t in node] for node in self.nodes]


def live_chains(m, now=None):
    """The chains of `m`'s tokens, only those live at clock `now` if given."""
    return [[m._chain(t) for t in node
             if now is None or t.deadline is None or t.deadline > now]
            for node in m.node_tokens]


class Path:
    """The monitors of one path, driven as the engine drives them: one
    event clock, and each event shown only to the monitors that its class's
    plan names, with the nodes it names."""

    def __init__(self, specs):
        self.specs = tuple(specs)
        self.monitors = [MonitorInstance(spec) for spec in specs]
        self.clock = 0

    def emit(self, event, leak):
        """{index of each monitor reached: its matches}"""
        now = self.clock
        self.clock += 1
        return {k: self.monitors[k].observe(event, leak, now, nodes)
                for k, nodes in plans(self.specs)(event_class(event))}

    def clone(self):
        c = Path.__new__(Path)
        c.specs, c.clock = self.specs, self.clock
        c.monitors = [m.clone() for m in self.monitors]
        return c


def check(path, refs, event, leak):
    """Emit one event on `path` and feed it to every reference monitor."""
    reached = path.emit(event, leak)
    for k, (m, ref) in enumerate(zip(path.monitors, refs)):
        assert reached.get(k, []) == ref.observe(event, leak)
        if k in reached:  # exactly the live tokens right after observe
            assert live_chains(m) == ref.live()
        assert live_chains(m, path.clock) == ref.live()


# no node names "store", so its events reach no node that names an
# instruction; nodes without one see every class
_NAMES = ("br", "load", "add")
_maybe = st.sampled_from((None, True, False))
_node = st.builds(
    lambda name, spec, const, sensitive, cache, ttl: NodeProps(
        instruction=name, is_speculative=spec, is_const=const,
        is_sensitive=sensitive, check_cache_state=cache,
        start_ttl=ttl if isinstance(ttl, int) else None,
        stop_ttl=ttl == "stop"),
    st.sampled_from(_NAMES + (None,)), _maybe, _maybe, _maybe,
    st.sampled_from((None, None, True, False)),
    st.sampled_from((None, "stop", 1, 2, 3, 5)))
_event = st.tuples(
    st.builds(lambda name, spec, symbolic, secret, pc:
              ev(name, pc=pc, spec=spec, symbolic=symbolic, secret=secret),
              st.sampled_from(_NAMES + ("store",)), st.booleans(),
              st.booleans(), st.booleans(), st.integers(0, 3)),
    st.sampled_from((None, LEAKY, NO_LEAK)))
_spec = st.builds(lambda nodes, i: MonitorSpec(f"p{i}", tuple(nodes)),
                  st.lists(_node, min_size=1, max_size=4), st.integers(0, 9))


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_spec, min_size=1, max_size=3),
           st.lists(st.tuples(_event, _event), min_size=10, max_size=40))
    def test_event_clock_matches_per_event_countdown(self, specs, stream):
        path, refs = Path(specs), [ReferenceMonitor(s) for s in specs]
        for (event, leak), (probe, probe_leak) in stream:
            check(path, refs, event, leak)
            # a clone diverges without touching the original
            c, crefs = path.clone(), [ref.clone() for ref in refs]
            check(c, crefs, probe, probe_leak)
            for m, ref in zip(path.monitors, refs):
                assert live_chains(m, path.clock) == ref.live()


def full_observe(m, event, leak, now):
    """`MonitorInstance.observe` without its early return: the loop over
    the nodes that admit the event's class runs even when none holds a
    token, and the deadline queue is drained at `now` and at `now + 1`
    whatever its head."""
    m._expire(now)
    matches = []
    n = len(m.spec.nodes)
    inst = (event.pc, event.name, event.speculation)
    positive = leak is not None and leak.positive
    for i in admitted(m.spec, event_class(event)):
        np = m.spec.nodes[i]
        if (not m.node_tokens[i]
                or np.check_cache_state not in (None, positive)):
            continue
        deadline = None if np.start_ttl is None else now + np.start_ttl
        for src in m.node_tokens[i]:
            tok = Token(src, inst, deadline if np.start_ttl is not None
                        or np.stop_ttl else src.deadline)
            m.node_tokens[i + 1].append(tok)
            if tok.deadline is not None:
                m._seq += 1
                heapq.heappush(m._deadlines, (tok.deadline, m._seq, i + 1, tok))
            if i + 1 == n:
                matches.append(Match(m.spec.name, m._chain(tok)))
    m._expire(now + 1)
    return matches


def tokens(m):
    """Every token of `m`, node by node, as (chain, deadline)."""
    return [[(m._chain(t), t.deadline) for t in node] for node in m.node_tokens]


def queued(m):
    """Each queued token as (node index, chain, deadline), in queue order;
    the queue must hold exactly the tokens with a deadline."""
    entries = sorted(m._deadlines)
    listed = sorted((i, id(t)) for i, node in enumerate(m.node_tokens)
                    for t in node if t.deadline is not None)
    assert sorted((i, id(t)) for _d, _s, i, t in entries) == listed
    assert all(d == t.deadline for d, _s, _i, t in entries)
    return [(i, m._chain(t), d) for d, _s, i, t in entries]


class TestEarlyReturn:
    @settings(max_examples=200, deadline=None)
    @given(_spec, st.lists(st.tuples(_event, st.integers(0, 2)),
                           min_size=10, max_size=60))
    def test_early_return_matches_the_full_body(self, spec, stream):
        # gaps stand for the path's events this monitor was not shown
        fast, full = MonitorInstance(spec), MonitorInstance(spec)
        now = 0
        for (event, leak), gap in stream:
            now += gap
            assert (at(fast, now, event, leak)
                    == full_observe(full, event, leak, now))
            assert tokens(fast) == tokens(full)
            assert queued(fast) == queued(full)
            assert fast._earliest == full._earliest
            now += 1


class TestDeadlineQueue:
    """Each token with a deadline is queued once and leaves its node's
    list, and the queue, when the deadline passes."""

    def test_long_paths_keep_only_live_tokens(self):
        # every br starts a token at node 1 that lives 32 events, the br's
        # own included: after each observe, those of the last 31 are live
        m = MonitorInstance(pat({"instruction": "br", "startTTL": 32},
                                {"instruction": "load"}))
        peak = 0
        for now in range(10_000):
            at(m, now, ev("br", pc=now))
            peak = max(peak, len(m.node_tokens[1]), len(m._deadlines))
        assert peak == 31
        assert [t.deadline for t in m.node_tokens[1]] == list(
            range(10_001, 10_032))
        assert len(m._deadlines) == 31 and m._earliest == 10_001

    def test_a_clone_expires_without_touching_the_original(self):
        m = MonitorInstance(pat({"instruction": "br", "startTTL": 3},
                                {"instruction": "load"},
                                {"instruction": "load"}))
        at(m, 0, ev("br", pc=1))
        at(m, 1, ev("load", pc=2))
        before = (tokens(m), queued(m))
        c = m.clone()
        assert at(c, 5, ev("load", pc=3)) == []  # both deadlines passed
        assert tokens(c) == [[((), None)], [], [], []]
        assert c._deadlines == [] and c._earliest == math.inf
        assert (tokens(m), queued(m)) == before
        assert at(m, 2, ev("load", pc=3)) == [
            Match("p", ((1, "br", False), (2, "load", False),
                        (3, "load", False)))]

    def test_equal_deadlines_at_different_nodes_both_go(self):
        # brs at clocks 0 and 1 start A (deadline 4) and B (5) at node 1;
        # loads at clocks 2 and 3 copy both to node 2, which so holds
        # deadlines 4, 5, 4, 5
        m = MonitorInstance(pat({"instruction": "br", "startTTL": 4},
                                {"instruction": "load"},
                                {"instruction": "add"}))
        for now, event in enumerate((ev("br", pc=10), ev("br", pc=11),
                                     ev("load", pc=12))):
            at(m, now, event)
        a, b = ((10, "br", False),), ((11, "br", False),)
        assert tokens(m)[1:3] == [[(a, 4), (b, 5)],
                                  [(a + ((12, "load", False),), 4),
                                   (b + ((12, "load", False),), 5)]]
        at(m, 3, ev("load", pc=13))  # then every deadline-4 token goes
        assert tokens(m) == [
            [((), None)], [(b, 5)],
            [(b + ((12, "load", False),), 5), (b + ((13, "load", False),), 5)],
            []]
        assert [(i, d) for i, _chain, d in queued(m)] == [(1, 5), (2, 5),
                                                          (2, 5)]

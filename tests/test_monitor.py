"""Pattern schema, token automaton semantics, and TTL, with a
differential test against a per-event TTL countdown."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from specsim.engine import Event
from specsim.cache import LeakResult, NO_LEAK
from specsim.monitor import (Match, MonitorInstance, MonitorSpec, NodeProps,
                             PatternError, load_pattern, satisfies,
                             watched_names)


def pat(*nodes, name="p"):
    return load_pattern(json.dumps({"name": name, "nodes": list(nodes)}))


def ev(name, pc=0, spec=False, symbolic=False, secret=False):
    return Event(name, pc, spec, symbolic, secret)


LEAKY = LeakResult("leak")


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
        assert m.observe(ev("br", pc=4)) == []
        matches = m.observe(ev("load", pc=6, spec=True))
        assert len(matches) == 1
        assert matches[0].chain == ((4, "br", False), (6, "load", True))
        assert m.node_tokens[-1]

    def test_tokens_are_copied_not_moved(self):
        m = MonitorInstance(pat({"instruction": "br"}, {"instruction": "load"}))
        m.observe(ev("br"))
        m.observe(ev("load"))
        # the node-1 token is still there: a second load matches again
        assert len(m.observe(ev("load"))) == 1

    def test_single_advance_per_event(self):
        # one event cannot carry a token across two nodes
        m = MonitorInstance(pat({"instruction": "load"}, {"instruction": "load"}))
        assert m.observe(ev("load")) == []
        assert len(m.observe(ev("load"))) == 1

    def test_multiple_predecessors_fan_out(self):
        m = MonitorInstance(pat({"instruction": "br"}, {"instruction": "load"}))
        m.observe(ev("br", pc=1))
        m.observe(ev("br", pc=2))
        matches = m.observe(ev("load", pc=3))
        chains = {match.chain for match in matches}
        assert chains == {((1, "br", False), (3, "load", False)),
                          ((2, "br", False), (3, "load", False))}

    def test_ttl_expires_counting_creation_observe(self):
        m = MonitorInstance(pat({"instruction": "br", "startTTL": 2},
                                {"instruction": "load"}))
        m.observe(ev("br"))       # token created, ttl 2 -> 1
        m.observe(ev("add"))      # ttl 1 -> 0: expired
        assert m.observe(ev("load")) == []

    def test_ttl_survives_within_window(self):
        m = MonitorInstance(pat({"instruction": "br", "startTTL": 2},
                                {"instruction": "load"}))
        m.observe(ev("br"))
        assert len(m.observe(ev("load"))) == 1

    def test_stop_ttl_disables_countdown(self):
        m = MonitorInstance(pat({"instruction": "br", "startTTL": 2},
                                {"instruction": "call", "stopTTL": True},
                                {"instruction": "load"}))
        m.observe(ev("br"))
        m.observe(ev("call"))     # countdown stops on the advanced token
        for _ in range(10):
            m.observe(ev("add"))
        assert len(m.observe(ev("load"))) == 1

    def test_ttl_carried_forward_while_running(self):
        m = MonitorInstance(pat({"instruction": "br", "startTTL": 3},
                                {"instruction": "call"},
                                {"instruction": "load"}))
        m.observe(ev("br"))       # ttl -> 2
        m.observe(ev("call"))     # advance; ttl -> 1
        m.observe(ev("add"))      # ttl -> 0: expired before the load
        assert m.observe(ev("load")) == []

    def test_nodes_indexed_by_instruction_last_first(self):
        spec = pat({"instruction": "br"}, {"isSpeculative": True},
                   {"instruction": "load"}, {"instruction": "br"})
        assert spec.by_instruction == {"br": (3, 1, 0), "load": (2, 1),
                                       None: (1,)}

    def test_watched_names(self):
        br_ld = pat({"instruction": "br"}, {"instruction": "load"})
        icall = pat({"instruction": "icall"})
        assert watched_names([br_ld, icall]) == {"br", "load", "icall"}
        assert watched_names([br_ld, pat({"isSpeculative": True})]) is None
        assert watched_names([]) == frozenset()

    def test_tick_advances_the_clock_and_expires(self):
        m = MonitorInstance(pat({"instruction": "br", "startTTL": 2},
                                {"instruction": "load"}))
        m.observe(ev("br"))
        m.tick()
        assert m.now == 2 and m.node_tokens[1] == []
        assert m.observe(ev("load")) == []

    def test_clone_is_independent(self):
        m = MonitorInstance(pat({"instruction": "br"}, {"instruction": "load"}))
        m.observe(ev("br"))
        c = m.clone()
        assert len(c.observe(ev("load"))) == 1
        assert not m.node_tokens[-1]



class ReferenceMonitor:
    """Independent oracle: every token carries a TTL counter that each
    observed event decrements, the creating one included; a token whose
    counter reaches zero is gone.  Tokens live in per-node lists of
    (chain, ttl) pairs, ttl -1 meaning no counter runs."""

    def __init__(self, spec):
        self.spec = spec
        self.nodes = [[((), -1)]] + [[] for _ in spec.nodes]

    def observe(self, event, leak=None):
        matches = []
        n = len(self.spec.nodes)
        for i in range(n - 1, -1, -1):
            np = self.spec.nodes[i]
            if not satisfies(np, event, leak):
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


def live_chains(m):
    return [[m._chain(t) for t in node] for node in m.node_tokens]


def deliver(m, event, tick):
    """Deliver `event` to `m`; return each monitor it reached with its
    matches.  An event that no node of the spec names may take two routes
    in the engine: `observe`, when another pattern of the run names it, or
    `tick()`, when none does.  Then a clone takes the route `m` does not,
    and `tick` picks the one `m` takes."""
    watched = watched_names([m.spec])
    if watched is None or event.name in watched:
        return [(m, m.observe(event))]
    other = m.clone()
    ticked, observed = (m, other) if tick else (other, m)
    ticked.tick()
    return [(ticked, []), (observed, observed.observe(event))]


# no node names "store", so its events take both routes of `deliver`, and
# nodes without an instruction exercise the full sweep
_NAMES = ("br", "load", "add")
_node = st.builds(
    lambda name, spec, ttl: NodeProps(
        instruction=name, is_speculative=spec,
        start_ttl=ttl if isinstance(ttl, int) else None,
        stop_ttl=ttl == "stop"),
    st.sampled_from(_NAMES + (None,)), st.sampled_from((None, True, False)),
    st.sampled_from((None, "stop", 1, 2, 3, 5)))
_event = st.builds(lambda name, spec, pc: ev(name, pc=pc, spec=spec),
                   st.sampled_from(_NAMES + ("store",)), st.booleans(),
                   st.integers(0, 3))


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_node, min_size=1, max_size=4),
           st.lists(st.tuples(_event, _event, st.booleans()),
                    min_size=10, max_size=40))
    def test_event_clock_matches_per_event_countdown(self, nodes, stream):
        spec = MonitorSpec("p", tuple(nodes))
        m, ref = MonitorInstance(spec), ReferenceMonitor(spec)
        for event, probe, tick in stream:
            expected = ref.observe(event)
            for mon, matches in deliver(m, event, tick):
                assert matches == expected
                assert live_chains(mon) == ref.live()
            # a clone diverges without touching the original
            c, rc = m.clone(), ref.clone()
            expected = rc.observe(probe)
            for mon, matches in deliver(c, probe, tick):
                assert matches == expected
                assert live_chains(mon) == rc.live()
            assert live_chains(m) == ref.live()

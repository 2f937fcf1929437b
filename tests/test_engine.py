"""Exploration engine: architectural semantics, forking, speculation
sandboxing, taint-aware events, the baseline mode, and per-run state."""

import importlib.util
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import specsim
from conftest import (ROOT, admitted, chained_v01, counted_loop_program,
                      load_fixture, load_pattern_fixture, random_program,
                      random_predictor_config)
from specsim import cache, layout_regions, parse_program, solver
from specsim import engine as engine_mod
from specsim import expr as ex
from specsim.cache import CacheConfig
from specsim.engine import (Engine, EngineError, Event, ExecState, PathKey,
                            RunResult)
from specsim.expr import Const
from specsim.monitor import MonitorInstance, event_class, load_pattern
from specsim.predictor import PredictorConfig, PredictorState, preset


def build(src, **kwargs):
    program = layout_regions(parse_program(src))
    return Engine(program, **kwargs)


def record_freezes(monkeypatch):
    """The snapshots `Engine._freeze` hands to symbolic loads, in order."""
    frozen, freeze = [], Engine._freeze
    monkeypatch.setattr(Engine, "_freeze", lambda *a: frozen.append(
        freeze(*a)) or frozen[-1])
    return frozen


def record_fact_work(monkeypatch):
    """Lists that get each snapshot's bytes walked for their references,
    and each snapshot whose secret-byte runs are worked out."""
    walks, runs = [], []
    references, secret_runs = solver.references, solver._secret_runs

    def counted_references(exprs, *a):
        if not isinstance(exprs, tuple):  # a snapshot's bytes
            walks.append(exprs)
        return references(exprs, *a)

    monkeypatch.setattr(solver, "references", counted_references)
    monkeypatch.setattr(solver, "_secret_runs",
                        lambda snap: runs.append(snap) or secret_runs(snap))
    return walks, runs


def start(engine):
    """A fresh run of `engine` and the prediction-aware state at its
    entry, as `Engine.run` makes them."""
    run = RunResult(False, dict(engine._symbols),
                    solver.Session(engine.bit_budget, engine._memo))
    return run, ExecState(engine.program.entry,
                          PredictorState(engine.predictor_cfg), [],
                          solver.PathCondition(run.session))


def step(engine, run, state):
    """Execute the instruction at `state.pc` in place, as `Engine.run`
    does; return the live successors."""
    decoded = engine._steps[state.pc]
    successors = []
    if decoded.handler(engine, run, state, state, decoded,
                       successors) == "run":
        successors.append(state)
    return successors


def final_regs(result, index=0):
    """Registers of the index-th finished path, as a dict name -> Expr."""
    _key, _cond, fp = result.stats.path_summaries[index]
    return dict(fp[1])


class TestStraightLine:
    def test_const_arith(self):
        e = build("  const r1, 6\n  const r2, 7\n  mul r3, r1, r2\n  halt\n")
        r = e.run()
        assert r.stats.paths == 1
        r3 = final_regs(r)["r3"]
        assert isinstance(r3, Const) and r3.value == 42

    def test_store_load_roundtrip_w32(self):
        e = build("region m 64\n"
                  "  addrof r1, m\n"
                  "  const r2, 0xdeadbeef\n"
                  "  store r1, r2\n"
                  "  load r3, r1\n"
                  "  load.8 r4, r1\n"
                  "  halt\n")
        r = e.run()
        regs = final_regs(r)
        assert regs["r3"].value == 0xDEADBEEF
        assert regs["r4"].value == 0xEF  # little-endian low byte

    def test_region_init_visible_to_loads(self):
        e = build("region t 4 init=a1b2c3d4\n"
                  "  const r1, 0x1002\n  load.8 r2, r1\n  halt\n")
        assert final_regs(e.run())["r2"].value == 0xC3

    def test_secret_region_bytes_are_secret_symbols(self):
        e = build("region k 2 secret\n"
                  "  const r1, 0x1001\n  load.8 r2, r1\n  halt\n")
        v = final_regs(e.run())["r2"]
        assert v.taint.secret and v.name == "k[1]"

    def test_unset_register_is_an_error(self):
        e = build("  add r1, r1, r2\n  halt\n")
        with pytest.raises(EngineError):
            e.run()

    def test_unmapped_load_reads_zero_with_diagnostic(self):
        e = build("  const r1, 0x9000\n  load.8 r2, r1\n  halt\n")
        r = e.run()
        assert final_regs(r)["r2"].value == 0
        assert r.diagnostics == ["pc 1: load from unmapped address 0x9000"]

    def test_unmapped_access_is_noted_once_per_site(self):
        # five iterations and their wrong paths run the load and the store;
        # each site is noted once, with the first address it touched
        src = ("  const ri, 0\nloop:\n  load rv, 8000\n  add ra, ri, 9000\n"
               "  store ra, rv\n  add ri, ri, 1\n  lt rc, ri, 5\n"
               "  br rc, loop, done\ndone:\n  halt\n")
        for baseline in (False, True):
            r = build(src, predictor_cfg=PredictorConfig(pht_bits=1, window=8)
                      ).run(baseline=baseline)
            assert r.stats.spec_traces > 0
            assert r.diagnostics == ["pc 1: load from unmapped address 0x1f40",
                                     "pc 3: store to unmapped address 0x2328"]

    def test_access_straddling_a_region_end_is_noted(self):
        # a 32-bit load of `a` reads two bytes past it, and a 32-bit store
        # at a+1 writes three; an access across two adjacent regions, or
        # one byte inside `a`, touches only mapped bytes
        r = build("region a 2\nregion b 64\nregion c 64\n"
                  "  addrof ra, a\n  load rv, ra\n  add r1, ra, 1\n"
                  "  store r1, rv\n  load.8 rw, r1\n  addrof rb, b\n"
                  "  add rb, rb, 62\n  load rx, rb\n  store rb, rx\n"
                  "  halt\n").run()
        assert r.diagnostics == ["pc 1: load from unmapped address 0x1000",
                                 "pc 3: store to unmapped address 0x1001"]

    def test_symbolic_store_skipped_with_diagnostic(self):
        e = build("region m 16\n"
                  "  sym r1, a\n  const r2, 5\n  store.8 r1, r2\n  halt\n")
        r = e.run()
        assert any("symbolic store" in d for d in r.diagnostics)
        assert r.stats.paths == 1
        assert r.verdict == "unknown"


class TestControlFlow:
    def test_symbolic_branch_forks_both_ways(self):
        e = build("  sym.8 r1, x\n  const r2, 10\n  lt r3, r1, r2\n"
                  "  br r3, a, b\na:\n  halt\nb:\n  halt\n")
        r = e.run()
        assert r.stats.paths == 2
        conds = {cond for _k, cond, _fp in r.stats.path_summaries}
        assert len(conds) == 2 and any("ne" in c for c in conds)

    def test_concrete_branch_takes_one_path(self):
        e = build("  const r1, 0\n  br r1, a, b\na:\n  halt\nb:\n  halt\n")
        r = e.run()
        assert r.stats.paths == 1
        assert r.stats.path_summaries[0][0] == ((1, False),)

    def test_infeasible_direction_pruned(self):
        e = build("  sym.8 r1, x\n  const r2, 0\n  lt r3, r1, r2\n"
                  "  br r3, a, b\na:\n  halt\nb:\n  halt\n")
        assert e.run().stats.paths == 1  # unsigned x < 0 is unsatisfiable

    def test_call_ret(self):
        e = build("  call f\n  const r9, 1\n  halt\nf:\n  const r1, 5\n  ret\n")
        r = e.run()
        assert r.stats.paths == 1 and final_regs(r)["r9"].value == 1

    def test_ret_past_stack_bottom_ends_path(self):
        e = build("  ret\n  halt\n")
        assert e.run().stats.paths == 1

    def test_icall_concrete_target(self):
        e = build("  addrof r1, f\n  icall r1\n  halt\nf:\n  const r2, 3\n  ret\n")
        r = e.run()
        assert final_regs(r)["r2"].value == 3

    def test_icall_symbolic_target_is_error(self):
        e = build("  sym r1, t\n  icall r1\n  halt\n")
        r = e.run()
        assert any(f.kind == "error" for f in r.findings)
        assert r.verdict == "unknown"

    def test_icall_out_of_range_target_is_error(self):
        e = build("  const r1, 99\n  icall r1\n  halt\n")
        r = e.run()
        assert [f.kind for f in r.findings] == ["error"]
        assert r.findings[0].chain == ((1, "icall", False),)
        assert any("out of range" in d for d in r.diagnostics)
        assert r.verdict == "unknown"


class TestSpeculation:
    CFG = PredictorConfig(pht_bits=1, window=16)

    def test_window_zero_spawns_nothing(self):
        e = Engine(load_fixture("v01.sir"),
                   PredictorConfig(pht_bits=1, window=0))
        assert e.run().stats.spec_traces == 0

    @pytest.mark.parametrize("name, cfg", [
        ("v01.sir", PredictorConfig(pht_bits=1)),
        ("v2.sir", PredictorConfig(btb_sets=4))])
    def test_window_zero_clones_predictor_only_for_forks(self, monkeypatch,
                                                          name, cfg):
        # a misprediction needs a shadow predictor only to run a trace; the
        # baseline's one predictor is never trained, so it is never copied
        counts = Counter()
        pclone, sclone = PredictorState.clone, ExecState.clone
        monkeypatch.setattr(PredictorState, "clone", lambda p: counts.update(
            ["predictor"]) or pclone(p))
        monkeypatch.setattr(ExecState, "clone", lambda s: counts.update(
            ["path"]) or sclone(s))
        for baseline in (False, True):
            counts.clear()
            r = Engine(load_fixture(name), cfg).run(baseline)
            assert r.stats.spec_traces > 0  # it mispredicts
            assert counts["predictor"] == (
                0 if baseline else counts["path"] + r.stats.spec_traces)
            counts.clear()
            Engine(load_fixture(name), cfg._replace(window=0)).run(baseline)
            assert counts["predictor"] == (0 if baseline else counts["path"])

    def test_window_bounds_trace_length(self):
        e = Engine(load_fixture("v01.sir"),
                   PredictorConfig(pht_bits=1, window=3))
        st = e.run().stats
        assert st.spec_traces == 1 and st.spec_instructions <= 3

    def test_architectural_state_identical_with_and_without_speculation(self):
        # rollback exactness, observed end to end: final per-path state and
        # path conditions match a speculation-disabled engine
        for name in ("v01.sir", "v02.sir", "v09.sir", "v2.sir"):
            spec = Engine(load_fixture(name), self.CFG).run()
            nospec = Engine(load_fixture(name),
                            self.CFG._replace(window=0)).run()
            assert spec.stats.path_summaries == nospec.stats.path_summaries

    def test_rollback_check_active_on_fixture_runs(self):
        e = Engine(load_fixture("v01.sir"), self.CFG)
        assert e.run().stats.spec_traces == 1  # and no EngineError raised

    @pytest.mark.parametrize("component", [
        "pc", "register", "stored byte", "return stack", "bhr", "pht", "btb"])
    def test_rollback_check_catches_each_component(self, monkeypatch,
                                                   component):
        # x >= 4 mispredicts taken, and its wrong path runs a `const` whose
        # handler also writes into one part of the path's architecture
        def write(s):
            tl, btb = s.predictor.two_level, s.predictor.btb
            if component == "pc":
                s.pc += 1
            elif component == "register":
                s.regs["rx"] = ex.const(1, 8)
            elif component == "stored byte":
                s.mem[0x1000] = ex.const(7, 8)
            elif component == "return stack":
                s.ret_stack.append(0)
            elif component == "bhr":
                tl.bhr ^= 1
            elif component == "pht":
                tl.pht[tl.bhr] = (tl.counter(tl.bhr) + 1) % 4
            else:
                btb.sets[0] = btb.sets.get(0, ()) + ((15, 1),)

        const = engine_mod._HANDLERS["const"]

        def leaky_const(engine, run, s, frame, step, worklist):
            if frame is not s:
                write(s)
            return const(engine, run, s, frame, step, worklist)

        monkeypatch.setitem(engine_mod._HANDLERS, "const", leaky_const)
        e = build("region pub 16\n  sym.8 rx, x\n  const rb, 4\n"
                  "  lt rc, rx, rb\n  br rc, body, end\nbody:\n"
                  "  const rv, 7\n  halt\nend:\n  halt\n",
                  predictor_cfg=PredictorConfig(pht_bits=1, btb_sets=4,
                                                window=16))
        with pytest.raises(EngineError, match="^speculation leaked into "
                           "architectural state$"):
            e.run()

    def test_speculative_events_carry_value_taint(self):
        # the first gadget load has a public address but a secret value
        pattern = load_pattern_fixture("br-ld-ld.json")
        e = Engine(load_fixture("v01.sir"), self.CFG, patterns=[pattern])
        r = e.run()
        assert r.verdict == "leak"
        (finding,) = r.findings
        assert [pc for pc, _n, _s in finding.chain] == [4, 6, 11]
        assert finding.chain[1][2] and finding.chain[2][2]  # speculative loads

    def test_leak_witness_pair_attached(self):
        pattern = load_pattern_fixture("br-ld-ld.json")
        e = Engine(load_fixture("v01.sir"), self.CFG, patterns=[pattern])
        (finding,) = e.run().findings
        m1, m2 = finding.witness
        assert m1.assignment["x"] == m2.assignment["x"]
        assert finding.observable is not None

    def test_event_log_replayable(self):
        pattern = load_pattern_fixture("br-ld-ld.json")
        e = Engine(load_fixture("v01.sir"), self.CFG, patterns=[pattern])
        (finding,) = e.run().findings
        assert finding.event_log  # consumed by the replay acceptance check


class TestStepLimit:
    def test_truncated_exploration_is_unknown(self):
        pattern = load_pattern_fixture("br-ld-ld.json")
        cfg = PredictorConfig(pht_bits=1)
        full = Engine(load_fixture("v02.sir"), cfg, patterns=[pattern]).run()
        assert full.verdict == "leakage-free" and not full.stats.step_limit_hit
        r = Engine(load_fixture("v02.sir"), cfg, patterns=[pattern],
                   step_limit=3).run()
        assert r.stats.step_limit_hit and r.stats.paths == 0
        assert r.verdict == "unknown"
        assert r.diagnostics == ["step limit exceeded; exploration truncated"]

    @pytest.mark.parametrize("limit", ["bit_budget", "step_limit"])
    def test_negative_limits_are_rejected(self, limit):
        program = load_fixture("v01.sir")
        with pytest.raises(ValueError, match=f"{limit} must be >= 0"):
            Engine(program, **{limit: -1})
        Engine(program, **{limit: 0}).run()


class TestMonitorRouting:
    CFG = PredictorConfig(pht_bits=1, window=16)

    @pytest.mark.parametrize("between, matches", [(1, 1), (2, 0)])
    def test_unwatched_events_count_toward_ttl(self, between, matches):
        # no node names `add`, so the adds reach no monitor but advance the
        # path's clock; a weakly taken counter predicts the taken edge, so
        # no wrong path runs
        pattern = load_pattern(json.dumps({"name": "p", "nodes": [
            {"instruction": "br", "startTTL": 3}, {"instruction": "load"}]}))
        src = ("region m 4\n  addrof r2, m\n  const r1, 1\n  br r1, a, b\na:\n"
               + "  add r3, r1, r1\n" * between
               + "  load.8 r4, r2\n  halt\nb:\n  halt\n")
        r = build(src, predictor_cfg=self.CFG, patterns=[pattern]).run()
        assert r.stats.spec_traces == 0
        assert [f.chain for f in r.findings] == [
            ((2, "br", False), (3 + between, "load", False))] * matches

    def test_node_without_instruction_sees_every_event(self):
        nodes = json.loads(
            (ROOT / "fixtures/patterns/br-ld-ld.json").read_text())["nodes"]
        del nodes[1]["instruction"]
        pattern = load_pattern(json.dumps({"name": "br-x-ld", "nodes": nodes}))
        r = Engine(load_fixture("v01.sir"), self.CFG, patterns=[pattern]).run()
        assert r.verdict == "leak"
        assert {f.chain[-1] for f in r.findings} == {(11, "load", True)}
        # the middle node matched instructions no other node names
        assert {f.chain[1][1] for f in r.findings} == {"load", "mul", "add"}


class TestStepPlans:
    # the shipped patterns, and one whose nodes name no instruction: every
    # concrete class reaches it, at other nodes on a wrong path
    SPECS = tuple(load_pattern_fixture(f"{p}.json") for p in
                  ("br-ld-ld", "icall-ld-ld", "ld-br-ld")) + (
        load_pattern(json.dumps({"name": "any", "nodes": [
            {"isSpeculative": False}, {"isConst": True},
            {"isSensitive": False, "isSpeculative": True}]})),)

    def test_each_step_plan_is_what_admits_names(self):
        specs = self.SPECS
        rng = random.Random(1313)
        for _ in range(40):
            program = layout_regions(parse_program(random_program(rng)))
            plans = Engine(program, patterns=specs)._step_plans
            for speculative in (False, True):
                for pc, inst in enumerate(program.instructions):
                    cls = (inst.opcode, speculative, False, False)
                    assert plans[speculative][pc] == tuple(
                        (k, admitted(spec, cls))
                        for k, spec in enumerate(specs) if admitted(spec, cls))
                    assert any(plans[speculative][pc])

    def test_monitors_get_the_nodes_of_each_event_class(self, monkeypatch):
        agree = []
        observe = MonitorInstance.observe

        def checked(self, event, leak, now, nodes):
            agree.append(nodes == admitted(self.spec, event_class(event)))
            return observe(self, event, leak, now, nodes)

        monkeypatch.setattr(MonitorInstance, "observe", checked)
        rng = random.Random(1414)
        spec_traces = 0
        for _ in range(40):
            program = layout_regions(parse_program(random_program(rng)))
            engine = Engine(program, random_predictor_config(rng),
                            patterns=self.SPECS, bit_budget=12)
            for baseline in (False, True):
                spec_traces += engine.run(baseline).stats.spec_traces
        assert spec_traces > 20 and len(agree) > 1000 and all(agree)


class TestConcreteLane:
    @pytest.mark.parametrize("op", ex.BIN_OPS)
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((8, 32)), st.integers(0, 2**32 - 1),
           st.integers(0, 2**32 - 1), st.sampled_from((8, 32)),
           st.sampled_from((8, 32)))
    def test_concrete_binop_is_mk_binop(self, op, width, x, y, wx, wy):
        # the decoded step's concrete lane computes what mk_binop does
        a, b = ex.const(x, wx), ex.const(y, wy)
        suffix = {8: ".8", 32: ""}
        r = build(f"  const{suffix[wx]} r1, {x}\n  const{suffix[wy]} r2, {y}\n"
                  f"  {op}{suffix[width]} r3, r1, r2\n  halt\n").run()
        assert final_regs(r)["r3"] == ex.mk_binop(
            op, ex.coerce(a, width), ex.coerce(b, width))

    def test_reused_event_equals_a_fresh_one(self):
        # pc 3 adds constants on the first pass and a symbol on the second
        e = build("  const r1, 1\n  const r2, 2\n  const r3, 0\n"
                  "top:\n  add r4, r1, r2\n  sym r1, s\n  add r3, r3, 1\n"
                  "  lt r5, r3, 2\n  br r5, top, out\nout:\n  halt\n")
        run, state = start(e)
        for _ in range(13):  # up to the halt
            (state,) = step(e, run, state)
        log = [event for event, _leak in state.event_log]
        adds = [event for event in log if event.pc == 3]
        assert adds[0] == Event("add", 3, False, False, False)
        assert adds[1] == Event("add", 3, False, True, False)
        consts = [event for event in log if event.name == "const"]
        assert consts == [Event("const", pc, False, False, False)
                          for pc in range(3)]
        # one shared object per (name, pc, speculation)
        incr = [event for event in log if event.pc == 5]
        assert len(incr) == 2 and incr[0] is incr[1]


class TestConcreteStores:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((8, 32)), st.sampled_from((8, 32)),
           st.integers(0, 2**32 - 1))
    def test_stored_bytes_are_the_shifted_constant(self, value_width,
                                                   store_width, v):
        vs = "" if value_width == 32 else ".8"
        ss = "" if store_width == 32 else ".8"
        r = build(f"region m 4\n  addrof ra, m\n  const{vs} rv, {v}\n"
                  f"  store{ss} ra, rv\n  halt\n").run()
        base = 0x1000
        value = ex.coerce(ex.const(v, value_width), store_width)
        if store_width == 8:
            expected = [ex.coerce(value, 8)]
        else:
            expected = [ex.coerce(ex.mk_binop("lshr", value,
                                              ex.const(8 * i, 32)), 8)
                        for i in range(4)]
        mem = r.stats.path_summaries[0][2][2]  # the fingerprint's stores
        assert mem == tuple((base + i, byte) for i, byte in enumerate(expected))


class TestPathText:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255),
                              st.booleans()),
                    max_size=25))
    def test_text_is_printed_once_per_path_object(self, steps):
        # each step extends an earlier path (a fork) with x < k, and may
        # ask for its text; every text equals the joined printed constraints
        calls = Counter()
        original = solver.to_str

        def counting(e):
            calls[id(e)] += 1
            return original(e)

        x = ex.sym("x", 8)
        paths, parents = [solver.PathCondition(solver.Session())], [None]
        asked = set()
        solver.to_str = counting
        try:
            for pick, k, ask in steps:
                parents.append(pick % len(paths))
                paths.append(paths[parents[-1]].extend(
                    ex.mk_binop("lt", x, ex.const(k, 8))))
                if ask:
                    asked.add(len(paths) - 1)
            for i in sorted(asked) + [0]:
                p = paths[i]
                assert p.text == (" & ".join(original(c)
                                             for c in p.constraints) or "true")
                assert p.text is p.text  # made once, then kept
        finally:
            solver.to_str = original
        # each path object prints only its own last constraint, once: the
        # asked paths and those they were extended from, the root aside
        made = set()
        for i in asked:
            while parents[i] is not None:
                made.add(id(paths[i].constraints[-1]))
                i = parents[i]
        assert set(calls) == made and all(n == 1 for n in calls.values())


class TestObserveCount:
    # a 20-iteration concrete loop, the shape of the benchmark's loop
    LOOP = ("region buf 1\n  const ri, 0\n  const rn, 20\n"
            "  addrof rbuf, buf\nloop:\n  load.8 rv, rbuf\n"
            "  add rv, rv, ri\n  store.8 rbuf, rv\n  add ri, ri, 1\n"
            "  lt rc, ri, rn\n  br rc, loop, done\ndone:\n  halt\n")

    @pytest.mark.parametrize("baseline, observes", [(False, 45), (True, 42)])
    def test_observes_per_event_class(self, baseline, observes, monkeypatch):
        # With the three shipped patterns, a public load reaches only
        # ld-br-ld (its last node) and a public br only br-ld-ld (its
        # first); nothing else reaches a monitor.  Architecturally: 20
        # loads and 20 brs.  Prediction-aware, PHT:1: only the exit
        # mispredicts, and its 16-instruction wrong path runs the body
        # from the load: loads at steps 1, 7 and 13, brs at 6 and 12, so
        # 40 + 5.  Baseline: the 19 taken brs speculate into `halt`, and
        # the exit into one body pass that falls through its br: 40 + 2.
        seen = []
        observe = MonitorInstance.observe

        def counting(self, *args, **kwargs):
            seen.append(self.spec.name)
            return observe(self, *args, **kwargs)

        monkeypatch.setattr(MonitorInstance, "observe", counting)
        patterns = [load_pattern_fixture(f"{p}.json")
                    for p in ("br-ld-ld", "icall-ld-ld", "ld-br-ld")]
        r = build(self.LOOP, predictor_cfg=PredictorConfig(pht_bits=1,
                                                           window=16),
                  patterns=patterns).run(baseline=baseline)
        assert r.verdict == "leakage-free"
        assert len(seen) == observes
        assert Counter(seen) == {"br-ld-ld": 20 + (1 if baseline else 2),
                                 "ld-br-ld": 20 + (1 if baseline else 3)}


class TestStepLimitPoint:
    @pytest.mark.parametrize("limit", [1, 4, 6, 7, 30, 121, 122])
    def test_truncation_lands_on_the_limit_th_instruction(self, limit):
        # the loop's concrete branches go on in place; the run stops after
        # exactly `limit` architectural steps, as stepping one at a time does
        e = build(TestObserveCount.LOOP,
                  predictor_cfg=PredictorConfig(pht_bits=1, window=16))
        r = Engine(e.program, e.predictor_cfg, step_limit=limit).run()
        run, state = start(e)
        for _ in range(limit):
            (state,) = step(e, run, state)
        assert r.stats.step_limit_hit and r.stats.paths == 0
        assert r.stats.arch_instructions == limit
        assert r.stats.spec_instructions == run.stats.spec_instructions
        assert r.stats.trace_identities == run.stats.trace_identities

    def test_a_limit_at_the_path_length_is_not_hit(self):
        e = build(TestObserveCount.LOOP)
        n = e.run().stats.arch_instructions
        assert not Engine(e.program, step_limit=n).run().stats.step_limit_hit
        assert Engine(e.program, step_limit=n - 1).run().stats.step_limit_hit


class TestBaseline:
    def test_baseline_spawns_on_every_conditional(self):
        src = ("  const r1, 1\n  br r1, a, b\na:\n  halt\nb:\n  halt\n")
        e = build(src, predictor_cfg=PredictorConfig(pht_bits=1, window=8))
        assert e.run(baseline=True).stats.spec_traces == 1
        assert e.run().stats.spec_traces == 0  # predicted taken, was taken

    def test_baseline_ignores_indirect_calls(self):
        e = Engine(load_fixture("v2.sir"),
                   PredictorConfig(btb_sets=4, window=16))
        assert e.run(baseline=True).stats.spec_traces == 1  # just the br
        assert e.run().stats.spec_traces == 2

    # a branch never taken architecturally; its taken edge calls `invoke`,
    # whose icall (pc 10) holds gadget's pc, so only a wrong path reaches
    # it.  {train} (pc 2) either calls `invoke` architecturally with
    # {target} in rt, which installs the BTB entry of pc 10, or does
    # nothing.  Second loads are at pc 19 (gadget) and 28 (copy, the same
    # code).
    WRONG_PATH_ICALL = """region array1 16 init=000102030405060708090a0b0c0d0e0f
region secret 64 secret
region array2 16384
  const ri, 1
  addrof rt, {target}
  {train}
  sym.8 rs, idx
  add ri, rs, 0
  addrof rt, gadget
  const rc, 0
  br rc, spec, done
spec:
  call invoke
done:
  halt
invoke:
  icall rt
  ret
gadget:
  addrof ra1, array1
  add ra, ra1, ri
  load.8 rv, ra
  const r64, 64
  mul rm, rv, r64
  addrof ra2, array2
  add rb2, ra2, rm
  load.8 rw, rb2
  ret
copy:
  addrof ra1, array1
  add ra, ra1, ri
  load.8 rv, ra
  const r64, 64
  mul rm, rv, r64
  addrof ra2, array2
  add rb2, ra2, rm
  load.8 rw, rb2
  ret
safe:
  ret
"""

    @pytest.mark.parametrize("train, target, aware_leaks_at", [
        ("const rz, 0", "safe", set()),  # an empty BTB: the trace stalls
        ("call invoke", "safe", set()),  # the BTB steers into `safe`
        ("call invoke", "copy", {28})])  # the BTB steers into `copy`
    def test_wrong_path_icall(self, train, target, aware_leaks_at):
        # the baseline follows the call's resolved target, `gadget`; the
        # prediction-aware mode follows its shadow BTB, and only that
        program = self.WRONG_PATH_ICALL.format(train=train, target=target)
        e = build(program, predictor_cfg=PredictorConfig(
            pht_bits=1, btb_sets=4, window=16),
            patterns=[load_pattern_fixture("icall-ld-ld.json")])
        assert e.program.labels["invoke"] == 10
        aware, base = e.run(), e.run(baseline=True)
        assert aware.stats.spec_traces == base.stats.spec_traces == 1
        assert {f.chain[-1][0] for f in aware.findings} == aware_leaks_at
        assert {f.chain[-1][0] for f in base.findings} == {19}
        assert base.verdict == "leak"

    @pytest.mark.parametrize("name", ["v01.sir", "v02.sir", "v09.sir",
                                      "v11.sir", "v2.sir"])
    @pytest.mark.parametrize("cfg", [PredictorConfig(pht_bits=1),
                                     *(preset(p) for p in ("cortex-a53",
                                                           "cortex-a7",
                                                           "pentium4"))])
    def test_baseline_ignores_the_initial_counters(self, name, cfg):
        patterns = [load_pattern_fixture(f"{p}.json")
                    for p in ("br-ld-ld", "icall-ld-ld", "ld-br-ld")]
        program = load_fixture(name)
        outputs = set()
        for init in range(4):
            r = Engine(program, cfg._replace(init_counter=init),
                       patterns=patterns).run(baseline=True)
            outputs.add((repr([f.to_dict() for f in r.findings]),
                         repr(r.diagnostics), repr(r.stats)))
        assert len(outputs) == 1

    def test_baseline_detects_fall_through_gadget(self):
        pattern = load_pattern_fixture("br-ld-ld.json")
        cfg = PredictorConfig(pht_bits=1, window=16)
        e = Engine(load_fixture("v02.sir"), cfg, patterns=[pattern])
        assert e.run(baseline=True).verdict == "leak"
        e2 = Engine(load_fixture("v02.sir"), cfg, patterns=[pattern])
        assert e2.run().verdict == "leakage-free"


class TestDeterminism:
    def test_repeated_runs_identical(self):
        pattern = load_pattern_fixture("br-ld-ld.json")
        cfg = PredictorConfig(pht_bits=4, window=32)

        def one():
            e = Engine(load_fixture("v09.sir"), cfg, patterns=[pattern])
            r = e.run()
            return ([f.to_dict() for f in r.findings], r.stats.paths,
                    r.stats.spec_traces, r.stats.trace_identities)

        assert one() == one()

    def test_final_registers_of_a_run(self):
        e = build("  const r1, 2\n  const r2, 3\n  add r3, r1, r2\n  halt\n")
        assert final_regs(e.run())["r3"].value == 5

    def test_loads_of_a_run_read_the_image_snapshot(self):
        # the branch's feasibility queries read the load's snapshot, which
        # the loaded value carries: the program's image
        e = build("region m 16\n  sym.8 r1, x\n  addrof r2, m\n"
                  "  add r3, r2, r1\n  load.8 r4, r3\n  br r4, a, a\n"
                  "a:\n  halt\n")
        r = e.run()
        assert r.stats.paths == 1  # m is all zero bytes: r4 is never taken
        assert final_regs(r)["r4"].snapshot is e._image
        assert e._image.version == 0 and e._image.mem is e._init_mem


# v01's gadget without its bounds check: the first load's address is
# public, the second one's is secret
_UNGUARDED = """region array1 16 init=000102030405060708090a0b0c0d0e0f
region secret 64 secret
region array2 16384
  sym.8 rx, x
  addrof ra1, array1
  add ra, ra1, rx
  load.8 rv, ra
  const r64, 64
  mul rm, rv, r64
  addrof ra2, array2
  add rb, ra2, rm
  load.8 rw, rb
  halt
"""


class TestBudgetAccounting:
    def test_may_touch_and_leak_check_overruns_are_counted(self):
        pattern = load_pattern_fixture("br-ld-ld.json")
        r = build(_UNGUARDED, patterns=[pattern], bit_budget=4).run()
        # no branch and no match: one may-touch query at the first load and
        # one leak check at the second, each over 8 bits
        assert r.unknown and r.verdict == "unknown"
        assert r.stats.budget_exceeded == 2
        r = build(_UNGUARDED, patterns=[pattern]).run()
        assert not r.unknown and r.stats.budget_exceeded == 0

    def test_runs_with_an_overrun_leak_check_compare_equal(self):
        # the leak check of array2[64 * secret[(y + z) & 63]] needs 24 bits;
        # the v01 gadget after it leaks, and its finding's event log holds
        # that check's overrun
        e = build(_OVERRUN_THEN_V01,
                  predictor_cfg=PredictorConfig(pht_bits=1, window=16),
                  patterns=[load_pattern_fixture("br-ld-ld.json")])
        first, second = e.run(), e.run()
        assert first.verdict == "leak" and first.stats.budget_exceeded == 1
        (finding,) = first.findings
        assert [leak.error for _event, leak in finding.event_log
                if leak is not None and leak.error is not None] == [
            solver.BudgetExceeded("24 symbolic bits exceed budget 20")]
        assert first == second


_OVERRUN_THEN_V01 = _UNGUARDED.replace("  sym.8 rx, x\n", """\
  sym.8 ry, y
  sym.8 rz, z
  add rt, ry, rz
  and rt, rt, 63
  addrof rs, secret
  add rq, rs, rt
  load.8 rv, rq
  mul rm, rv, 64
  addrof ra2, array2
  add rb, ra2, rm
  load.8 rw, rb
  sym.8 rx, x
  const rsz, 16
  lt rc, rx, rsz
  br rc, body, end
body:
""").replace("  halt\n", "end:\n  halt\n")


class TestChainedChecks:
    def test_three_chained_checks_report_every_gadget(self):
        # three independent 8-bit checks: 24 bits in all, but each solver
        # query splits into slices of at most 8 bits plus secret bytes
        text, sites = chained_v01([5, 16, 9])
        patterns = [load_pattern_fixture(n) for n in
                    ("br-ld-ld.json", "icall-ld-ld.json", "ld-br-ld.json")]
        r = build(text, predictor_cfg=PredictorConfig(pht_bits=2, window=16),
                  patterns=patterns).run()
        assert not r.unknown
        assert r.stats.budget_exceeded == 0
        leaks = {f.chain[-1][0] for f in r.findings if f.kind == "leak"}
        assert leaks == set(sites)
        assert r.verdict == "leak"


class TestSolverQueries:
    def test_every_query_counts_memo_hits_included(self, monkeypatch):
        # branch feasibility, may-touch, witness search and leak-pair
        # searches all count, whether or not the memo answers them
        calls = []
        is_sat, find_leak_pair = solver.is_sat, cache.find_leak_pair
        monkeypatch.setattr(solver, "is_sat",
                            lambda q: calls.append("is_sat") or is_sat(q))
        monkeypatch.setattr(cache, "find_leak_pair",
                            lambda q, o: calls.append("pair")
                            or find_leak_pair(q, o))
        text, _sites = chained_v01([5, 16, 9])
        patterns = [load_pattern_fixture(n) for n in
                    ("br-ld-ld.json", "icall-ld-ld.json", "ld-br-ld.json")]
        r = build(text, predictor_cfg=PredictorConfig(pht_bits=2, window=16),
                  patterns=patterns).run()
        assert "pair" in calls and len(calls) > 2 * 7  # 7 forking branches
        assert r.stats.solver_queries == len(calls)


class TestSolverMemo:
    def _same_overrun_twice(self):
        # two loads through one 8-bit symbolic address: the second
        # may-touch query repeats the first slice, which overruns at 4 bits
        return build("region pub 16\nregion sec 16 secret\n"
                     "  sym.8 rx, x\n  addrof rp, pub\n  add ra, rp, rx\n"
                     "  load.8 r1, ra\n  load.8 r2, ra\n  halt\n",
                     bit_budget=4)

    def test_memoised_overrun_counts_every_time(self, monkeypatch):
        solves = []
        solve = solver._solve
        monkeypatch.setattr(solver, "_solve",
                            lambda *a: solves.append(a) or solve(*a))
        r = self._same_overrun_twice().run()
        assert len(solves) == 1  # the second query is a memo hit
        assert r.stats.budget_exceeded == 2 and r.verdict == "unknown"

    def test_memoised_leak_pair_overrun_counts_every_time(self, monkeypatch):
        # two transmitting loads through one address: the second leak-pair
        # search repeats the first, which overruns at 4 bits
        pairs = []
        slice_pair = solver._slice_leak_pair
        monkeypatch.setattr(solver, "_slice_leak_pair",
                            lambda *a: pairs.append(a) or slice_pair(*a))
        r = build(_UNGUARDED.replace("  halt\n", "  load.8 rw, rb\n  halt\n"),
                  patterns=[load_pattern_fixture("br-ld-ld.json")],
                  bit_budget=4).run()
        assert len(pairs) == 1  # the second search is a memo hit
        # one may-touch overrun and two leak-pair overruns
        assert r.stats.budget_exceeded == 3 and r.verdict == "unknown"

    def test_sibling_paths_share_reads_of_the_image(self, monkeypatch):
        searches, pairs = [], []
        find_leak_pair, slice_pair = cache.find_leak_pair, solver._slice_leak_pair
        monkeypatch.setattr(cache, "find_leak_pair",
                            lambda q, o: searches.append(o)
                            or find_leak_pair(q, o))
        monkeypatch.setattr(solver, "_slice_leak_pair",
                            lambda *a: pairs.append(a) or slice_pair(*a))
        text, sites = chained_v01([5, 16, 9])
        e = build(text, predictor_cfg=PredictorConfig(pht_bits=2, window=16),
                  patterns=[load_pattern_fixture(n) for n in
                            ("br-ld-ld.json", "icall-ld-ld.json",
                             "ld-br-ld.json")])
        r = e.run()
        assert {f.chain[-1][0] for f in r.findings} == set(sites)
        reads = []
        ex.references([f.observable for f in r.findings if f.observable],
                      reads)
        assert reads and all(m.snapshot is e._image for m in reads)
        # equal searches on sibling paths are answered by the run's memo
        assert len(pairs) < len(searches)

    def test_a_run_without_the_memo_answers_the_same(self, monkeypatch):
        patterns = [load_pattern_fixture(n) for n in
                    ("br-ld-ld.json", "icall-ld-ld.json", "ld-br-ld.json")]
        rng = random.Random(1515)
        cells = []
        for _ in range(300):
            program = layout_regions(parse_program(random_program(rng)))
            cfg = random_predictor_config(rng)
            cells += [(program, cfg, False), (program, cfg, True)]

        def outputs():
            out = []
            for program, cfg, baseline in cells:
                r = Engine(program, cfg, patterns=patterns,
                           bit_budget=12).run(baseline)
                out.append((r.verdict, [f.to_dict() for f in r.findings],
                            r.diagnostics, r.unknown, repr(r.stats)))
            return out

        solves = []  # slice enumerations and leak-pair searches
        for name in ("_solve", "_slice_leak_pair"):
            fn = getattr(solver, name)
            monkeypatch.setattr(solver, name, lambda *a, fn=fn:
                                solves.append(a) or fn(*a))
        with_memo = outputs()
        memo_solves = len(solves)
        monkeypatch.setattr(solver, "_memoized",
                            lambda memo, key, compute, *a: compute(*a))
        assert outputs() == with_memo
        assert memo_solves < len(solves) - memo_solves  # the memo did hit

    def test_engines_over_one_program_share_its_image_answers(
            self, monkeypatch):
        # the overrunning slice reads only x: enumerated by the first run,
        # raised again from the program's store by every later one, and
        # still counted and noted in each
        solves = []
        solve = solver._solve
        monkeypatch.setattr(solver, "_solve",
                            lambda *a: solves.append(a) or solve(*a))
        e = self._same_overrun_twice()
        other = Engine(e.program, PredictorConfig(pht_bits=2, window=4),
                       bit_budget=4)
        for r in (e.run(), e.run(), e.run(baseline=True), other.run(),
                  other.run(baseline=True)):
            assert r.stats.budget_exceeded == 2 and r.verdict == "unknown"
            assert len(solves) == 1
        # a freshly parsed equal program has a store of its own
        assert self._same_overrun_twice().run().stats.budget_exceeded == 2
        assert len(solves) == 2

    @pytest.mark.parametrize("budgets", [(4, 20), (20, 4)])
    def test_each_bit_budget_keeps_its_own_answers(self, monkeypatch,
                                                   budgets):
        solves = []
        solve = solver._solve
        monkeypatch.setattr(solver, "_solve",
                            lambda *a: solves.append(a) or solve(*a))
        program = self._same_overrun_twice().program
        for n, budget in enumerate(budgets, start=1):
            r = Engine(program, bit_budget=budget).run()
            assert len(solves) == n  # the other budget's answer is not read
            if budget == 4:
                assert r.stats.budget_exceeded == 2 and r.unknown
            else:
                assert r.stats.budget_exceeded == 0 and not r.unknown
                # both loads may reach the secret region past pub
                assert all(v.taint.secret for name, v in final_regs(r).items()
                           if name in ("r1", "r2"))
        assert sorted(program.decoded.memos) == [4, 20]


class TestPerRunState:
    @pytest.mark.parametrize("name", ["v01.sir", "v02.sir", "v09.sir"])
    def test_second_run_of_one_engine_is_identical(self, name):
        # symbols and snapshot versions start afresh; the second run reads
        # the answers over the image that the first one left
        e = Engine(load_fixture(name), PredictorConfig(pht_bits=1, window=16),
                   patterns=[load_pattern_fixture("br-ld-ld.json")])

        def outputs(r):
            return (r.stats.path_summaries, [f.to_dict() for f in r.findings],
                    [f.constraints for f in r.findings])

        assert outputs(e.run()) == outputs(e.run())

    def test_snapshots_of_two_runs_are_equal_by_version(self):
        # each run freezes its own copy after the store; the two copies
        # are distinct objects, equal and hashed equal as their version
        e = build(TestMemoryOverlay.LOADS + "  const r7, 7\n"
                  "  store.8 rp, r7\n  load.8 r1, ra\n  halt\n")
        first, second = (final_regs(e.run())["r1"] for _ in range(2))
        assert first.snapshot is not second.snapshot
        assert first.snapshot == second.snapshot
        assert first.snapshot.version == 1
        assert first == second and hash(first) == hash(second)


def _tool(name):
    """`tools/<name>.py`, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        f"_tool_{name}", ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_PATTERNS = ("br-ld-ld.json", "icall-ld-ld.json", "ld-br-ld.json")


class TestSharedStore:
    """Cells over one parsed program share its store, yet each gives what
    it gives over a freshly parsed program, in any order."""

    @staticmethod
    def _cells():
        """(source, config, baseline, bit budget) of every litmus cell and
        chain k <= 3 of the benchmark, at budgets 4 and 20, and of random
        programs at budgets 4 and 12."""
        cell_outputs = _tool("cell_outputs")
        wls = cell_outputs._load_workloads()
        texts = {fx: (ROOT / "fixtures" / f"{fx}.sir").read_text()
                 for fx in wls.FIXTURES}
        cells = []
        for name in ("litmus", "chain"):
            wl = wls.build(name, 101, texts)
            for a in wl.analyses:
                if a.program.startswith("chain-k") and int(a.program[7:]) > 3:
                    continue
                spec = wls.CONFIGS[a.config]
                cfg = (specsim.preset(spec) if isinstance(spec, str)
                       else PredictorConfig(**spec))
                cells += [(wl.programs[a.program], cfg, a.mode == wls.BL, b)
                          for b in (4, 20)]
        rng = random.Random(2020)
        for i in range(150):
            text = random_program(rng, always_secret_r2=i % 2 == 1)
            for cfg in (random_predictor_config(rng),
                        random_predictor_config(rng)):
                cells += [(text, cfg, baseline, budget)
                          for baseline in (False, True) for budget in (4, 12)]
        return cells, cell_outputs._components

    def test_cells_answer_alike_in_any_order(self):
        cells, components = self._cells()
        patterns = [load_pattern_fixture(n) for n in _PATTERNS]

        def outputs(program, cfg, baseline, budget):
            r = Engine(program, cfg, patterns=patterns,
                       bit_budget=budget).run(baseline)
            return components(r, ex.to_str)

        shared = {}
        random.Random(7).shuffle(cells)
        for text, cfg, baseline, budget in cells:
            if text not in shared:
                shared[text] = layout_regions(parse_program(text))
            fresh = layout_regions(parse_program(text))
            assert (outputs(shared[text], cfg, baseline, budget)
                    == outputs(fresh, cfg, baseline, budget))
        stores = [m for p in shared.values() for m in p.decoded.memos.values()]
        assert sum(map(len, stores)) > len(stores)  # the stores were used

    def test_a_full_store_drops_its_oldest_answers(self, monkeypatch):
        # chained checks ask more image-only questions than a store of
        # two keeps: evicted answers are asked again and come out alike
        text, sites = chained_v01([5, 16, 9])
        patterns = [load_pattern_fixture(n) for n in _PATTERNS]
        cfg = PredictorConfig(pht_bits=2, window=16)
        program = layout_regions(parse_program(text))
        expected = [Engine(program, cfg, patterns=patterns).run(baseline)
                    for baseline in (False, True)]
        monkeypatch.setattr(solver.Store, "LIMIT", 2)
        program = layout_regions(parse_program(text))
        for _ in range(2):
            assert [Engine(program, cfg, patterns=patterns).run(baseline)
                    for baseline in (False, True)] == expected
            assert len(program.decoded.memos[20]) == 2


class TestMemoryOverlay:
    # a path's memory holds only its stores; loads fall back to the
    # engine's initial image, which every snapshot without stores shares
    LOADS = ("region m 16\nregion s 16 secret\n"
             "  sym.8 rx, x\n  addrof rp, m\n  add ra, rp, rx\n")

    def test_snapshots_share_the_initial_image_until_a_store(self,
                                                              monkeypatch):
        frozen = record_freezes(monkeypatch)
        e = build(self.LOADS + "  load.8 r1, ra\n  load.8 r2, ra\n  halt\n")
        regs = final_regs(e.run())
        # both loads read the image as version 0, the only snapshot
        assert len(frozen) == 2 and all(s is e._image for s in frozen)
        assert e._image.version == 0 and e._image.mem is e._init_mem
        assert regs["r1"].snapshot is regs["r2"].snapshot is e._image

    def test_a_store_freezes_a_fresh_snapshot(self, monkeypatch):
        frozen = record_freezes(monkeypatch)
        e = build(self.LOADS + "  load.8 r1, ra\n"
                  "  const r7, 7\n  store.8 rp, r7\n  load.8 r2, ra\n"
                  "  const r8, 8\n  store.8 rp, r8\n  load.8 r3, ra\n"
                  "  halt\n")
        e.run()
        snaps = {snap.version: snap.mem for snap in frozen}
        m, s = (e.program.region(n).base for n in ("m", "s"))
        assert snaps[0] is e._init_mem and m not in e._init_mem
        # each later snapshot is the initial image plus the stores so far,
        # frozen: the second store does not reach the first copy
        assert snaps[1][m].value == 7 and snaps[2][m].value == 8
        assert snaps[1][s] == snaps[2][s] == e._init_mem[s]
        assert snaps[1] is not snaps[2]

    def test_snapshot_facts_are_computed_once_per_object(self, monkeypatch):
        walks, runs = record_fact_work(monkeypatch)
        searches, find_leak_pair = [], cache.find_leak_pair
        monkeypatch.setattr(cache, "find_leak_pair",
                            lambda q, o: searches.append(q)
                            or find_leak_pair(q, o))
        freezes = record_freezes(monkeypatch)
        text, sites = chained_v01([5, 16, 9])
        e = build(text, predictor_cfg=PredictorConfig(pht_bits=2, window=16),
                  patterns=[load_pattern_fixture("br-ld-ld.json")])
        r = e.run()
        assert {f.chain[-1][0] for f in r.findings} == set(sites)
        # every load reads the one initial image: its bytes are walked for
        # their references once, and for the secret-byte runs once
        assert len(freezes) > 10 and len(searches) > 3
        assert all(snap is e._image for snap in freezes)
        assert len(walks) == len(runs) == 1
        # the facts live on the image snapshot itself
        assert e._image.facts is not None

    def test_a_fresh_snapshot_keeps_its_facts(self, monkeypatch):
        # three loads after one store read one fresh snapshot: its bytes
        # are walked for their references once, and for their runs once
        e = build(self.LOADS + "  const r7, 7\n  store.8 rp, r7\n"
                  "  load.8 r1, ra\n  load.8 r2, ra\n  load.8 r3, ra\n"
                  "  halt\n")
        walks, runs = record_fact_work(monkeypatch)
        frozen = record_freezes(monkeypatch)
        regs = final_regs(e.run())
        assert len(frozen) == 3 and len(set(map(id, frozen))) == 1
        assert frozen[0].version == 1 and frozen[0].facts is not None
        assert regs["r1"].snapshot is regs["r3"].snapshot is frozen[0]
        assert runs == [frozen[0]] and len(walks) == 1

    def test_image_facts_are_computed_once_per_program(self, monkeypatch):
        walks, runs = record_fact_work(monkeypatch)
        text, sites = chained_v01([5, 16, 9])
        program = layout_regions(parse_program(text))
        for _ in range(6):
            e = Engine(program, PredictorConfig(pht_bits=2, window=16),
                       patterns=[load_pattern_fixture("br-ld-ld.json")])
            for baseline in (False, True):
                r = e.run(baseline)
                assert {f.chain[-1][0] for f in r.findings} == set(sites)
        # the image's references and secret-byte runs, once for all runs
        assert len(walks) == len(runs) == 1

    def test_a_symbolic_load_reads_an_earlier_store(self):
        # arr[3] = 7, then arr[x & 15] is 7 only when x & 15 == 3: both
        # directions of the branch on it are feasible
        e = build("region arr 16\n  sym.8 rx, x\n  addrof ra, arr\n"
                  "  const r7, 7\n  add rs, ra, 3\n  store.8 rs, r7\n"
                  "  and ri, rx, 15\n  add rp, ra, ri\n  load.8 rv, rp\n"
                  "  eq rc, rv, r7\n  br rc, hit, miss\nhit:\n  halt\n"
                  "miss:\n  halt\n",
                  predictor_cfg=PredictorConfig(pht_bits=1, window=0),
                  patterns=[load_pattern(json.dumps({"name": "br", "nodes": [
                      {"instruction": "br"}]}))])
        r = e.run()
        assert r.stats.paths == 2
        # each path's finding carries its path condition's witness
        witness = {f.constraints[-1].op: f.witness.assignment["x"]
                   for f in r.findings}
        assert witness["ne"] == 3 and witness["eq"] & 15 != 3

    def test_a_wrong_path_symbolic_load_reads_its_stores(self, monkeypatch):
        frozen = record_freezes(monkeypatch)
        # the concrete branch is predicted taken but falls through; its
        # wrong path stores 7 into arr[3] and reads v = arr[x & 15], 7 only
        # when x & 15 == 3, then sec[v - 7], which is secret only when v is
        # 7, and transmits it
        e = build("region arr 16\nregion sec 4 secret\nregion probe 16384\n"
                  "  sym.8 rx, x\n  addrof ra, arr\n  const r0, 0\n"
                  "  br r0, body, end\nbody:\n  const r7, 7\n"
                  "  add rs, ra, 3\n  store.8 rs, r7\n  and ri, rx, 15\n"
                  "  add rp, ra, ri\n  load.8 rv, rp\n  addrof rq, sec\n"
                  "  sub rq, rq, 7\n  add rq, rq, rv\n  load.8 rw, rq\n"
                  "  mul rm, rw, 64\n  addrof rb, probe\n  add rb, rb, rm\n"
                  "  load.8 rz, rb\nend:\n  halt\n",
                  predictor_cfg=PredictorConfig(pht_bits=1, window=16),
                  patterns=[load_pattern_fixture("br-ld-ld.json")])
        r = e.run()
        assert r.stats.spec_traces == 1 and r.verdict == "leak"
        (finding,) = r.findings
        assert finding.chain == ((3, "br", False), (13, "load", True),
                                 (17, "load", True))
        assert [m.assignment["x"] for m in finding.witness] == [3, 3]
        # its three loads after the one store read one version
        assert {snap.version for snap in frozen} == {-1}

    def test_a_wrong_path_reads_the_paths_snapshot_until_it_stores(
            self, monkeypatch):
        frozen = record_freezes(monkeypatch)
        # the architectural load freezes version 1 with arr[0] = 7; the
        # wrong path reads it too, then stores 0 there, and its next load
        # freezes version -1
        e = build("region arr 16\n  sym.8 rx, x\n  addrof ra, arr\n"
                  "  const r7, 7\n  store.8 ra, r7\n  and ri, rx, 15\n"
                  "  add rp, ra, ri\n  load.8 rv, rp\n  const r0, 0\n"
                  "  br r0, body, end\nbody:\n  load.8 rw, rp\n"
                  "  store.8 ra, r0\n  load.8 rz, rp\nend:\n  halt\n",
                  predictor_cfg=PredictorConfig(pht_bits=1, window=16))
        r = e.run()
        arr = e.program.region("arr").base
        snaps = {snap.version: snap.mem for snap in frozen}
        assert r.stats.spec_traces == 1 and set(snaps) == {1, -1}
        assert snaps[1][arr].value == 7
        assert snaps[-1][arr].value == 0

    def test_wrong_path_store_stays_in_the_sandbox(self, monkeypatch):
        frozen = record_freezes(monkeypatch)
        # x >= 4 is predicted taken: its wrong path stores 7 into pub[0]
        e = build("region pub 16\nregion sec 16 secret\n"
                  "  sym.8 rx, x\n  const rb, 4\n  lt rc, rx, rb\n"
                  "  br rc, body, end\nbody:\n  addrof rp, pub\n"
                  "  const rv, 7\n  store.8 rp, rv\n  halt\nend:\n"
                  "  addrof rp, pub\n  add ra, rp, rx\n  load.8 r1, ra\n"
                  "  halt\n", predictor_cfg=PredictorConfig(pht_bits=1,
                                                             window=16))
        init = dict(e._init_mem)

        def outputs(r):
            return (r.stats.path_summaries, r.stats.trace_identities,
                    r.diagnostics, {s.version: dict(s.mem) for s in frozen})

        r = e.run()
        assert r.stats.spec_traces == 1
        pub = e.program.region("pub").base
        mem = {key: fp[2] for key, _cond, fp in r.stats.path_summaries}
        assert mem[((3, True),)] == ((pub, ex.const(7, 8)),)
        assert mem[((3, False),)] == ()
        assert frozen and all(s is e._image for s in frozen)
        assert e._init_mem == init
        first = outputs(r)
        frozen.clear()
        assert outputs(e.run()) == first


class TestOverrunReasons:
    def test_may_touch_overrun_is_explained(self):
        r = build("region pub 16\nregion sec 16 secret\n"
                  "  sym r1, a\n  addrof r2, pub\n  add r3, r2, r1\n"
                  "  load.8 r4, r3\n  halt\n").run()
        assert r.verdict == "unknown" and r.stats.budget_exceeded == 1
        assert r.diagnostics == ["pc 3: may-touch query over the bit budget: "
                                 "32 symbolic bits exceed budget 20"]

    def test_one_note_per_site_and_kind(self):
        # both directions of the branch overrun: two overruns, one note,
        # one finding, and the dropped path says so
        r = build("  sym r1, a\n  const r2, 5\n  lt r3, r1, r2\n"
                  "  br r3, t, f\nt:\n  halt\nf:\n  halt\n").run()
        assert r.stats.budget_exceeded == 2 and r.verdict == "unknown"
        assert r.stats.paths == 0
        assert [(f.kind, f.chain) for f in r.findings] == [
            ("unknown", ((3, "br", False),))]
        assert r.diagnostics == [
            "pc 3: branch query over the bit budget: "
            "32 symbolic bits exceed budget 20",
            "pc 3: path dropped: no branch direction fits the bit budget"]

    def test_refuted_direction_and_overrun_drop_the_path(self):
        # a < 0 is refuted without enumeration; a >= 0 overruns the budget
        r = build("  sym r1, a\n  const r2, 0\n  lt r3, r1, r2\n"
                  "  br r3, t, f\nt:\n  halt\nf:\n  halt\n").run()
        assert r.stats.budget_exceeded == 1 and r.stats.paths == 0
        assert [f.kind for f in r.findings] == ["unknown"]
        assert r.diagnostics[-1] == ("pc 3: path dropped: no branch "
                                     "direction fits the bit budget")

    def test_leak_pair_overrun_is_explained(self):
        pattern = load_pattern_fixture("br-ld-ld.json")
        r = build(_UNGUARDED, patterns=[pattern], bit_budget=4).run()
        assert r.diagnostics == [
            "pc 3: may-touch query over the bit budget: "
            "8 symbolic bits exceed budget 4",
            "pc 8: leak-pair query over the bit budget: "
            "8 symbolic bits exceed budget 4"]


def _tracer_class():
    """perfbench's Tracer, loaded from its file without touching sys.path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


class TestTracerAttribution:
    def test_every_is_sat_caller_is_attributed(self):
        # the benchmark's per-layer solver metrics name the engine functions
        # that call is_sat; renaming one must not skew them silently
        tracer = _tracer_class()(specsim)
        with tracer.installed():
            Engine(load_fixture("v01.sir"), PredictorConfig(pht_bits=1, window=16),
                   patterns=[load_pattern_fixture("br-ld-ld.json")]).run()
            Engine(load_fixture("v2.sir"), PredictorConfig(btb_sets=4, window=16),
                   patterns=[load_pattern_fixture("icall-ld-ld.json")]).run()
        counts = tracer.counters()
        assert dict(tracer.unattributed) == {}
        assert counts["solver.branch_sat_calls"] > 0
        assert counts["solver.may_touch_calls"] > 0

    def test_the_wrappers_read_what_the_solver_receives(self, monkeypatch):
        # the tracer's wrappers read `.constraints` of the path is_sat and
        # find_leak_pair receive, and name is_sat's caller; on v01 each
        # caller, the bits counter and the leak check all see work
        received = []
        for owner, name in ((solver, "is_sat"), (cache, "find_leak_pair")):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda path, *a, fn=fn:
                                received.append(path) or fn(path, *a))
        # a match with no cache-state node asks is_sat for its witness
        br_ld = load_pattern('{"name": "br-ld", "nodes": [{"instruction": '
                             '"br"}, {"instruction": "load", "isSpeculative":'
                             ' true, "isSensitive": true}]}')
        tracer = _tracer_class()(specsim)
        with tracer.installed():
            Engine(load_fixture("v01.sir"),
                   PredictorConfig(pht_bits=1, window=16),
                   patterns=[load_pattern_fixture("br-ld-ld.json"),
                             br_ld]).run()
        counts = tracer.counters()
        assert received and all(type(p.constraints) is tuple
                                for p in received)
        assert dict(tracer.unattributed) == {}
        for metric in ("solver.branch_sat_calls", "solver.may_touch_calls",
                       "solver.witness_calls", "solver.query_bits_max",
                       "cache.leak_check_calls", "cache.leaks_found"):
            assert counts[metric] > 0, metric


class TestPathKey:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 2),
                              st.booleans()), max_size=30))
    def test_keys_behave_like_their_tuples(self, forks):
        # two fork trees grown alike (no shared nodes between them); each
        # fork extends an earlier key, and the few pcs make equal keys on
        # different branches
        def grow():
            keys, tuples = [PathKey()], [()]
            for pick, pc, direction in forks:
                i = pick % len(keys)
                keys.append(PathKey(keys[i], (pc, direction)))
                tuples.append(tuples[i] + ((pc, direction),))
            return keys, tuples

        keys, tuples = grow()
        other, _ = grow()
        for key, t in zip(keys, tuples):
            assert tuple(key) == t and repr(key) == repr(t)
        for (k1, t1), (k2, t2) in itertools.product(
                zip(keys + other, tuples + tuples), repeat=2):
            assert (k1 == k2) == (t1 == t2)
            assert (k1 != k2) == (t1 != t2)
            if t1 == t2:
                assert hash(k1) == hash(k2)
        assert PathKey() != ()  # a key equals keys only

    def test_deep_keys_iterate_and_compare_without_recursion(self):
        depth = 20_000
        a = b = c = PathKey()
        for i in range(depth):
            step = (i, i % 3 == 0)
            a, b = PathKey(a, step), PathKey(b, step)
            c = PathKey(c, (0, False) if i == 0 else step)  # differs at the root
        assert a == b and hash(a) == hash(b) and a != c
        assert len(tuple(a)) == depth and tuple(a)[-1] == (depth - 1, False)
        assert repr(a).startswith("((0, True), (1, False), (2, False), (3, True)")
        assert {a: 1}[b] == 1


class TestDecodedProgram:
    FIXTURES = ("v01.sir", "v02.sir", "v09.sir", "v11.sir", "v2.sir")

    def test_one_decoding_per_program(self, monkeypatch):
        tables, images = Counter(), Counter()
        step_table, initial_image = engine_mod._step_table, engine_mod._initial_image
        monkeypatch.setattr(engine_mod, "_step_table",
                            lambda p: tables.update([id(p)]) or step_table(p))
        monkeypatch.setattr(engine_mod, "_initial_image",
                            lambda p: images.update([id(p)]) or initial_image(p))
        programs = [load_fixture(name) for name in self.FIXTURES]
        patterns = [load_pattern_fixture("br-ld-ld.json")]
        for i in range(30):
            cfg = PredictorConfig(pht_bits=1 + i % 3, btb_sets=4, window=16)
            Engine(programs[i % 5], cfg, patterns=patterns).run(baseline=i % 2)
        assert sorted(tables) == sorted(images) == sorted(map(id, programs))
        assert set(tables.values()) == set(images.values()) == {1}

    def test_shared_program_answers_as_fresh_copies(self):
        # engines of different patterns and cache configs over one Program
        # match engines over their own freshly parsed copies
        setups = [
            dict(predictor_cfg=PredictorConfig(pht_bits=1, window=16),
                 patterns=[load_pattern_fixture("br-ld-ld.json")]),
            dict(predictor_cfg=PredictorConfig(pht_bits=4, btb_sets=4,
                                               window=32),
                 cache_cfg=CacheConfig(line_size=32, sets=16,
                                       granularity="set"),
                 patterns=[load_pattern_fixture(f"{p}.json") for p in
                           ("ld-br-ld", "icall-ld-ld", "br-ld-ld")])]

        def outputs(r):
            return (r.verdict, r.unknown, r.diagnostics, repr(r.stats),
                    [f.to_dict() for f in r.findings],
                    [(f.event_log, f.observable, f.constraints)
                     for f in r.findings])

        for name in self.FIXTURES:
            shared = load_fixture(name)
            engines = [Engine(shared, **kw) for kw in setups]
            for engine, kw in zip(engines, setups):
                for baseline in (False, True):
                    fresh = Engine(load_fixture(name), **kw)
                    assert (outputs(engine.run(baseline))
                            == outputs(fresh.run(baseline)))

    def test_counters_do_not_depend_on_where_the_table_was_built(self):
        # the benchmark decodes its programs while warming up, before it
        # installs the tracer; calls the tracer wraps must still reach it
        counters = ("predictor.lookups", "predictor.updates", "monitor.observes")
        patterns = [load_pattern_fixture(f"{p}.json")
                    for p in ("br-ld-ld", "icall-ld-ld", "ld-br-ld")]

        def traced(decode_first):
            program = layout_regions(parse_program(TestObserveCount.LOOP))
            def engine():
                return Engine(program, PredictorConfig(pht_bits=1, window=16),
                              patterns=patterns)
            if decode_first:
                engine()
            tracer = _tracer_class()(specsim)
            with tracer.installed():
                engine().run()
                engine().run(baseline=True)
            return {name: tracer.counters()[name] for name in counters}

        before, inside = traced(True), traced(False)
        assert before == inside
        assert all(inside[name] > 0 for name in counters)


def replay_outputs(engine, baseline=False, store=True):
    """The outputs of `engine.run(baseline)` -- verdict, findings with
    their event logs, diagnostics, `unknown`, `repr(Stats)`, and the event
    log of every finished path -- and how many wrong-path traces it
    replayed.  With `store` False its trace memo never records, so every
    trace runs."""
    logs, replays = [], []
    fingerprint, replay = ExecState.fingerprint, Engine._replay

    def replaying(self, run, s, entry):
        done = replay(self, run, s, entry)
        replays.append(done)
        return done

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExecState, "fingerprint", lambda s: logs.append(
            tuple(s.event_log)) or fingerprint(s))
        mp.setattr(Engine, "_replay", replaying)
        if not store:
            mp.setattr(Engine, "_record", lambda *a: None)
        r = engine.run(baseline)
    return ((r.verdict, r.unknown, r.diagnostics, repr(r.stats),
             [f.to_dict() for f in r.findings],
             [f.event_log for f in r.findings], logs), sum(replays))


class TestTraceReplay:
    """A wrong-path trace whose key and reads match a recorded one replays
    its events; every output is as if it ran.  Each `must not replay`
    program repeats one trace key while one thing the trace reads
    changes, which a key or match without that thing would replay."""

    PATTERNS = [load_pattern_fixture(name) for name in _PATTERNS]
    CFG = PredictorConfig(pht_bits=1, window=8)

    def check(self, src, baseline=True, cfg=CFG, bit_budget=20):
        """Outputs with the memo equal those without; the replay count."""
        e = build(src, predictor_cfg=cfg, patterns=self.PATTERNS,
                  bit_budget=bit_budget)
        (outputs, replays), (unmemoized, none) = (
            replay_outputs(e, baseline), replay_outputs(e, baseline, False))
        assert outputs == unmemoized and none == 0
        return replays, e.run(baseline)

    def test_a_repeated_trace_replays(self):
        # the benchmark's loop shape: every pass speculates into `halt`
        replays, r = self.check(TestObserveCount.LOOP)
        assert r.stats.spec_traces == 20 and replays == 17

    def test_must_not_replay_a_changed_register(self):
        # each pass's trace at `done` reads ri before writing it; its load
        # address, and so its event, follow ri
        replays, r = self.check(
            "region buf 16\n  const ri, 0\n  addrof rb, buf\nloop:\n"
            "  add ri, ri, 1\n  lt rc, ri, 6\n  br rc, loop, done\ndone:\n"
            "  add ra, rb, ri\n  load.8 rv, ra\n  halt\n")
        assert r.stats.spec_traces == 6 and replays == 0

    def test_must_not_replay_a_stored_byte(self):
        # each pass stores its counter into buf[0]; the trace at `done`
        # loads it and then arr[buf[0]], whose address shows the byte
        replays, r = self.check(
            "region buf 16\nregion arr 16\n  const ri, 0\n  addrof rb, buf\n"
            "  addrof rr, arr\nloop:\n  store.8 rb, ri\n  add ri, ri, 1\n"
            "  lt rc, ri, 6\n  br rc, loop, done\ndone:\n  load.8 rv, rb\n"
            "  add ra, rr, rv\n  load.8 rw, ra\n  halt\n")
        assert r.stats.spec_traces == 6 and replays == 0

    def test_must_not_replay_another_return_stack(self):
        # f's loop speculates into its `ret`, which returns to the second
        # call (pc 1) from the first call and to `halt` from the second
        replays, r = self.check(
            "  call f\n  call f\n  halt\nf:\n  const ri, 0\nfloop:\n"
            "  add ri, ri, 1\n  lt rc, ri, 4\n  br rc, floop, out\nout:\n"
            "  ret\n")
        assert r.stats.spec_traces == 8
        assert replays == 1  # the first call's third pass

    def test_must_not_replay_another_predictor_state(self):
        # br rb (pc 5) mispredicts taken into S at i = 1, 3, 6, 9 and 11;
        # the trace's first step, br rz, is predicted taken (to X) by
        # PHT[3] at i = 1 and 3, and not taken (to Y) from i = 6 on, after
        # br rz resolved not taken architecturally; i = 11 replays i = 9
        replays, r = self.check(
            "region tbl 12 init=010001000101000101000100\n  const ri, 0\n"
            "  const rz, 0\n  addrof rt, tbl\nloop:\n  add ra, rt, ri\n"
            "  load.8 rb, ra\n  br rb, S, next\nS:\n  br rz, X, Y\nX:\n"
            "  const rx, 1\n  jmp next\nY:\n  const ry, 2\nnext:\n"
            "  add ri, ri, 1\n  lt rc, ri, 12\n  br rc, loop, done\ndone:\n"
            "  halt\n", baseline=False,
            cfg=PredictorConfig(pht_bits=2, window=2, init_counter=3))
        assert r.stats.spec_traces == 11 and replays == 1

    def test_must_not_record_a_wrong_path_error(self):
        # the trace at `done` reads ru, unset before i = 4: its first three
        # arrivals end in an error, and the second and third of them find
        # the note written and the verdict unknown already; from i = 4 on
        # it runs to `halt`
        replays, r = self.check(
            "region buf 16\n  const ri, 0\n  addrof rb, buf\nloop:\n"
            "  add ri, ri, 1\n  lt rs, ri, 4\n  br rs, skip, set\nset:\n"
            "  const ru, 3\nskip:\n  lt rc, ri, 8\n  br rc, loop, done\n"
            "done:\n  add ra, rb, ru\n  load.8 rv, ra\n  halt\n")
        assert r.unknown and r.diagnostics == [
            "pc 8: wrong path ended: read of unset register 'ru'"]
        assert r.stats.spec_traces == 16
        assert replays == 3  # the traces at done from i = 5 on

    def test_must_not_replay_a_path_dependent_load(self):
        # pub[x] may read sec only on the path where x >= 16: the traces at
        # `done` load public on the x < 16 path, secret on the other
        src = ("region pub 16\nregion sec 16 secret\n  sym.8 rx, x\n"
               "  addrof rp, pub\n  lt rl, rx, 16\n  br rl, go, go\ngo:\n"
               "  const ri, 0\nloop:\n  add ri, ri, 1\n  lt rc, ri, 4\n"
               "  br rc, loop, done\ndone:\n  add ra, rp, rx\n"
               "  load.8 rv, ra\n  halt\n")
        replays, r = self.check(src)
        assert r.stats.paths == 2 and replays == 0
        e = build(src, predictor_cfg=self.CFG)
        logs = replay_outputs(e, baseline=True)[0][-1]
        assert [{event.secret_access for event, _ in log
                 if event.name == "load" and event.speculation}
                for log in logs] == [{False}, {True}]

    def test_a_first_wrong_path_sym_declares_its_symbol(self):
        # the trace at `done` declares y on its first arrival, before the
        # architectural `sym` does; later arrivals replay it
        replays, r = self.check(
            "  const ri, 0\nloop:\n  add ri, ri, 1\n  lt rc, ri, 5\n"
            "  br rc, loop, done\ndone:\n  sym.8 ry, y\n  add rz, ry, 1\n"
            "  halt\n")
        assert r.symbols["y"] == ex.sym("y", 8)
        assert r.stats.spec_traces == 5 and replays == 2

    def test_a_replayed_match_reads_the_log_up_to_its_event(self):
        # f's icall alternates between g and h, so the BTB steers each call
        # into the other: the traces at g of the second and fourth calls
        # share a key, and the fourth, whose match the second reported on
        # the same path key, is recorded.  The constant br (predicted
        # right, and the BTB untrained) starts a new path key, so the sixth
        # call's replay reports the match again, at g's add, with its mul
        # still to replay.
        pattern = load_pattern(json.dumps({"name": "ld-add", "nodes": [
            {"instruction": "load", "isSpeculative": True, "startTTL": 4},
            {"instruction": "add", "isSpeculative": True}]}))
        src = ("region buf 4\n  addrof rb, buf\n  const rz, 0\n"
               + "  addrof rt, g\n  call f\n  addrof rt, h\n  call f\n" * 2
               + "  br rz, end, next\nnext:\n"
               + "  addrof rt, g\n  call f\n  addrof rt, h\n  call f\n"
               + "end:\n  halt\nf:\n  icall rt\n  ret\ng:\n"
               "  load.8 rw, rb\n  add rw, rw, 1\n  mul rx, rw, 2\n  ret\n"
               "h:\n  ret\n")
        cfg = PredictorConfig(btb_sets=4, window=3)

        def traced(store):
            e = build(src, predictor_cfg=cfg, patterns=[pattern])
            tracer = _tracer_class()(specsim)
            with tracer.installed():
                outputs, replays = replay_outputs(e, store=store)
            return outputs, replays, tracer.counters()["monitor.observes"]

        (outputs, replays, observes), (unmemoized, none, all_observes) = (
            traced(True), traced(False))
        assert replays == 1 and none == 0
        assert outputs == unmemoized and observes == all_observes
        findings, (path_log,) = outputs[-2], outputs[-1]
        g = 18  # pc of g's load
        assert [log[-1][0] for log in findings] == [
            Event("add", g + 1, True, False, False)] * 2
        replayed = findings[1]  # on the br's path key
        assert path_log[len(replayed)][0] == Event("mul", g + 2, True,
                                                   False, False)

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans(), st.booleans())
    def test_replay_changes_no_output(self, rng, looped, baseline):
        text = counted_loop_program(rng) if looped else random_program(rng)
        cfg = random_predictor_config(rng)
        self.check(text, baseline, cfg, bit_budget=12)

    def test_counted_loops_replay(self):
        # the loop variant of the differential above replays traces
        rng = random.Random(7)
        replays = [self.check(counted_loop_program(rng), True,
                              random_predictor_config(rng), 12)[0]
                   for _ in range(10)]
        assert sum(replays) >= 10

"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Each test prints "ACCEPTANCE <n> <label>: PASS/FAIL" (visible with -s or in
captured output on failure)."""

import dataclasses
import random
import time
from collections import Counter

import pytest

from conftest import (load_fixture, load_pattern_fixture, random_predictor_config,
                      random_program)
from specsim import layout_regions, parse_program
from specsim.engine import Engine
from specsim.expr import evaluate
from specsim.monitor import MonitorInstance, event_class, plans
from specsim.predictor import Btb, PredictorConfig, TwoLevel


def _report(n, label):
    class Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {n} {label}: {status}")
            return False
    return Ctx()


def run_fixture(name, cfg, pattern_names=("br-ld-ld.json",), baseline=False,
                **kwargs):
    patterns = [load_pattern_fixture(p) for p in pattern_names]
    engine = Engine(load_fixture(name), cfg, patterns=patterns, **kwargs)
    return engine, engine.run(baseline=baseline)


def test_1_v01_v02_discrimination():
    with _report(1, "v01/v02 discrimination"):
        start = time.monotonic()
        for pht in (1, 4):
            for window in (16, 32):
                cfg = PredictorConfig(pht_bits=pht, window=window)
                _, r01 = run_fixture("v01.sir", cfg)
                assert r01.verdict == "leak", (pht, window)
                assert any(f.pattern == "br-ld-ld" for f in r01.findings)
                _, r02 = run_fixture("v02.sir", cfg)
                assert r02.verdict == "leakage-free", (pht, window)
        assert time.monotonic() - start < 5.0


def test_2_spectre_v2_matrix():
    with _report(2, "indirect-call injection matrix"):
        start = time.monotonic()
        matrix = []
        for window in (16, 32):
            matrix += [
                (PredictorConfig(pht_bits=1, window=window), False),
                (PredictorConfig(pht_bits=4, window=window), False),
                (PredictorConfig(btb_sets=1, window=window), False),
                (PredictorConfig(btb_sets=4, window=window), True),
                (PredictorConfig(pht_bits=4, btb_sets=4, window=window), True),
            ]
        assert len(matrix) == 10
        for cfg, vulnerable in matrix:
            _, r = run_fixture("v2.sir", cfg,
                               pattern_names=("icall-ld-ld.json",))
            assert (r.verdict == "leak") == vulnerable, cfg
        assert time.monotonic() - start < 10.0


def test_3_v09_leak_location_depends_on_config():
    with _report(3, "v09 leak location split"):
        cases = []
        for window in (16, 32):
            cases += [
                (PredictorConfig(pht_bits=1, window=window), 23),
                (PredictorConfig(pht_bits=4, window=window), 23),
                (PredictorConfig(btb_sets=1, window=window,
                                 fallback="btfnt"), 12),
                (PredictorConfig(btb_sets=4, window=window,
                                 fallback="btfnt"), 23),
            ]
        for cfg, expected_pc in cases:
            _, r = run_fixture("v09.sir", cfg)
            assert r.verdict == "leak", cfg
            leak_pcs = {f.chain[-1][0] for f in r.findings if f.kind == "leak"}
            assert leak_pcs == {expected_pc}, (cfg, leak_pcs)


def test_4_ld_br_ld_detection():
    with _report(4, "secret-dependent branch (LD-BR-LD)"):
        cfg = PredictorConfig(pht_bits=1, window=16)
        _, r = run_fixture("v11.sir", cfg, pattern_names=("ld-br-ld.json",))
        assert r.verdict == "leak"
        assert all(f.pattern == "ld-br-ld" for f in r.findings)
        chain_pcs = {tuple(pc for pc, _n, _s in f.chain) for f in r.findings}
        assert (1, 4, 6) in chain_pcs


def test_5_baseline_dominance():
    with _report(5, "prediction-aware traces within baseline traces"):
        def dominates(program, cfg, bit_budget=20):
            pl = Engine(program, cfg, bit_budget=bit_budget).run()
            nopl = Engine(program, cfg, bit_budget=bit_budget).run(baseline=True)
            assert pl.stats.spec_traces <= nopl.stats.spec_traces
            extra = (Counter(pl.stats.trace_identities)
                     - Counter(nopl.stats.trace_identities))
            assert not extra, extra

        for name in ("v01.sir", "v02.sir", "v09.sir", "v11.sir", "v2.sir"):
            for pht in (1, 4):
                dominates(load_fixture(name),
                          PredictorConfig(pht_bits=pht, window=16))

        rng = random.Random(20250825)
        for i in range(200):
            program = layout_regions(parse_program(random_program(rng)))
            cfg = PredictorConfig(pht_bits=rng.choice([1, 2, 4]),
                                  init_counter=rng.randrange(4),
                                  window=rng.choice([4, 16]))
            dominates(program, cfg, bit_budget=12)


def test_6_rollback_exactness_and_window_zero_differential():
    with _report(6, "speculation rollback exactness"):
        rng = random.Random(424242)
        total_traces = 0
        for i in range(1000):
            src = random_program(rng)
            program = layout_regions(parse_program(src))
            cfg = random_predictor_config(rng)
            # every speculative trace fingerprints architectural state
            # before and after, and raises on any difference
            r = Engine(program, cfg, bit_budget=12).run()
            total_traces += r.stats.spec_traces

            # end to end: every path finishes in the same state, under the
            # same path condition, as without any speculation
            a = Engine(program, dataclasses.replace(cfg, window=0),
                       bit_budget=12).run()
            assert a.stats.spec_traces == 0
            assert r.stats.path_summaries == a.stats.path_summaries
        assert total_traces > 100  # the property suite actually speculated


def test_7_predictor_unit_suite():
    with _report(7, "predictor reference behavior"):
        t = TwoLevel(4)
        t.bhr = 0b0111
        t.pht[0b0111] = 2
        assert t.predict() is True

        sat = TwoLevel(1, init_counter=2)
        for _ in range(100):
            sat.update(True)
        assert sat.counter(sat.bhr) == 3
        for _ in range(100):
            sat.update(False)
        assert min(sat.counter(i) for i in range(2)) == 0

        rng = random.Random(7)
        t = TwoLevel(6)
        log = []
        for _ in range(10_000):
            taken = rng.random() < 0.5
            log.append(taken)
            t.update(taken)
        expect = 0
        for i, o in enumerate(reversed(log[-6:])):
            expect |= int(o) << i
        assert t.bhr == expect

        b = Btb(4, ways=2, tag_bits=4)
        ref = {i: [] for i in range(4)}
        for _ in range(10_000):
            pc = rng.randrange(128)
            s, tag = pc % 4, (pc >> 2) & 15
            if rng.random() < 0.5:
                tgt = rng.randrange(999)
                b.install(pc, tgt)
                ref[s] = [(t_, g) for t_, g in ref[s] if t_ != tag]
                ref[s].insert(0, (tag, tgt))
                del ref[s][2:]
            else:
                got = b.lookup(pc)
                want = next((g for t_, g in ref[s] if t_ == tag), None)
                if want is not None:
                    ref[s].remove((tag, want))
                    ref[s].insert(0, (tag, want))
                assert got == want


def test_8_leak_witness_validity():
    with _report(8, "leak witnesses re-evaluate to distinct lines"):
        runs = [
            run_fixture("v01.sir", PredictorConfig(pht_bits=1, window=16)),
            run_fixture("v09.sir", PredictorConfig(btb_sets=1, window=16,
                                                   fallback="btfnt")),
            run_fixture("v09.sir", PredictorConfig(pht_bits=4, window=32)),
            run_fixture("v2.sir", PredictorConfig(btb_sets=4, window=16),
                        pattern_names=("icall-ld-ld.json",)),
        ]
        checked = 0
        for _engine, result in runs:
            leaks = [f for f in result.findings if f.kind == "leak"]
            assert leaks
            for f in leaks:
                assert f.witness is not None
                if not isinstance(f.witness, tuple):
                    continue
                m1, m2 = f.witness
                i1 = evaluate(f.observable, m1)
                i2 = evaluate(f.observable, m2)
                assert i1 != i2
                for name in set(m1.assignment) & set(m2.assignment):
                    s = result.symbols.get(name)
                    if s is not None and not s.taint.secret:
                        assert m1.assignment[name] == m2.assignment[name], name
                for c in f.constraints:
                    assert evaluate(c, m1) != 0
                    assert evaluate(c, m2) != 0
                checked += 1
        assert checked >= 4


def test_9_monitor_replay_soundness():
    with _report(9, "matches replay from recorded event logs"):
        specs = {p: load_pattern_fixture(f"{p}.json")
                 for p in ("br-ld-ld", "ld-br-ld", "icall-ld-ld")}
        runs = [
            run_fixture("v01.sir", PredictorConfig(pht_bits=1, window=16)),
            run_fixture("v09.sir", PredictorConfig(btb_sets=1, window=32,
                                                   fallback="btfnt")),
            run_fixture("v11.sir", PredictorConfig(pht_bits=1, window=16),
                        pattern_names=("ld-br-ld.json",)),
            run_fixture("v2.sir", PredictorConfig(btb_sets=4, window=16),
                        pattern_names=("icall-ld-ld.json",)),
        ]
        replayed = 0
        for _engine, result in runs:
            findings = [f for f in result.findings if f.pattern]
            assert findings
            for f in findings:
                # the log index is the path's clock at each event
                spec = specs[f.pattern]
                monitor, plan = MonitorInstance(spec), plans((spec,))
                chains = set()
                for now, (event, obs) in enumerate(f.event_log):
                    for _k, nodes in plan(event_class(event)):
                        for match in monitor.observe(event, obs, now, nodes):
                            chains.add(match.chain)
                assert f.chain in chains, f.chain
                replayed += 1
        assert replayed >= 4

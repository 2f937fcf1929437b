"""The may-touch-secret check: which symbolic loads are secret.

A load is secret if some model of its path lands one of its bytes on a
secret byte, of a secret region or of its snapshot.  The engine settles
most loads by interval bounds and repeats by the run's memo; these tests
hold it to plain `is_sat` queries, to hand-written fixture keys, and to
the number of queries it asks."""

import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (load_fixture, load_pattern_fixture, path_of,
                      random_program)
from specsim import expr as ex
from specsim import layout_regions, parse_program, solver
from specsim.engine import Engine
from specsim.predictor import PredictorConfig

# fixture -> (leak sites in both modes at PHT:1 with br-ld-ld, why)
FIXTURE_KEY = {
    "wide-read.sir": (
        {13}, "the 32-bit read at array1 + 61..63 on the mispredicted "
        "x & 63 >= 61 path covers secret[0..2], and its top byte keys "
        "array2"),
    "stored-secret.sir": (
        {15}, "arr[3] holds sec[0], stored architecturally; the wrong path "
        "reads it at x & 15 == 3 and keys array2 with it"),
    "stored-secret-spec.sir": (
        {15}, "the wrong path stores sec[0] into arr[3] in its sandbox, "
        "reads it back at x & 15 == 3 and keys array2 with it"),
    "stored-public.sir": (
        set(), "arr[3] holds the public x, so every byte arr[x & 15] can "
        "read is public"),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_KEY))
@pytest.mark.parametrize("baseline", [False, True])
def test_fixture_key(name, baseline):
    sites, _why = FIXTURE_KEY[name]
    r = Engine(load_fixture(name), PredictorConfig(pht_bits=1),
               patterns=[load_pattern_fixture("br-ld-ld.json")]
               ).run(baseline)
    assert r.verdict == ("leak" if sites else "leakage-free")
    assert {f.chain[-1][0] for f in r.findings if f.kind == "leak"} == sites


def build(src, **kwargs):
    return Engine(layout_regions(parse_program(src)), **kwargs)


def may_touch_queries(monkeypatch):
    """A list that gets one entry per `is_sat` call the may-touch check
    makes."""
    calls = []
    is_sat = solver.is_sat

    def counted(q):
        if sys._getframe(1).f_code.co_name == "_may_touch_secret":
            calls.append(q)
        return is_sat(q)

    monkeypatch.setattr(solver, "is_sat", counted)
    return calls


def loaded(result, reg="r1"):
    """The value of `reg` on each finished path, in path order."""
    return [dict(fp[1])[reg] for _key, _cond, fp in result.stats.path_summaries]


# pub is at 0x1000, sec at 0x1040..0x104f, after at 0x1080
_EDGE = """region pub 64
region sec 16 secret
region after 64
  sym.8 rx, x
  and ri, rx, {mask}
  addrof rp, {base}
  add ra, rp, ri
  add ra, ra, {offset}
  load.{width} r1, ra
  halt
"""


class TestBounds:
    @pytest.mark.parametrize("base, mask, offset, width, secret", [
        ("pub", 63, 0, 8, False),   # up to 0x103f, the byte below sec
        ("pub", 63, 1, 8, True),    # up to 0x1040, sec's first byte
        ("pub", 31, 29, 32, False),  # 4 bytes from 0x103c end at 0x103f
        ("pub", 31, 30, 32, True),   # 4 bytes from 0x103d reach 0x1040
        ("sec", 7, 15, 8, True),    # from 0x104f, sec's last byte
        ("sec", 7, 16, 8, False),   # from 0x1050, the byte past sec
    ])
    def test_a_read_at_a_span_edge(self, monkeypatch, base, mask, offset,
                                   width, secret):
        calls = may_touch_queries(monkeypatch)
        r = build(_EDGE.format(base=base, mask=mask, offset=offset,
                               width=width)).run()
        (value,) = loaded(r)
        assert value.taint.secret == secret
        # a read the bounds keep off every span asks nothing
        assert len(calls) == r.stats.solver_queries == int(secret)

    def test_the_guarded_direction_asks_nothing(self, monkeypatch):
        # x < 5 keeps pub + x below sec; x >= 5 does not
        calls = may_touch_queries(monkeypatch)
        r = build("region pub 16\nregion sec 16 secret\n"
                  "  sym.8 rx, x\n  const r5, 5\n  lt rc, rx, r5\n"
                  "  br rc, in, out\nin:\n  addrof rp, pub\n"
                  "  add ra, rp, rx\n  load.8 r1, ra\n  halt\nout:\n"
                  "  addrof rp, pub\n  add ra, rp, rx\n  load.8 r1, ra\n"
                  "  halt\n", predictor_cfg=PredictorConfig(window=0)).run()
        taken, not_taken = loaded(r)
        assert not taken.taint.secret and not_taken.taint.secret
        assert len(calls) == 1


# two sibling paths, split on y, then one load at pub + x on each
_SIBLINGS = """region pub 16
region sec 16 secret
  sym{xw} rx, x
  sym.8 ry, y
  const r5, 5
  lt rc, ry, r5
  br rc, a, b
a:
  const r9, 0
  jmp join
b:
  const r9, 1
join:
  addrof rp, pub
  add ra, rp, rx
  load.8 r1, ra
  halt
"""


class TestMemo:
    def test_a_sibling_paths_repeat_is_a_memo_hit(self, monkeypatch):
        calls = may_touch_queries(monkeypatch)
        r = build(_SIBLINGS.format(xw=".8"),
                  predictor_cfg=PredictorConfig(window=0)).run()
        assert [v.taint.secret for v in loaded(r)] == [True, True]
        assert len(calls) == 1
        # two branch queries and one may-touch query
        assert r.stats.solver_queries == 3

    def test_an_overrun_is_asked_and_counted_on_every_repeat(
            self, monkeypatch):
        # the 32-bit x overruns the budget of 20 on both paths
        calls = may_touch_queries(monkeypatch)
        r = build(_SIBLINGS.format(xw=""),
                  predictor_cfg=PredictorConfig(window=0)).run()
        assert [v.taint.secret for v in loaded(r)] == [True, True]
        assert len(calls) == 2
        assert r.stats.budget_exceeded == 2 and r.verdict == "unknown"


# ------------------------------------------------------------ differential

def _reaches_secret(exprs, done=frozenset()):
    """Whether `exprs` mention a secret symbol, also behind the bytes of
    the snapshots their loads read."""
    syms, snaps = ex.references(exprs)
    return any(s.taint.secret for s in syms.values()) or any(
        _reaches_secret(tuple(snap.mem.values()), done | {snap.version})
        for snap in snaps if snap.version not in done)


def reference_may_touch(program, addr, width, snap, path, budget,
                        stored=True):
    """Plain `is_sat` in a fresh session, with no bounds, on the path
    extended by each run of secret bytes, widened by the read's width: the
    bytes of the secret regions and, if `stored`, the snapshot's bytes
    that reach a secret."""
    if addr.taint.secret:
        return True
    secret = {a for r in program.regions if r.secret
              for a in range(r.base, r.end)}
    if stored:
        secret |= {a for a, byte in snap.mem.items()
                   if _reaches_secret((byte,))}
    n = width // 8
    for a in sorted(secret):
        if a - 1 in secret:
            continue  # not the first byte of its run
        end = a + 1
        while end in secret:
            end += 1
        inside = (ex.mk_binop("le", ex.const(max(a - (n - 1), 0), 32), addr),
                  ex.mk_binop("lt", addr, ex.const(end, 32)))
        try:
            m = solver.is_sat(path_of(path.constraints + inside, budget))
        except solver.BudgetExceeded:
            return True
        if m is not None:
            return True
    return False


def compare_loads(seed, wide, budget, baseline, index_mask=15):
    """Run a random program, holding every symbolic load's answer to
    `reference_may_touch`; returns (answer, answer without stored bytes)
    per load.  r2 starts as the secret byte sec[0], so the program's
    stores of r2 copy a secret into arr, which its loads read back through
    a masked index.  `index_mask` 63 lets a load of pub run up to the byte
    below sec; `wide` makes every load 32 bits wide."""
    text = random_program(random.Random(seed), always_secret_r2=True)
    text = re.sub(r"(and r6, r\d), 15\n", rf"\1, {index_mask}\n", text)
    if wide:
        text = text.replace("load.8", "load.32")
    engine = Engine(layout_regions(parse_program(text)),
                    PredictorConfig(pht_bits=1), bit_budget=budget)
    answers = []
    may_touch = Engine._may_touch_secret

    def compared(self, run, addr, width, snap, path, pc):
        got = may_touch(self, run, addr, width, snap, path, pc)
        args = (self.program, addr, width, snap, path, budget)
        assert got == reference_may_touch(*args)
        answers.append((got, reference_may_touch(*args, stored=False)))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "_may_touch_secret", compared)
        engine.run(baseline)
    return answers


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([8, 12]),
       st.booleans(), st.sampled_from([15, 63]))
def test_every_load_answers_as_plain_queries(seed, wide, budget, baseline,
                                             index_mask):
    compare_loads(seed, wide, budget, baseline, index_mask)


def test_the_differential_reaches_stored_secrets():
    answers = [a for seed in range(100) for wide in (False, True)
               for a in compare_loads(seed, wide, 12, False)]
    assert (True, True) in answers and (False, False) in answers
    # a load that is secret only through a stored byte
    assert (True, False) in answers

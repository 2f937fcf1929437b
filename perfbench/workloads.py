"""Benchmark workloads: seeded inputs plus a hand-written answer key.

Every input is generated from the benchmark seed; the program under test
only sees the generated SIR text, the shipped pattern files and a predictor
configuration.  An *analysis* is one (program, predictor configuration,
mode) cell, run with all three shipped patterns, exactly what the CLI does
for one mode.

The key records, for each analysis, the set of leak sites the program must
report.  A site is the pc of the transmitting load, i.e. ``chain[-1]`` of a
``leak`` finding; an empty set means the expected verdict is
``leakage-free``.  The litmus key is written out by hand below, one reason
per cell; the chain and loop keys follow from how their generators build the
programs.  None of it is recorded from engine output.

This module imports nothing from ``specsim``, so it can be loaded before the
program under test.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

FIXTURES = ("v01", "v02", "v09", "v11", "v2")
PATTERNS = ("br-ld-ld", "icall-ld-ld", "ld-br-ld")
PA, BL = "prediction-aware", "baseline"

# name -> PredictorConfig keyword arguments, or a preset name
CONFIGS: Dict[str, object] = {
    "PHT:1": {"pht_bits": 1, "window": 16},
    "PHT:2": {"pht_bits": 2, "window": 16},
    "cortex-a53": "cortex-a53",
    "pentium4": "pentium4",
}


@dataclass(frozen=True)
class Analysis:
    program: str            # key into Workload.programs
    config: str             # key into CONFIGS
    mode: str               # PA or BL
    sites: FrozenSet[int]   # answer key: expected leak sites
    reason: str             # why the key says so

    @property
    def label(self) -> str:
        return f"{self.program}/{self.config}/{self.mode}"


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    programs: Dict[str, str]     # program name -> SIR text
    analyses: Tuple[Analysis, ...]

    def input_hash(self) -> str:
        """sha256 over every generated input, in analysis order."""
        h = hashlib.sha256()
        for name in sorted(self.programs):
            h.update(f"{name}\0{self.programs[name]}\0".encode())
        for a in self.analyses:
            h.update(f"{a.label}\0{sorted(a.sites)}\0".encode())
        return h.hexdigest()


# ----------------------------------------------------------------- litmus

V01_SITE, V02_SITE, V09_SITE, V11_SITE, V2_SITE = 11, 11, 23, 6, 19

_LITMUS_KEY = {
    # v01: guarded body on the taken edge; load@11 transmits array1[x] * 64.
    ("v01", "PHT:1", PA): (True, "untrained counter 2 predicts taken, so the x>=16 path runs the body (fixture comment, test 1)"),
    ("v01", "cortex-a53", PA): (True, "12-bit PHT starts weakly taken and the BTB misses, so x>=16 mispredicts into the body"),
    ("v01", "pentium4", PA): (False, "no PHT, BTB miss, BTFNT predicts the forward branch not taken: the body is never speculated"),
    ("v01", "PHT:1", BL): (True, "baseline speculates the body on the x>=16 path"),
    ("v01", "cortex-a53", BL): (True, "baseline speculates the body on the x>=16 path"),
    ("v01", "pentium4", BL): (True, "baseline speculates the body on the x>=16 path"),
    # v02: guarded body on the fall-through edge.
    ("v02", "PHT:1", PA): (False, "untrained predictor guesses taken and skips the body (fixture comment, test 1)"),
    ("v02", "cortex-a53", PA): (False, "weakly-taken PHT skips the body; in-bounds runs touch only array1"),
    ("v02", "pentium4", PA): (True, "BTFNT predicts the forward branch not taken, so x>=16 falls into the body speculatively"),
    ("v02", "PHT:1", BL): (True, "baseline speculates the fall-through body on the x>=16 path"),
    ("v02", "cortex-a53", BL): (True, "baseline speculates the fall-through body on the x>=16 path"),
    ("v02", "pentium4", BL): (True, "baseline speculates the fall-through body on the x>=16 path"),
    # v09: second body (load@23) unless a 1-entry BTB aliases the branches.
    ("v09", "PHT:1", PA): (True, "PHT mispredicts into the second body, pc 23 (fixture comment, test 3)"),
    ("v09", "cortex-a53", PA): (True, "256-set BTB does not alias the branches; the PHT mispredicts into the second body"),
    ("v09", "pentium4", PA): (True, "4096-set BTB misses at b2 and BTFNT predicts the backward branch taken: second body (test 3)"),
    ("v09", "PHT:1", BL): (True, "baseline speculates the second body on the x>=15 path"),
    ("v09", "cortex-a53", BL): (True, "baseline speculates the second body on the x>=15 path"),
    ("v09", "pentium4", BL): (True, "baseline speculates the second body on the x>=15 path"),
    # v11: secret load -> secret branch -> load@6, architecturally when key==7.
    ("v11", "PHT:1", PA): (True, "ld-br-ld matches on the architectural key==7 path (fixture comment, test 4)"),
    ("v11", "cortex-a53", PA): (True, "ld-br-ld matches on the architectural key==7 path"),
    ("v11", "pentium4", PA): (True, "ld-br-ld matches on the architectural key==7 path"),
    ("v11", "PHT:1", BL): (True, "ld-br-ld matches on the architectural key==7 path"),
    ("v11", "cortex-a53", BL): (True, "ld-br-ld matches on the architectural key==7 path"),
    ("v11", "pentium4", BL): (True, "ld-br-ld matches on the architectural key==7 path"),
    # v2: stale BTB target replays unsafe_func (load@19) with symbolic idx.
    ("v2", "PHT:1", PA): (False, "no BTB, so the indirect call has no prediction (test 2, PHT-only rows)"),
    ("v2", "cortex-a53", PA): (True, "256-set BTB keeps the stale icall target; the taken branch at pc 4 uses another set"),
    ("v2", "pentium4", PA): (True, "4096-set BTB keeps the stale icall target (test 2, BTB:4 rows)"),
    ("v2", "PHT:1", BL): (False, "baseline never speculates indirect calls, and the only branch is constant"),
    ("v2", "cortex-a53", BL): (False, "baseline never speculates indirect calls, and the only branch is constant"),
    ("v2", "pentium4", BL): (False, "baseline never speculates indirect calls, and the only branch is constant"),
}

_LITMUS_SITE = {"v01": V01_SITE, "v02": V02_SITE, "v09": V09_SITE,
                "v11": V11_SITE, "v2": V2_SITE}


def litmus(seed: int, fixture_texts: Dict[str, str]) -> Workload:
    """The 5 shipped fixtures x {PHT:1, cortex-a53, pentium4} x both modes.

    Why: the paper's own suite, many short analyses of mixed work, where a
    per-analysis fixed cost such as copying a preset's PHT/BTB tables shows.
    The seed only shuffles the order of each pass."""
    analyses = []
    for (fx, cfg, mode), (leaks, reason) in _LITMUS_KEY.items():
        sites = frozenset({_LITMUS_SITE[fx]} if leaks else ())
        analyses.append(Analysis(fx, cfg, mode, sites, reason))
    return Workload("litmus", seed, dict(fixture_texts), tuple(analyses))


# ------------------------------------------------------------ generators

_HEADER = ("region array1 16 init=000102030405060708090a0b0c0d0e0f",
           "region secret 64 secret",
           "region array2 16384")


class _Asm:
    """Collects SIR lines and tracks the pc of each emitted instruction."""

    def __init__(self, header=_HEADER):
        self.lines: List[str] = list(header)
        self.pc = 0

    def label(self, name: str) -> None:
        self.lines.append(f"{name}:")

    def emit(self, inst: str) -> int:
        self.lines.append(f"  {inst}")
        self.pc += 1
        return self.pc - 1

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def v01_gadget(self, j: int, bound: int) -> int:
        """A v01-style bounds check on fresh 8-bit public symbol x<j>.

        The body sits on the taken edge.  array1 is 16 bytes and `secret`
        starts at array1 + 64, so with bound <= 16 the in-bounds body only
        reads array1, while an out-of-bounds x in 64..127 reads a secret
        byte that the second load keys into array2.  Returns the pc of that
        transmitting load."""
        self.emit(f"sym.8 rx, x{j}")
        self.emit("addrof ra1, array1")
        self.emit(f"const rsz, {bound}")
        self.emit("lt rc, rx, rsz")
        self.emit(f"br rc, body{j}, end{j}")
        self.label(f"body{j}")
        self.emit("add ra, ra1, rx")
        self.emit("load.8 rv, ra")
        self.emit("const r64, 64")
        self.emit("mul rm, rv, r64")
        self.emit("addrof ra2, array2")
        self.emit("add rb, ra2, rm")
        site = self.emit("load.8 rw, rb")
        self.label(f"end{j}")
        return site


CHAIN_KS = (1, 2, 3, 4, 5, 6)


def chain(seed: int) -> Workload:
    """k chained v01 gadgets, k = 1..6, at PHT:2, window 16.

    Why: the solver-bound scaling family.  Nearly all of its time is in
    is_sat, and budget overruns cost gadget_recall and complete_share.  The
    seed picks each check's bound.

    Key: every gadget is a leak site.  On the path that takes every earlier
    check (x_i = 0 passes each, as bound_i >= 1), the 2-bit history only
    visits PHT entries 0, 1 and 3, which start at 2 and are only ever
    incremented, so check j is predicted taken; its x_j >= bound_j path
    therefore mispredicts into body j and leaks."""
    rng = random.Random(f"chain:{seed}")
    programs, analyses = {}, []
    for k in CHAIN_KS:
        asm = _Asm()
        bounds = [rng.randint(1, 16) for _ in range(k)]
        sites = frozenset(asm.v01_gadget(j + 1, b) for j, b in enumerate(bounds))
        asm.emit("halt")
        name = f"chain-k{k}"
        programs[name] = asm.text()
        analyses.append(Analysis(
            name, "PHT:2", PA, sites,
            f"bounds {bounds}: each check is predicted taken on the all-taken prefix"))
    return Workload("chain", seed, programs, tuple(analyses))


LOOP_CONFIGS = ("PHT:1", "cortex-a53")


def loop(seed: int) -> Workload:
    """A concrete N-iteration loop (load, store, counter branch) followed by
    one v01 gadget, under {PHT:1, cortex-a53} x both modes.

    Why: long paths that load the monitor, rollback fingerprints and memory
    but hardly the solver, and a loop exit that mispredicts.  The seed picks
    N near 900.

    Key: the gadget's transmitting load is the one leak site in every cell.
    Prediction-aware, PHT:1: iteration 1 trains PHT[0] to 3 and the rest
    train PHT[1]; the exit mispredicts, leaves BHR = 0, and PHT[0] = 3
    predicts the gadget's check taken.  cortex-a53: the exit leaves BHR =
    0xFFE, an entry the loop never touched (still 2, taken), and the BTB
    holds only the loop branch in another set.  Baseline speculates the body
    on the x >= 16 path regardless."""
    rng = random.Random(f"loop:{seed}")
    n = rng.randint(895, 905)
    asm = _Asm(_HEADER + ("region buf 1",))
    asm.emit("const ri, 0")
    asm.emit(f"const rn, {n}")
    asm.emit("addrof rbuf, buf")
    asm.label("loop")
    asm.emit("load.8 rv, rbuf")
    asm.emit("add rv, rv, ri")
    asm.emit("store.8 rbuf, rv")
    asm.emit("add ri, ri, 1")
    asm.emit("lt rc, ri, rn")
    asm.emit("br rc, loop, done")
    asm.label("done")
    site = asm.v01_gadget(1, 16)
    asm.emit("halt")
    name = f"loop-n{n}"
    analyses = tuple(
        Analysis(name, cfg, mode, frozenset({site}),
                 f"N={n}: the loop trains the predictor toward the gadget's taken edge")
        for cfg in LOOP_CONFIGS for mode in (PA, BL))
    return Workload("loop", seed, {name: asm.text()}, analyses)


NAMES = ("litmus", "chain", "loop")


def build(name: str, seed: int, fixture_texts: Dict[str, str]) -> Workload:
    if name == "litmus":
        return litmus(seed, fixture_texts)
    if name == "chain":
        return chain(seed)
    if name == "loop":
        return loop(seed)
    raise ValueError(f"unknown workload {name!r}")

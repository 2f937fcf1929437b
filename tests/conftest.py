"""Shared helpers: fixture loading, small random-program generators, the
nodes of a pattern that admit an event class, and solver paths."""

from __future__ import annotations

import pathlib
import random

from specsim import layout_regions, load_pattern_file, parse_program
from specsim.expr import BIN_OPS
from specsim.monitor import admits
from specsim.solver import PathCondition, Session

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
PATTERNS = FIXTURES / "patterns"


def load_fixture(name: str):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    return layout_regions(parse_program(text))


def load_pattern_fixture(name: str):
    return load_pattern_file(str(PATTERNS / name))


def admitted(spec, cls) -> tuple:
    """The nodes of `spec` that admit event class `cls`, last first, read
    straight off `admits`, the definition."""
    return tuple(i for i in reversed(range(len(spec.nodes)))
                 if admits(spec.nodes[i], cls))


def path_of(constraints=(), bit_budget=20, session=None):
    """`constraints` folded in order into an empty path of `session`, or of
    a fresh session over `bit_budget`."""
    path = PathCondition(session or Session(bit_budget))
    for c in constraints:
        path = path.extend(c)
    return path


def random_program(rng: random.Random, max_branches: int = 2,
                   always_secret_r2: bool = False) -> str:
    """Small terminating program: one symbolic byte, straight-line blocks
    joined by forward conditional branches, occasional loads/stores into
    declared regions (one of them secret).  In about half the programs, or
    in every one with `always_secret_r2`, r2 starts as the secret byte
    sec[0], so stores of r2 copy a secret into arr, which loads through a
    masked index may read back."""
    lines = [
        "region pub 16 init=" + "".join(f"{i:02x}" for i in range(16)),
        "region sec 16 secret",
        "region arr 1024",
        "  sym.8 r0, x",
        "  const r1, %d" % rng.randrange(256),
        "  const r2, %d" % rng.randrange(256),
        "  addrof r3, pub",
        "  addrof r4, sec",
        "  addrof r5, arr",
    ]
    regs = ["r0", "r1", "r2"]
    bases = ["r3", "r4", "r5"]
    n_blocks = rng.randint(2, 4)
    n_branches = 0
    for b in range(n_blocks):
        lines.append(f"L{b}:")
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            rd = rng.choice(regs)
            if kind < 0.5:
                op = rng.choice(BIN_OPS)
                a, c = rng.choice(regs), rng.choice(regs + [str(rng.randrange(64))])
                lines.append(f"  {op} {rd}, {a}, {c}")
            elif kind < 0.75:
                # masked load from a random region
                src = rng.choice(regs)
                base = rng.choice(bases)
                lines.append(f"  and r6, {src}, 15")
                lines.append(f"  add r7, {base}, r6")
                lines.append(f"  load.8 {rd}, r7")
            else:
                # concrete store into the scratch region
                off = rng.randrange(16)
                lines.append(f"  const r8, {0x1000 + 0x40 * 2 + off}")
                lines.append(f"  store.8 r8, {rng.choice(regs)}")
        if b < n_blocks - 1 and n_branches < max_branches and rng.random() < 0.8:
            n_branches += 1
            t = rng.randint(b + 1, n_blocks - 1)
            f = rng.randint(b + 1, n_blocks - 1)
            cond_op = rng.choice(("lt", "le", "eq", "ne"))
            lines.append(f"  {cond_op} r9, {rng.choice(regs)}, {rng.choice(regs)}")
            lines.append(f"  br r9, L{t}, L{f}")
        elif b < n_blocks - 1 and rng.random() < 0.3:
            lines.append(f"  jmp L{rng.randint(b + 1, n_blocks - 1)}")
    lines.append("  halt")
    # drawn last, so the rest of a seed's program does not depend on it
    if rng.random() < 0.5 or always_secret_r2:
        lines.insert(lines.index("  addrof r5, arr") + 1, "  load.8 r2, r4")
    return "\n".join(lines) + "\n"


def counted_loop_program(rng: random.Random, passes: int = 5) -> str:
    """`random_program` behind a concrete loop of `passes` passes that adds
    its counter into one byte of arr.  Each pass's loop branch speculates
    into the program's prologue, its first `sym` included, and on."""
    head, body = random_program(rng).split("  sym.8 r0, x\n")
    return (head + "  addrof rq, arr\n  add rq, rq, %d\n  const rk, 0\n"
            "CL:\n  load.8 rv, rq\n  add rv, rv, rk\n  store.8 rq, rv\n"
            "  add rk, rk, 1\n  lt rc, rk, %d\n  br rc, CL, CX\nCX:\n"
            "  sym.8 r0, x\n" % (rng.randrange(16), passes) + body)


def chained_v01(bounds):
    """len(bounds) v01 gadgets in a row, each on its own 8-bit public
    symbol.  Returns the SIR text and the pcs of the transmitting loads."""
    lines = ["region array1 16 init=000102030405060708090a0b0c0d0e0f",
             "region secret 64 secret",
             "region array2 16384"]
    sites, pc = [], 0
    for j, bound in enumerate(bounds):
        head = [f"sym.8 rx, x{j}", "addrof ra1, array1", f"const rsz, {bound}",
                "lt rc, rx, rsz", f"br rc, body{j}, end{j}"]
        body = ["add ra, ra1, rx", "load.8 rv, ra", "const r64, 64",
                "mul rm, rv, r64", "addrof ra2, array2", "add rb, ra2, rm",
                "load.8 rw, rb"]
        lines += [f"  {i}" for i in head] + [f"body{j}:"]
        lines += [f"  {i}" for i in body] + [f"end{j}:"]
        pc += len(head) + len(body)
        sites.append(pc - 1)
    lines.append("  halt")
    return "\n".join(lines) + "\n", sites


def random_predictor_config(rng: random.Random):
    from specsim import PredictorConfig
    pht = rng.choice([None, 1, 2, 4])
    btb = rng.choice([None, 1, 4])
    if pht is None and btb is None:
        pht = 1
    return PredictorConfig(
        pht_bits=pht, btb_sets=btb,
        fallback=rng.choice(["none", "btfnt"]),
        init_counter=rng.randrange(4),
        window=rng.choice([4, 8, 16, 32]))

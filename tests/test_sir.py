"""Parser, validation, memory layout, and round-trip printing."""

import pytest

from specsim.sir import (Imm, Label, LayoutError, ParseError, Reg,
                         layout_regions, parse_program)


def _operand_text(operand) -> str:
    """A register, label or bare name as its name; an immediate as its
    value."""
    if isinstance(operand, Imm):
        return str(operand.value)
    return operand.name if isinstance(operand, (Reg, Label)) else operand


def pretty_print(program) -> str:
    """Print a Program back to parseable SIR text (round-trip stable)."""
    out = []
    for r in program.regions:
        parts = [f"region {r.name} {r.size}"]
        if r.secret:
            parts.append("secret")
        if r.init is not None:
            parts.append(f"init={r.init.hex()}")
        out.append(" ".join(parts))
    if program.entry != 0:
        entry_label = next(name for name, pc in program.labels.items()
                           if pc == program.entry)
        out.append(f"entry {entry_label}")
    by_pc = {}
    for name, pc in program.labels.items():
        by_pc.setdefault(pc, []).append(name)
    for pc, inst in enumerate(program.instructions):
        for name in by_pc.get(pc, []):
            out.append(f"{name}:")
        head = inst.opcode if inst.width == 32 else f"{inst.opcode}.8"
        ops = ", ".join(map(_operand_text, inst.operands))
        out.append(f"  {head} {ops}".rstrip())
    return "\n".join(out) + "\n"

V1_MINI = """\
region array1 16 init=000102030405060708090a0b0c0d0e0f
region secret 64 secret
region array2 16384

  sym.8 rx, x
  const rsz, 16
  lt rc, rx, rsz
  br rc, body, end
body:
  addrof ra, array1
  add ra, ra, rx
  load.8 rv, ra
end:
  halt
"""


class TestParsing:
    def test_basic_shape(self):
        p = parse_program(V1_MINI)
        assert len(p.instructions) == 8
        assert p.labels == {"body": 4, "end": 7}
        assert [r.name for r in p.regions] == ["array1", "secret", "array2"]
        assert p.entry == 0

    def test_width_suffix(self):
        p = parse_program("  load.8 r1, 0\n  load r2, 0\n  halt\n")
        assert p.instructions[0].width == 8
        assert p.instructions[1].width == 32

    def test_operand_kinds(self):
        p = parse_program("  const r1, 0x10\n  add r2, r1, 3\n  halt\n")
        assert p.instructions[0].operands == (Reg("r1"), Imm(0x10))
        assert p.instructions[1].operands == (Reg("r2"), Reg("r1"), Imm(3))

    def test_sym_secret_marker(self):
        p = parse_program("  sym.8 rk, key, secret\n  halt\n")
        assert p.instructions[0].operands == (Reg("rk"), "key", "secret")

    def test_comments_and_blank_lines(self):
        p = parse_program("# top\n\n  halt  # trailing\n")
        assert len(p.instructions) == 1

    def test_multiple_labels_one_line(self):
        p = parse_program("a: b: halt\n")
        assert p.labels == {"a": 0, "b": 0}

    def test_entry_directive(self):
        p = parse_program("entry main\n  halt\nmain:\n  halt\n")
        assert p.entry == 1

    def test_region_attributes(self):
        p = parse_program("region k 4 secret init=aabb\n  halt\n")
        r = p.regions[0]
        assert r.secret and r.init == bytes([0xAA, 0xBB]) and r.size == 4


class TestErrors:
    @pytest.mark.parametrize("src", [
        "  bogus r1\n",
        "  add r1, r2\n",                 # arity
        "  const 3, 4\n",                 # register expected
        "  load.16 r1, 0\n",              # bad width
        "  br r1, nowhere, nowhere\n",    # unresolved label
        "x: x: halt\n",                   # duplicate label
        "region a 4\nregion a 4\n  halt\n",
        "region a 0\n  halt\n",
        "region a 2 init=zz\n  halt\n",
        "region a 1 init=aabb\n  halt\n",  # init longer than region
        "entry missing\n  halt\n",
        "  addrof r1, nothing\n  halt\n",
        "",                                # empty program
        "dangling:\n",                     # label past end
    ])
    def test_rejected(self, src):
        with pytest.raises(ParseError):
            parse_program(src)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as e:
            parse_program("  halt\n  bogus\n")
        assert e.value.line == 2


class TestLayout:
    def test_consecutive_line_aligned(self):
        p = layout_regions(parse_program(V1_MINI))
        a1, sec, a2 = p.regions
        assert a1.base == 0x1000
        assert sec.base == 0x1040   # 16-byte region rounded up to next line
        assert a2.base == 0x1080

    def test_custom_base_and_line(self):
        p = layout_regions(parse_program("region a 3\nregion b 3\n  halt\n"),
                           base=0x2000, line_size=16)
        assert [r.base for r in p.regions] == [0x2000, 0x2010]

    def test_unaligned_base_rejected(self):
        with pytest.raises(LayoutError):
            layout_regions(parse_program("region a 1\n  halt\n"), base=0x1001)

    def test_overflow_rejected(self):
        src = "region a 4294967295\nregion b 64\n  halt\n"
        with pytest.raises(LayoutError):
            layout_regions(parse_program(src))


class TestRoundTrip:
    def test_parse_print_parse_fixed_point(self):
        p1 = parse_program(V1_MINI)
        text = pretty_print(p1)
        p2 = parse_program(text)
        assert p1.instructions == p2.instructions
        assert p1.labels == p2.labels
        assert p1.regions == p2.regions
        assert pretty_print(p2) == text

    def test_entry_round_trip(self):
        src = "entry main\n  halt\nmain:\n  halt\n"
        p = parse_program(pretty_print(parse_program(src)))
        assert p.entry == 1

"""SIR: a small register-machine intermediate language (text format).

Grammar (one item per line, `#` starts a comment):

    region NAME SIZE [secret] [init=HEXBYTES]
    entry LABEL
    [LABEL:] OPCODE[.8|.32] operand, operand, ...

Opcodes and operand shapes:

    const  rd, imm
    sym    rd, name [, secret]        declare a symbolic input
    addrof rd, name                   name is a label (pc) or region (base)
    add|sub|mul|and|or|xor|shl|lshr|lt|le|eq|ne  rd, src, src
    load   rd, addr                   addr is a register or immediate
    store  addr, src
    br     cond, LTRUE, LFALSE        taken means jumping to LTRUE
    jmp    LABEL
    call   LABEL
    icall  r                          indirect call to the pc stored in r
    ret
    halt

A `.8` or `.32` suffix selects the instruction width (default 32).  The
program counter is the instruction index; there is no byte addressing of
code.  Region bases are assigned by :func:`layout_regions`, consecutively
in declaration order and rounded up to the cache line size.
"""

from __future__ import annotations

from collections import namedtuple

from .expr import BIN_OPS

MAX_ADDRESS = 1 << 32


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class LayoutError(Exception):
    pass


class Record:
    """Slots, equal within one class when the first `_compared` (all when
    None) are, and printed as `Name(field=value, ...)` over `_fields`."""

    __slots__ = ()
    _compared = None

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__[:self._compared])

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._key() == self._key()

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({inner})"


class _Frozen(Record):
    """A record whose constructor sets its `_fields` once, in order; hashed
    by its compared slots."""

    __slots__ = ()

    def __init__(self, *values):
        for f, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, f, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __hash__(self) -> int:
        return hash(self._key())


class Reg(_Frozen):
    __slots__ = _fields = ("name",)


class Imm(_Frozen):
    __slots__ = _fields = ("value",)


class Label(_Frozen):
    __slots__ = _fields = ("name",)


Operand = object  # Reg | Imm | Label | str (bare name for sym/addrof)

# opcode -> operand kind string: r=register, v=register-or-immediate,
# l=label, n=bare name, s=optional 'secret' marker
_SIGNATURES: dict[str, str] = {
    "const": "r m",
    "sym": "r n s",
    "addrof": "r n",
    "load": "r v",
    "store": "v v",
    "br": "v l l",
    "jmp": "l",
    "call": "l",
    "icall": "r",
    "ret": "",
    "halt": "",
}
for _op in BIN_OPS:
    _SIGNATURES[_op] = "r v v"
OPCODES = tuple(_SIGNATURES)


class Instruction(_Frozen):
    """An instruction; equality leaves out its source `line`."""

    __slots__ = _fields = ("opcode", "operands", "width", "line")
    _compared = 3

    def __init__(self, opcode: str, operands: tuple, width: int = 32,
                 line: int = 0):
        super().__init__(opcode, operands, width, line)


class Region(namedtuple("Region", "name size secret init base",
                        defaults=(False, None, None))):
    """init: bytes or None; base: None until `layout_regions`."""

    __slots__ = ()

    @property
    def end(self) -> int:
        assert self.base is not None
        return self.base + self.size


class Program(_Frozen):
    """Equality and repr leave out `decoded`: the engine's decoding of this
    laid-out program, shared by its engines; `layout_regions` drops it."""

    __slots__ = ("instructions", "labels", "regions", "entry", "decoded")
    _fields, _compared = __slots__[:4], 4

    def __init__(self, instructions: tuple, labels: dict[str, int],
                 regions: tuple[Region, ...], entry: int = 0):
        super().__init__(instructions, labels, regions, entry)
        object.__setattr__(self, "decoded", None)

    def region(self, name: str) -> Region:
        for r in self.regions:
            if r.name == name:
                return r
        raise KeyError(name)


def _parse_operand(tok: str, kind: str, lineno: int) -> Operand:
    if kind == "l":
        return Label(tok)
    if kind == "n":
        return tok
    if kind == "m":  # immediate only
        try:
            return Imm(int(tok, 0))
        except ValueError:
            raise ParseError(f"expected immediate, got {tok!r}", lineno)
    if kind == "v":
        try:
            return Imm(int(tok, 0))
        except ValueError:
            pass
    if kind in ("r", "v"):
        if not tok.isidentifier():
            raise ParseError(f"expected register, got {tok!r}", lineno)
        return Reg(tok)
    raise AssertionError(kind)


def parse_program(text: str) -> Program:
    """Parse SIR source into a validated Program (layout not yet assigned)."""
    instructions: list[Instruction] = []
    labels: dict[str, int] = {}
    regions: list[Region] = []
    entry_label: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        words = line.split(None, 1)
        if words[0] == "region":
            parts = line.split()
            if len(parts) < 3:
                raise ParseError("region needs NAME SIZE", lineno)
            name = parts[1]
            if any(r.name == name for r in regions):
                raise ParseError(f"duplicate region {name!r}", lineno)
            try:
                size = int(parts[2], 0)
            except ValueError:
                raise ParseError(f"bad region size {parts[2]!r}", lineno)
            if size <= 0:
                raise ParseError("region size must be positive", lineno)
            secret = False
            init: bytes | None = None
            for extra in parts[3:]:
                if extra == "secret":
                    secret = True
                elif extra.startswith("init="):
                    try:
                        init = bytes.fromhex(extra[len("init="):])
                    except ValueError:
                        raise ParseError("bad init hex string", lineno)
                else:
                    raise ParseError(f"bad region attribute {extra!r}", lineno)
            if init is not None and len(init) > size:
                raise ParseError("init longer than region", lineno)
            regions.append(Region(name, size, secret, init))
            continue

        if words[0] == "entry":
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("entry needs one label", lineno)
            if entry_label is not None:
                raise ParseError("duplicate entry directive", lineno)
            entry_label = parts[1]
            continue

        # labels, possibly followed by an instruction on the same line
        while ":" in line:
            label, rest = line.split(":", 1)
            label = label.strip()
            if not label.isidentifier():
                raise ParseError(f"bad label {label!r}", lineno)
            if label in labels:
                raise ParseError(f"duplicate label {label!r}", lineno)
            labels[label] = len(instructions)
            line = rest.strip()
        if not line:
            continue

        head, _, rest = line.partition(" ")
        opcode, width = head, 32
        if "." in head:
            opcode, suffix = head.split(".", 1)
            if suffix not in ("8", "32"):
                raise ParseError(f"bad width suffix .{suffix}", lineno)
            width = int(suffix)
        if opcode not in _SIGNATURES:
            raise ParseError(f"unknown opcode {opcode!r}", lineno)

        toks = [t.strip() for t in rest.split(",")] if rest.strip() else []
        sig = _SIGNATURES[opcode].split()
        required = [k for k in sig if k != "s"]
        if len(toks) < len(required) or len(toks) > len(sig):
            raise ParseError(
                f"{opcode} expects {len(required)} operand(s), got {len(toks)}",
                lineno)
        operands = []
        for tok, kind in zip(toks, sig):
            if kind == "s":
                if tok != "secret":
                    raise ParseError(f"expected 'secret', got {tok!r}", lineno)
                operands.append("secret")
            else:
                operands.append(_parse_operand(tok, kind, lineno))
        instructions.append(Instruction(opcode, tuple(operands), width, lineno))

    # dangling labels point one past the end; only valid if unused as targets
    known = set(labels)
    for idx, inst in enumerate(instructions):
        for op in inst.operands:
            if isinstance(op, Label) and op.name not in known:
                raise ParseError(f"unresolved label {op.name!r}", inst.line)
    for name, pc in labels.items():
        if pc >= len(instructions):
            raise ParseError(f"label {name!r} points past end of program",
                             len(text.splitlines()))
    # addrof targets: label or region
    region_names = {r.name for r in regions}
    for inst in instructions:
        if inst.opcode == "addrof":
            target = inst.operands[1]
            if target not in known and target not in region_names:
                raise ParseError(f"unresolved name {target!r}", inst.line)

    entry = 0
    if entry_label is not None:
        if entry_label not in labels:
            raise ParseError(f"unresolved entry label {entry_label!r}", 1)
        entry = labels[entry_label]
    if not instructions:
        raise ParseError("empty program", 1)

    return Program(tuple(instructions), labels, tuple(regions), entry)


def layout_regions(program: Program, base: int = 0x1000,
                   line_size: int = 64) -> Program:
    """Assign consecutive, line-aligned bases to regions in declaration order."""
    if base % line_size != 0:
        raise LayoutError(f"base {base:#x} not aligned to line size {line_size}")
    placed: list[Region] = []
    cursor = base
    for region in program.regions:
        aligned = (cursor + line_size - 1) // line_size * line_size
        if aligned + region.size > MAX_ADDRESS:
            raise LayoutError("address-space overflow laying out regions")
        placed.append(region._replace(base=aligned))
        cursor = aligned + region.size
    return Program(program.instructions, program.labels, tuple(placed),
                   program.entry)


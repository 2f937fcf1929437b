"""The package's records: named tuples and slotted classes keep the
equality, hashing, printing and immutability each record had, and
importing the package loads no `dataclasses`, `typing` or `inspect`."""

import subprocess
import sys

import pytest

from conftest import ROOT
from specsim import (CacheConfig, Engine, Event, LeakResult, MonitorSpec,
                     PredictorConfig, RunResult, Taint, layout_regions,
                     parse_program)
from specsim.cache import NO_LEAK, AccessResult
from specsim.engine import Stats
from specsim.expr import Snapshot, const, mk_memread, sym
from specsim.monitor import Match, NodeProps
from specsim.sir import Imm, Instruction, Label, Program, Reg, Region
from specsim.solver import Session

TEXT = "region a 4\nregion s 1 secret\n  const r1, 5\n  halt\n"


def test_import_loads_no_dataclasses_typing_or_inspect():
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import specsim, specsim.cli; "
            "print(sorted({'dataclasses', 'typing', 'inspect'} "
            "& set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


class TestOperands:
    def test_operands_of_two_classes_differ(self):
        assert Reg("r1") != Label("r1") and not Reg("r1") == Label("r1")
        assert len({Reg("r1"), Label("r1"), Reg("r1")}) == 2

    def test_equal_operands_hash_alike(self):
        assert Reg("r1") == Reg("r1") and Imm(3) == Imm(3)
        assert hash(Label("x")) == hash(Label("x")) and Imm(3) != Imm(4)


class TestInstruction:
    def test_equality_and_hash_leave_out_the_line(self):
        a = Instruction("jmp", (Label("top"),), 32, 3)
        b = Instruction("jmp", (Label("top"),), 32, 9)
        assert a == b and hash(a) == hash(b) and a.line == 3
        assert a != Instruction("jmp", (Label("top"),), 8, 3)

    def test_defaults_and_repr(self):
        inst = Instruction("halt", ())
        assert (inst.width, inst.line) == (32, 0)
        assert repr(inst) == ("Instruction(opcode='halt', operands=(), "
                              "width=32, line=0)")


class TestProgram:
    def test_equality_and_repr_leave_out_the_decoding(self):
        decoded = layout_regions(parse_program(TEXT))
        Engine(decoded)  # the first engine keeps its decoding on the program
        fresh = layout_regions(parse_program(TEXT))
        assert decoded.decoded is not None and fresh.decoded is None
        assert decoded == fresh and repr(decoded) == repr(fresh)
        assert "decoded" not in repr(decoded)
        assert decoded != layout_regions(parse_program(TEXT + "  halt\n"))

    def test_layout_returns_a_program_without_a_decoding(self):
        program = layout_regions(parse_program(TEXT))
        Engine(program)
        again = layout_regions(program, base=0x2000)
        assert type(again) is Program and again.decoded is None
        assert [r.base for r in again.regions] == [0x2000, 0x2040]
        assert again.instructions == program.instructions


class TestRunResult:
    def test_equality_leaves_out_the_run_state(self):
        other = RunResult(session=Session(7))
        other.seen.add(("p", (), ()))
        other.noted.add((3, "branch"))
        other.next_version, other.next_spec_version = 5, -4
        assert RunResult() == other

    def test_equality_reads_outcome_and_symbols(self):
        assert RunResult() != RunResult(baseline=True)
        assert RunResult() != RunResult(symbols={"x": sym("x", 8)})
        changed = RunResult()
        changed.stats.paths = 1
        assert RunResult() != changed
        assert "session" not in repr(RunResult())


@pytest.mark.parametrize("record, field", [
    (Taint(), "secret"),
    (const(5, 8), "value"),
    (sym("x", 8), "name"),
    (Reg("r1"), "name"),
    (Imm(1), "value"),
    (Instruction("halt", ()), "line"),
    (Region("a", 4), "base"),
    (layout_regions(parse_program(TEXT)), "entry"),
    (PredictorConfig(), "window"),
    (CacheConfig(), "sets"),
    (NodeProps(), "instruction"),
    (MonitorSpec("p", (NodeProps(),)), "name"),
    (Match("p", ()), "chain"),
    (NO_LEAK, "status"),
    (AccessResult(True, None), "hit"),
])
def test_setting_a_field_of_an_immutable_record_raises(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("build, field, value", [
    (PredictorConfig, "window", -1),
    (PredictorConfig, "btb_sets", 3),
    (CacheConfig, "sets", 3),
    (CacheConfig, "granularity", "byte"),
])
def test_replace_checks_the_config(build, field, value):
    with pytest.raises(ValueError):
        build()._replace(**{field: value})
    assert build()._replace(**{field: getattr(build(), field)}) == build()


def test_reprs():
    assert repr(Stats()) == (
        "Stats(paths=0, arch_instructions=0, spec_instructions=0, "
        "spec_traces=0, predictor_updates=0, solver_queries=0, "
        "budget_exceeded=0, step_limit_hit=False, trace_identities=[], "
        "path_summaries=[])")
    assert repr(const(5, 8)) == (
        "Const(width=8, taint=Taint(secret=False, symbolic=False), value=5)")
    assert repr(mk_memread(Snapshot(3, {}), sym("x", 32), 8, True)) == (
        "MemRead(width=8, taint=Taint(secret=True, symbolic=True), "
        "snapshot=Snapshot(v3), addr=Sym(width=32, "
        "taint=Taint(secret=False, symbolic=True), name='x'))")
    assert repr(Event("load", 4, True, True, False, 4096)) == (
        "Event(name='load', pc=4, speculation=True, symbolic_access=True, "
        "secret_access=False, addr=4096)")
    assert repr(NO_LEAK) == ("LeakResult(status='none', witness=None, "
                             "observable=None, error=None)")
    assert LeakResult("none") == NO_LEAK

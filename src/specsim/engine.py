"""Prediction-aware symbolic executor.

Explores every satisfiable architectural path of a SIR program (DFS,
taken edge first), asks the predictor at each conditional branch and
indirect call, and runs a bounded wrong-path trace whenever the
prediction disagrees with the architectural outcome.

One step function executes both kinds of path; only conditional branches
and indirect calls ask the path's predictor, which trains on each one
resolved architecturally.  There a branch forks on every satisfiable
direction, cloning the path once for two: the first direction takes the
clone, the last the path itself.  On a wrong path it follows a shadow
copy of the predictor and adds no path constraint.  A wrong path runs in
a sandbox: registers, memory, and the return stack are copied, stores go
to the sandbox only (with store-to-load forwarding), and the
architectural state is untouched afterwards -- checked against a copy
taken before every trace that runs -- while the event log, monitor
tokens, statistics, and findings deliberately persist.  No concrete cache
is simulated: an access's footprint is judged by its symbolic leak check
(`cache.leak_check`).  A trace that repeats one recorded earlier in the
run -- the same start, noted direction and pushed return, and the same
values of what it reads: registers, bytes, return stack, the shadow
predictor's answers and the path slices its may-touch decisions read --
is not run again: its recorded events are replayed into the path's event
log and monitors, its leak checks and match witnesses asked again of the
path, so every output reads as if it ran.

The modes differ only in the predictor `run` starts with.  Baseline
mode's `predictor.Baseline`, the always-mispredict model, answers
"either" at every conditional branch: the other direction runs as a
wrong path architecturally, and a wrong path falls through.  It predicts
an indirect call's resolved target, so only a wrong-path call follows it
(a concrete one), and it never trains.

Everything one `Engine.run` learns -- findings, statistics, symbols --
lives in the `RunResult` it returns, so runs of one engine are
independent.  Its solver state is one `solver.Session` with the engine's
bit budget; every path of the run is bound to it.  The session's answers
over the initial image alone go to the program's store for that budget,
which every run over the program shares; they are functions of their
keys, so no run's outputs depend on the runs before it.  A path's
memory holds only the bytes stored on it; loads fall back to the
program's initial image.  A symbolic load holds the `expr.Snapshot` it
reads (`_freeze`): on a frame that stored nothing, the image itself as
version 0, so equal reads on sibling paths are equal expressions and the
session's memo answers them once; a frame's loads after a store share one
fresh snapshot until it stores again.

A symbolic load is secret if some model of the path may land one of its
bytes on a secret byte: of a secret region, or of its snapshot, where a
secret may have been stored (`_may_touch_secret`, over the snapshot's
`solver.secret_spans`).  Interval bounds of the address settle most of
these without a solver query, and the run's own memo (`Session.local`)
settles repeats, of a span's query or of the whole decision; neither
counts in `Stats.solver_queries`.

The first engine over a laid-out program decodes it once for all engines
over it (`_Decoded`, kept on the program): a step table with one record
per pc (its handler, operands, branch targets and the log entries of its
concrete events), the initial image snapshot and its secret symbols, a
memo of mapped addresses, per pattern set the monitor plans of each step,
and per bit budget the store of solver answers over the image.

An instruction whose operands are all constants takes the concrete lane:
its handler computes the result in place and logs its event as a shared
entry, prebuilt on the step or, for an access at a constant address,
interned.  Where the engine's plan for the step is empty, no monitor
watches the event, and appending the entry is all the event costs; only
watched events go through `_emit`.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Sequence

from . import cache as cache_mod
from . import expr as ex
from . import solver
from .cache import CacheConfig, LeakResult
from .monitor import MonitorInstance, MonitorSpec, event_class, plans
from .predictor import Baseline, PredictorConfig, PredictorState
from .sir import Program, Record, Reg


class EngineError(Exception):
    pass


_ZERO_BYTE = ex.const(0, 8)  # a byte no region initialises and no store wrote

# `ex.const` for the concrete lane; a Const is immutable, so it is shared
_const = functools.lru_cache(maxsize=4096)(ex.const)
# (function, operand mask, result width) of a binop at a width, shared
_lane = functools.lru_cache(maxsize=64)(lambda op, width: (
    ex.BINOP_FNS[op], ex.mask(width), 32 if op in ex.CMP_OPS else width))


# addr: the concrete address of a load or store
Event = namedtuple("Event", "name pc speculation symbolic_access "
                   "secret_access addr", defaults=(None,))

# the log entry (Event, None) of a load or store at a concrete address; an
# entry is immutable, so a loop's repeated accesses share one
_access_entry = functools.lru_cache(maxsize=1024)(
    lambda *fields: (Event(*fields), None))


class PathKey:
    """The (pc, direction) decisions of a path as a persistent chain: a
    fork shares its parent's key and adds a node.  Equal, hashed and
    printed like the tuple of its decisions, and never recursively, so
    keys of any depth compare."""

    __slots__ = ("parent", "step", "size", "_hash")

    def __init__(self, parent: PathKey | None = None,
                 step: tuple[int, bool] | None = None):
        self.parent = parent
        self.step = step
        self.size = 0 if parent is None else parent.size + 1
        self._hash = hash(() if parent is None else (parent._hash, step))

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self):
        steps = []
        node = self
        while node.parent is not None:
            steps.append(node.step)
            node = node.parent
        return reversed(steps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PathKey):
            return NotImplemented
        a, b = self, other
        if a.size != b.size:
            return False
        while a is not b:  # up to the first shared node, or both roots
            if a._hash != b._hash or a.step != b.step:
                return False
            a, b = a.parent, b.parent
        return True

    def __repr__(self) -> str:
        return repr(tuple(self))


class Stats(Record):
    """Counters of one run; `trace_identities` has one entry per wrong-path
    trace and `path_summaries` one (path_key, path_condition, final
    fingerprint) per finished path."""

    __slots__ = _fields = (
        "paths", "arch_instructions", "spec_instructions", "spec_traces",
        "predictor_updates", "solver_queries", "budget_exceeded",
        "step_limit_hit", "trace_identities", "path_summaries")

    def __init__(self):
        self.paths = self.arch_instructions = self.spec_instructions = 0
        self.spec_traces = self.predictor_updates = self.solver_queries = 0
        self.budget_exceeded, self.step_limit_hit = 0, False
        self.trace_identities, self.path_summaries = [], []


class Finding(namedtuple(
        "Finding", "kind pattern chain path_condition config witness "
        "event_log observable constraints", defaults=((), None, ()))):
    """kind: "leak", "unknown" or "error"; witness: a Model, a (Model, Model)
    pair or None; observable: the adversary view the pair separates."""

    __slots__ = ()

    def sort_key(self):
        return (self.kind, self.pattern or "", self.chain, self.path_condition)

    def to_dict(self) -> dict:
        w = self.witness
        if isinstance(w, tuple):
            witness = {"pair": [dict(sorted(m.assignment.items())) for m in w]}
        elif w is not None:
            witness = {"model": dict(sorted(w.assignment.items()))}
        else:
            witness = None
        return {
            "kind": self.kind,
            "pattern": self.pattern,
            "chain": [{"pc": pc, "name": name, "speculative": spec}
                      for pc, name, spec in self.chain],
            "path_condition": self.path_condition,
            "config": self.config,
            "witness": witness,
        }


class RunResult(Record):
    """The state and the outcome of one `Engine.run`.  Witnesses and
    observables re-evaluate with `expr.evaluate`; `symbols` holds every
    symbol of the run by name.  Equality reads the printed fields and
    `symbols`."""

    __slots__ = ("findings", "stats", "diagnostics", "unknown", "baseline",
                 "symbols", "session", "next_version", "next_spec_version",
                 "seen", "noted", "traces")
    _fields, _compared = __slots__[:5], 6

    def __init__(self, baseline: bool = False,
                 symbols: dict[str, ex.Sym] | None = None,
                 session: solver.Session | None = None):
        self.findings, self.stats, self.diagnostics = [], Stats(), []
        self.unknown, self.baseline = False, baseline
        self.symbols = {} if symbols is None else symbols
        # the solver state every path of the run is bound to
        self.session = solver.Session() if session is None else session
        # version 0 is the initial image, read by every frame that stored
        # nothing; snapshots with stores count up from 1 architecturally and
        # down from -1 on wrong paths, so the snapshots embedded in
        # architectural expressions are equal whether or not speculation
        # ran in between
        self.next_version, self.next_spec_version = 1, -1
        # (pattern, chain, path key) of every match already reported
        self.seen: set[tuple] = set()
        # (pc, kind) of every note already written
        self.noted: set[tuple[int, str]] = set()
        # per wrong-path trace key, from its first arrival: its recordings
        # (see Engine._run_speculative)
        self.traces: dict[tuple, list[tuple]] = {}

    @property
    def verdict(self) -> str:
        if any(f.kind == "leak" for f in self.findings):
            return "leak"
        if self.unknown or any(f.kind in ("unknown", "error")
                               for f in self.findings):
            return "unknown"
        return "leakage-free"

    def overrun(self, pc: int, kind: str,
                err: solver.BudgetExceeded | None = None) -> None:
        """A `kind` query ("branch", "may-touch", "leak-pair" or "witness")
        at `pc` exceeded the bit budget: count it, explain it once per
        (pc, kind), and the verdict can no longer be leakage-free."""
        self.stats.budget_exceeded += 1
        self.unknown = True
        why = f": {err}" if err is not None else ""
        self.note(pc, kind, f"{kind} query over the bit budget{why}")

    def note(self, pc: int, kind: str, text: str) -> None:
        """Append the diagnostic `pc {pc}: {text}`, once per (pc, kind)."""
        if (pc, kind) not in self.noted:
            self.noted.add((pc, kind))
            self.diagnostics.append(f"pc {pc}: {text}")


class ExecState:
    """One symbolic path: registers, memory, path condition, predictor,
    monitors, return stack, and the log of its events."""

    __slots__ = ("pc", "regs", "mem", "frozen", "path", "path_key",
                 "predictor", "monitors", "ret_stack", "event_log")

    def __init__(self, pc: int, predictor: PredictorState,
                 monitors: list[MonitorInstance], path: solver.PathCondition):
        self.pc = pc
        self.regs: dict[str, ex.Expr] = {}
        self.mem: dict[int, ex.Expr] = {}  # stored bytes over Engine._init_mem
        self.frozen: ex.Snapshot | None = None  # see Engine._freeze
        self.path = path
        self.path_key = PathKey()
        self.predictor = predictor
        self.monitors = monitors
        self.ret_stack: list[int] = []
        # each event of the path and its wrong paths with its leak-check
        # result, or None where none ran; its length is the event clock
        self.event_log: list[tuple[Event, LeakResult | None]] = []

    def clone(self) -> "ExecState":
        c = ExecState.__new__(ExecState)
        c.pc = self.pc
        c.regs = dict(self.regs)
        c.mem = dict(self.mem)
        c.frozen = self.frozen
        c.path = self.path
        c.path_key = self.path_key
        c.predictor = self.predictor.clone()
        c.monitors = [m.clone() for m in self.monitors]
        c.ret_stack = list(self.ret_stack)
        c.event_log = list(self.event_log)
        return c

    def architecture(self) -> tuple:
        """Copies of what a wrong path must leave as it is: pc, registers,
        stored bytes, return stack, and the BHR, PHT and BTB sets."""
        tl, btb = self.predictor.two_level, self.predictor.btb
        return (self.pc, dict(self.regs), dict(self.mem), list(self.ret_stack),
                (tl.bhr, dict(tl.pht)) if tl else None,
                dict(btb.sets) if btb else None)

    def unchanged_since(self, before: tuple) -> bool:
        """Whether the state still equals `before`, an `architecture()`,
        compared with the live registers, bytes and tables, not copies."""
        tl, btb = self.predictor.two_level, self.predictor.btb
        return before == (self.pc, self.regs, self.mem, self.ret_stack,
                          (tl.bhr, tl.pht) if tl else None,
                          btb.sets if btb else None)

    def fingerprint(self) -> tuple:
        """`architecture()`, canonical: a finished path's summary."""
        return (self.pc, tuple(sorted(self.regs.items())),  # keys are unique
                tuple(sorted(self.mem.items())),
                tuple(self.ret_stack)) + self.predictor.key()


class _Sandbox:
    """Wrong-path frame of one speculative trace: copies of a path's
    registers, memory and return stack, plus the shadow predictor that
    steers it, the path predictor's `clone()` (a `Baseline` is its own).

    It also logs what the trace reads beyond its registers and bytes, for
    `Engine._record`: `asks`, each shadow-predictor answer as (pc,
    resolved target or None, answer); `reads`, the (address, its
    `PathCondition.names`, reached constraints) of each may-touch decision
    that read the path condition, or None for a read no replay can check;
    and `checks`, the address of each leak check, in order."""

    __slots__ = ("pc", "regs", "mem", "frozen", "ret_stack", "shadow",
                 "asks", "reads", "checks")

    def __init__(self, state: ExecState, start_pc: int,
                 shadow: PredictorState):
        self.pc = start_pc
        self.regs = dict(state.regs)
        self.mem = dict(state.mem)  # buffered stores land here only
        self.frozen = state.frozen
        self.ret_stack = list(state.ret_stack)
        self.shadow = shadow
        self.asks, self.reads, self.checks = [], [], []


def check_limits(bit_budget: int, step_limit: int) -> None:
    """Raise ValueError unless both limits are non-negative."""
    for name, value in (("bit_budget", bit_budget), ("step_limit", step_limit)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0")


def _read(regs: dict[str, ex.Expr], name: str | None,
          imm: ex.Const | None) -> ex.Expr:
    """A decoded source operand: register `name`, or the immediate `imm`."""
    value = regs.get(name, imm)
    if value is None:
        raise EngineError(f"read of unset register {name!r}")
    return value


class Engine:
    def __init__(self, program: Program,
                 predictor_cfg: PredictorConfig | None = None,
                 cache_cfg: CacheConfig | None = None,
                 patterns: Sequence[MonitorSpec] = (),
                 bit_budget: int = 20,
                 step_limit: int = 200_000):
        check_limits(bit_budget, step_limit)
        self.program = program
        self.predictor_cfg = predictor_cfg or PredictorConfig()
        self.cache_cfg = cache_cfg or CacheConfig()
        self.patterns = list(patterns)
        self.bit_budget = bit_budget
        self.step_limit = step_limit
        self._needs_cache_check = any(p.uses_cache_state for p in self.patterns)
        self._plan = plans(tuple(self.patterns))
        self._config = self._config_str()  # each finding's `config`

        code = _decoded(program)
        self._steps = code.steps
        self._image = code.image
        self._init_mem = code.image.mem  # shared and read-only
        self._symbols = code.symbols
        self._mapped = code.mapped
        self._step_plans = code.step_plans(self._plan)  # [speculative][pc]
        self._memo = code.memos.setdefault(bit_budget, solver.Store())

    # ------------------------------------------------------------------ run

    def run(self, baseline: bool = False) -> RunResult:
        """Explore the program from its entry, every path with a trained
        `PredictorState`, or in baseline mode with the one `Baseline`."""
        run = RunResult(baseline, dict(self._symbols),
                        solver.Session(self.bit_budget, self._memo))
        policy = Baseline if baseline else PredictorState
        init = ExecState(self.program.entry, policy(self.predictor_cfg),
                         [MonitorInstance(p) for p in self.patterns],
                         solver.PathCondition(run.session))
        worklist: list[ExecState] = [init]
        table, stats, steps = self._steps, run.stats, 0
        while worklist and not stats.step_limit_hit:
            s = worklist.pop()
            status = "run"
            while status == "run":
                if steps >= self.step_limit:
                    stats.step_limit_hit = True
                    run.unknown = True  # unexplored paths may leak
                    run.diagnostics.append(
                        "step limit exceeded; exploration truncated")
                    break
                steps += 1
                step = table[s.pc]
                status = step.handler(self, run, s, s, step, worklist)
            if status == "end":
                stats.paths += 1
                stats.path_summaries.append(
                    (tuple(s.path_key), s.path.text, s.fingerprint()))
            # "fork": successors are on the worklist
        stats.arch_instructions += steps
        run.findings.sort(key=Finding.sort_key)
        return run

    def _error(self, run: RunResult, s: ExecState, op: str, message: str) -> None:
        """The architectural path ends at an instruction it cannot execute."""
        run.findings.append(Finding("error", None, ((s.pc, op, False),),
                                    s.path.text, self._config, None))
        run.diagnostics.append(f"pc {s.pc}: {message}")

    # ------------------------------------------------- straight-line handlers
    # handler(engine, run, s, frame, step, worklist) -> status executes the
    # instruction at frame.pc in place.  `frame` is `s` itself on the
    # architectural path, or a `_Sandbox` of `s` on a wrong path; the event
    # log and the monitors are always those of `s`.  The status is "run"
    # when the frame continues, "fork" when successors went onto `worklist`
    # (architectural branches on a symbolic condition), or "end" when the
    # path or the trace ends.

    # A concrete event is a prebuilt log entry; where the step's plan is
    # empty no monitor watches it, and the handler only appends it.

    def _exec_const(self, run, s, frame, step, worklist) -> str:
        """const and addrof: the decoded Const."""
        frame.regs[step.rd] = step.value
        spec = frame is not s
        if self._step_plans[spec][step.pc]:
            self._emit(run, s, step.entries[spec])
        else:
            s.event_log.append(step.entries[spec])
        frame.pc += 1
        return "run"

    def _exec_sym(self, run, s, frame, step, worklist) -> str:
        name, secret = step.value
        speculative = frame is not s
        event = Event("sym", step.pc, speculative, True, secret)
        known = run.symbols.get(name)
        if known is not None and (known.width != step.width
                                  or known.taint.secret != secret):
            if not speculative:
                self._error(run, s, "sym", f"symbol {name!r} redeclared "
                            "with different shape")
            self._emit(run, s, (event, None))
            return "end"
        value = known if known is not None else ex.sym(name, step.width, secret)
        run.symbols[name] = value
        frame.regs[step.rd] = value
        self._emit(run, s, (event, None))
        frame.pc += 1
        return "run"

    def _exec_binop(self, run, s, frame, step, worklist) -> str:
        regs, spec = frame.regs, frame is not s
        a, b = regs.get(step.a, step.ia), regs.get(step.b, step.ib)
        if type(a) is ex.Const and type(b) is ex.Const:  # the concrete lane
            fn, m, out = step.value
            regs[step.rd] = _const(fn(a.value & m, b.value & m, step.width), out)
            if self._step_plans[spec][step.pc]:
                self._emit(run, s, step.entries[spec])
            else:
                s.event_log.append(step.entries[spec])
        else:
            a = ex.coerce(_read(regs, step.a, step.ia), step.width)
            b = ex.coerce(_read(regs, step.b, step.ib), step.width)
            regs[step.rd] = ex.mk_binop(step.op, a, b)
            taint = a.taint.join(b.taint)
            self._emit(run, s, (Event(step.op, step.pc, spec, taint.symbolic,
                                      taint.secret), None))
        frame.pc += 1
        return "run"

    def _exec_access(self, run, s, frame, step, worklist) -> str:
        """load and store.  At a concrete address the bytes move here and
        the event is an interned entry; a symbolic one is
        `_symbolic_access`'s."""
        regs, op, pc, width = frame.regs, step.op, step.pc, step.width
        addr = regs.get(step.a, step.ia)
        if type(addr) is not ex.Const:
            return self._symbolic_access(run, s, frame, step)
        base, mem = addr.value, frame.mem
        if op == "load":
            image = self._init_mem
            if width == 8:
                value = mem.get(base) or image.get(base, _ZERO_BYTE)
            else:
                parts = [mem.get(a) or image.get(a, _ZERO_BYTE)
                         for a in range(base, base + 4)]
                if all(type(byte) is ex.Const for byte in parts):
                    value = _const(sum(byte.value << 8 * i
                                       for i, byte in enumerate(parts)), 32)
                else:
                    value = ex.coerce(parts[0], 32)
                    for i, byte in enumerate(parts[1:], start=1):
                        value = ex.mk_binop(
                            "or", value,
                            ex.mk_binop("shl", ex.coerce(byte, 32),
                                        ex.const(8 * i, 32)))
            regs[step.rd] = value
        else:
            value = regs.get(step.b, step.ib)
            if type(value) is not ex.Const:
                value = ex.coerce(_read(regs, step.b, step.ib), width)
            frame.frozen = None  # the next symbolic load freezes anew
            if type(value) is ex.Const:  # of any width: bytes by arithmetic
                for i in range(width // 8):
                    mem[base + i] = _const(value.value >> 8 * i & 0xFF, 8)
            elif width == 8:
                mem[base] = value
            else:
                for i in range(4):
                    mem[base + i] = ex.coerce(
                        ex.mk_binop("lshr", value, ex.const(8 * i, 32)), 8)
        if not self._mapped(base, width // 8):
            self._unmapped(run, s, frame, op, base)
        spec, taint = frame is not s, value.taint
        entry = _access_entry(op, pc, spec, taint.symbolic, taint.secret, base)
        if taint.symbolic or taint.secret or self._step_plans[spec][pc]:
            self._emit(run, s, entry)
        else:
            s.event_log.append(entry)
        frame.pc += 1
        return "run"

    def _unmapped(self, run: RunResult, s: ExecState, frame, op: str,
                  addr: int) -> None:
        """Note an access at the unmapped address `addr`, once per site; a
        wrong path that writes the note is not recorded."""
        kind = f"unmapped {op}"
        if frame is not s and (frame.pc, kind) not in run.noted:
            frame.reads.append(None)
        run.note(frame.pc, kind, f"{op} {'from' if op == 'load' else 'to'} "
                 f"unmapped address {addr:#x}")

    def _symbolic_access(self, run, s, frame, step) -> str:
        """A load or store at a symbolic address: a load reads its frame's
        snapshot (`_freeze`), tainted secret if it may touch a secret byte;
        a store is skipped.  Then the access's leak check and event."""
        regs, pc, speculative = frame.regs, step.pc, frame is not s
        addr = ex.coerce(_read(regs, step.a, step.ia), 32)
        reads = frame.reads if speculative else None
        if step.op == "load":
            snap = self._freeze(run, frame, speculative)
            if snap.version and reads is not None:
                reads.append(None)  # a replay checks no stored-to snapshot
            secret = self._may_touch_secret(run, addr, step.width, snap,
                                            s.path, pc, reads)
            value = regs[step.rd] = ex.mk_memread(snap, addr, step.width,
                                                  secret)
        else:
            value = _read(regs, step.b, step.ib)
            if type(value) is not ex.Const:
                value = ex.coerce(value, step.width)
            # later loads and store-to-load forwarding cannot see the store,
            # so nothing after it is sound to call leakage-free
            run.note(pc, "symbolic store", "symbolic store address "
                     "unsupported; store skipped")
            run.unknown = True
            if reads is not None:
                reads.append(None)
        taint = addr.taint.join(value.taint)
        leak = self._cache_route(run, addr, s.path, pc)
        if leak is not None and speculative:
            frame.checks.append(addr)
        self._emit(run, s, (Event(step.op, pc, speculative, taint.symbolic,
                                  taint.secret), leak))
        frame.pc += 1
        return "run"

    def _exec_control(self, run, s, frame, step, worklist) -> str:
        """halt, ret, jmp and call."""
        spec = frame is not s
        if self._step_plans[spec][step.pc]:
            self._emit(run, s, step.entries[spec])
        else:
            s.event_log.append(step.entries[spec])
        op = step.op
        if op == "halt" or (op == "ret" and not frame.ret_stack):
            return "end"
        if op == "ret":
            frame.pc = frame.ret_stack.pop()
            return "run"
        if op == "call":
            frame.ret_stack.append(step.pc + 1)
        frame.pc = step.target
        return "run"

    # ------------------------------------------- branches: architectural policy

    def _exec_br(self, run, s, frame, step, worklist) -> str:
        """Fork on a symbolic condition; go on in place on a concrete one;
        follow the prediction on a wrong path."""
        cond = ex.coerce(_read(frame.regs, step.a, step.ia), 32)
        if frame is not s:
            self._follow_prediction(run, s, frame, step, cond)
            return "run"
        if type(cond) is ex.Const:  # one direction, no query: go on in place
            self._take_branch(run, s, step, cond.value != 0, step.entries[0])
            return "run"
        self._fork_on_branch(run, s, step, cond, worklist)
        return "fork"

    def _fork_on_branch(self, run: RunResult, s: ExecState, step: "_Step",
                        cond: ex.Expr, worklist: list[ExecState]) -> None:
        """Queue a successor for each satisfiable direction of `cond`: a
        clone of `s` for the first of two, `s` itself for the last one."""
        pc = step.pc
        feasible: list[bool] = []
        paths = {}  # each queried direction's path condition
        overran = False
        names = s.path.names(cond)  # both directions' constraints share them
        for want in (True, False):
            paths[want] = s.path.extend(ex.mk_binop(
                "ne" if want else "eq", cond, ex.const(0, cond.width)), names)
            run.stats.solver_queries += 1
            try:
                m = solver.is_sat(paths[want])
            except solver.BudgetExceeded as e:
                run.overrun(pc, "branch", e)
                overran = True
                continue
            if m is not None:
                feasible.append(want)
        if overran:
            run.findings.append(Finding("unknown", None, ((pc, "br", False),),
                                        s.path.text, self._config, None))
            if not feasible:
                run.note(pc, "dropped", "path dropped: no branch direction "
                         "fits the bit budget")

        entry = (Event("br", pc, False, cond.taint.symbolic,
                       cond.taint.secret), None)
        # DFS taken-edge first: push not-taken first so taken pops first
        for i, direction in enumerate(sorted(feasible)):  # False before True
            succ = s if i == len(feasible) - 1 else s.clone()
            succ.path = paths[direction]
            self._take_branch(run, succ, step, direction, entry)
            worklist.append(succ)

    def _take_branch(self, run: RunResult, s: ExecState, step: "_Step",
                     direction: bool, entry: tuple) -> None:
        """Go down one direction of an architectural branch, its log `entry`
        first, after the wrong path the predictor steers into; "either"
        (None) runs the other direction."""
        pc = step.pc
        t_pc, f_pc = step.target
        s.path_key = PathKey(s.path_key, (pc, direction))
        self._emit(run, s, entry)
        actual_pc = t_pc if direction else f_pc
        pred = s.predictor.predict_conditional(pc, t_pc, f_pc)
        taken, pred_pc = pred or (not direction, f_pc if direction else t_pc)
        if pred is None or pred_pc != actual_pc:
            self._run_speculative(run, s, pred_pc, (pc, pred_pc), noted=taken)
        s.predictor.update(pc, direction, t_pc if direction else None)
        run.stats.predictor_updates += s.predictor.trains
        s.pc = actual_pc

    def _exec_icall(self, run, s, frame, step, worklist) -> str:
        """Call the concrete target, after the wrong path the predictor
        steers into; `_follow_indirect` on a wrong path."""
        if frame is not s:
            return self._follow_indirect(run, s, frame, step)
        pc = s.pc
        target = _read(s.regs, step.a, step.ia)
        if not isinstance(target, ex.Const):
            self._error(run, s, "icall", "unsupported symbolic indirect target")
            self._emit(run, s, (Event("icall", pc, False, True,
                                      target.taint.secret), None))
            return "end"
        actual = target.value
        if actual >= len(self._steps):
            self._error(run, s, "icall", f"icall target {actual} out of range")
            return "end"
        self._emit(run, s, (Event("icall", pc, False, False,
                                  target.taint.secret), None))
        pred = s.predictor.predict_target(pc, actual)
        if pred is not None and pred != actual:
            self._run_speculative(run, s, pred, (pc, pred), push_return=pc + 1)
        s.predictor.update(pc, True, actual, conditional=False)
        run.stats.predictor_updates += s.predictor.trains
        s.ret_stack.append(pc + 1)
        s.pc = actual
        return "run"

    # -------------------------------------------- branches: wrong-path policy

    def _follow_prediction(self, run: RunResult, s: ExecState, box: _Sandbox,
                           step: "_Step", cond: ex.Expr) -> None:
        """No forking, no path constraint: follow the shadow prediction, and
        fall through on "either"."""
        t_pc, f_pc = step.target
        self._emit(run, s, (Event("br", box.pc, True, cond.taint.symbolic,
                                  cond.taint.secret), None))
        pred = box.shadow.predict_conditional(box.pc, t_pc, f_pc)
        box.asks.append((box.pc, None, pred))
        taken, box.pc = pred or (False, f_pc)
        box.shadow.spec_note_direction(taken)

    def _follow_indirect(self, run: RunResult, s: ExecState, box: _Sandbox,
                         step: "_Step") -> str:
        """Call the shadow predictor's target, given the concrete target
        if the register holds one; without a usable target the trace
        stalls out."""
        tgt = _read(box.regs, step.a, step.ia)
        self._emit(run, s, (Event("icall", box.pc, True, tgt.taint.symbolic,
                                  tgt.taint.secret), None))
        resolved = tgt.value if type(tgt) is ex.Const else None
        pred = box.shadow.predict_target(box.pc, resolved)
        box.asks.append((box.pc, resolved, pred))
        if pred is None or pred >= len(self._steps):
            return "end"
        box.ret_stack.append(box.pc + 1)
        box.pc = pred
        return "run"

    # ----------------------------------------------------------- speculation

    def _run_speculative(self, run: RunResult, s: ExecState, start_pc: int,
                         identity_tail: tuple[int, int],
                         noted: bool | None = None,
                         push_return: int | None = None) -> None:
        """Run one wrong-path trace of at most `window` instructions, steered
        by a copy of the path's predictor, its BHR shifted by the `noted`
        predicted direction.

        Its events and monitor tokens persist on `s`; everything
        architectural is untouched, which a copy taken before checks.

        A trace is a function of its key -- `start_pc`, `noted` and
        `push_return` -- and of what it reads: registers, stored bytes, the
        return stack, the shadow predictor's answers, and the path slices
        its may-touch decisions read.  The run's memo (`RunResult.traces`)
        keeps up to `RECORDINGS` recordings per key (`_record`), made from
        the key's second arrival on; an arrival whose path reads as one of
        them replays it (`_replay`).  Nothing runs then, so the rollback
        check is skipped.
        """
        window = self.predictor_cfg.window
        if window == 0:
            return
        stats = run.stats
        stats.spec_traces += 1
        stats.trace_identities.append((s.path_key,) + identity_tail)
        key = (start_pc, noted, push_return)
        recorded = run.traces.get(key)
        marks = None
        if recorded is None:  # its first arrival
            run.traces[key] = []
        else:
            for entry in recorded:
                if self._replay(run, s, entry, noted):
                    return
            if len(recorded) < self.RECORDINGS:
                marks = (len(s.event_log), len(run.symbols))
        before = s.architecture()

        shadow = s.predictor.clone()
        if noted is not None:
            shadow.spec_note_direction(noted)
        box = _Sandbox(s, start_pc, shadow)
        if push_return is not None:
            box.ret_stack.append(push_return)
        table = self._steps
        try:
            for _ in range(window):
                if not 0 <= box.pc < len(table):
                    break
                stats.spec_instructions += 1
                step = table[box.pc]
                if step.handler(self, run, s, box, step, None) == "end":
                    break
        except EngineError as e:  # e.g. a read of an unset register
            # the rest of this wrong path was never run, so it may leak
            run.unknown = True
            run.note(box.pc, "wrong-path error", f"wrong path ended: {e}")
            marks = None  # its events stop short of what it read

        if not s.unchanged_since(before):
            raise EngineError("speculation leaked into architectural state")
        if marks is not None:
            entry = self._record(run, s, box, marks)
            if entry is not None:
                recorded.append(entry)

    RECORDINGS = 4  # per key: chain's sites each have two variants

    def _record(self, run: RunResult, s: ExecState, box: _Sandbox,
                marks: tuple) -> tuple | None:
        """The memo entry of the trace just run on `s` in `box`, given the
        `marks` (event clock, symbols) from before it: the registers it read
        before writing them, the stored bytes its concrete loads read
        before it wrote them, the return stack if it ran a `ret`, each with
        its value on `s`; whether it loaded the initial image at a symbolic
        address; the box's `reads`, and its `asks` unless the path's
        predictor never trains (its answers are then functions of what it
        is asked); its events, one per step it ran; and the (index, plan,
        leak-check address or None) of each event that a monitor watches
        (`_plan_of`) or that was leak-checked.  None unless those decide the
        trace: after a new symbol, or a read the box could not log."""
        if None in box.reads or len(run.symbols) != marks[1]:
            return None
        events = tuple(s.event_log[marks[0]:])
        regs, addrs, written, stored = set(), set(), {None}, set()
        ret, image = None, False
        for event, _leak in events:
            step = self._steps[event.pc]
            regs |= {step.a, step.b} - written
            written.add(step.rd)
            if step.op == "ret":
                ret = tuple(s.ret_stack)
            elif step.op in ("load", "store"):
                if event.addr is None:  # a load of the image: see `reads`
                    image = True
                    continue
                span = set(range(event.addr, event.addr + step.width // 8))
                if step.op == "store":
                    stored |= span
                else:
                    addrs |= span - stored
        checks, work = iter(box.checks), []
        for i, (event, leak) in enumerate(events):
            plan = self._plan_of(event)
            if plan or leak is not None:
                work.append((i, plan, leak and next(checks)))
        regs, addrs = tuple(regs), tuple(addrs)
        return (regs, tuple(map(s.regs.get, regs)), addrs,
                tuple(map(s.mem.get, addrs)), ret, image, tuple(box.reads),
                tuple(box.asks) if s.predictor.trains else (), events,
                tuple(work))

    def _replay(self, run: RunResult, s: ExecState, entry: tuple,
                noted: bool | None) -> bool:
        """Replay the recorded trace `entry` on `s` if `s` reads as it did;
        False, and nothing done, if not.  The path must hold the values it
        read, no stored byte if it loaded the image, the same slices for
        each of its `reads`, and a clone of its predictor, shifted by
        `noted`, must give each of its answers in turn.

        Its events go onto the path's log in runs; a leak-checked one gets
        its check run again on `s`, and only those with a recorded plan
        reach the monitors, each at its own clock and once the log holds
        it, since a match copies the log and asks its witness of `s`."""
        (regs, reg_values, addrs, byte_values, ret, image, reads, asks,
         events, work) = entry
        if (tuple(map(s.regs.get, regs)) != reg_values
                or tuple(map(s.mem.get, addrs)) != byte_values
                or ret is not None and tuple(s.ret_stack) != ret
                or image and s.mem):
            return False
        path = s.path
        for addr, names, own in reads:
            if path.reached(addr, names) != own:
                return False
        if asks and not self._answers_agree(s.predictor, noted, asks):
            return False
        log = s.event_log
        start, done = len(log), 0
        for i, plan, addr in work:
            log.extend(events[done:i])
            done = i + 1
            entry = events[i]
            if addr is not None:
                entry = (entry[0], self._cache_route(run, addr, path,
                                                     entry[0].pc))
            log.append(entry)  # a match copies the log so far
            event, leak = entry
            for k, nodes in plan:
                for match in s.monitors[k].observe(event, leak, start + i,
                                                   nodes):
                    self._record_match(run, s, match, leak)
        log.extend(events[done:])
        run.stats.spec_instructions += len(events)
        return True

    def _answers_agree(self, predictor: PredictorState, noted: bool | None,
                       asks: tuple) -> bool:
        """Whether a shadow copy of `predictor`, shifted by `noted`, gives
        each recorded (pc, resolved target, answer) in turn, shifting its
        BHR as `_follow_prediction` does."""
        shadow = predictor.clone()
        if noted is not None:
            shadow.spec_note_direction(noted)
        table = self._steps
        for pc, resolved, answer in asks:
            step = table[pc]
            if step.op == "br":
                if shadow.predict_conditional(pc, *step.target) != answer:
                    return False
                shadow.spec_note_direction(bool(answer and answer[0]))
            elif shadow.predict_target(pc, resolved) != answer:
                return False
        return True

    # -------------------------------------------------------- data movement

    def _may_touch_secret(self, run: RunResult, addr: ex.Expr, width: int,
                          snap: ex.Snapshot, path: solver.PathCondition,
                          pc: int, reads: list | None = None) -> bool:
        """May-analysis lift of the load taint rule: a `width`-bit read at a
        symbolic address of `snap` is secret-reaching if some model
        consistent with the path condition lands one of its bytes on a
        secret byte, of a secret region or one the snapshot holds that
        reaches a secret symbol (`solver.secret_spans`).

        A span of secret bytes is asked about only when the interval bounds
        of the address, under the path slices sharing a name with it, may
        meet it.  The run's own memo keeps each asked span's answer under
        the address, those slices' constraints and the span: the rest of a
        live path is satisfiable, so that key decides what `is_sat` answers
        on the extended path.  It also keeps the whole decision under the
        address, those constraints, the snapshot and the width, which
        decide the spans, so a repeat narrows and bounds nothing.  An
        overrun is kept under neither, so a repeat asks, counts and notes it
        again.

        A wrong path passes its sandbox's `reads`, which get the address,
        its names and those slices' constraints when the decision reads the
        path, or None when it overruns."""
        if addr.taint.secret:
            return True
        # the spans the address's bounds may meet, first over every model
        spans = _met(solver._bounds(addr, {}, {}),
                     solver.secret_spans(snap, width // 8))
        if not spans:
            return False
        names = path.names(addr)  # and of the constraints bounding it
        own = path.reached(addr, names)
        if reads is not None:
            reads.append((addr, names, own))
        local = run.session.local
        decision = ("may-touch?", addr, own, snap, width)
        hit = local.get(decision)
        if hit is not None:
            return hit
        env = solver._narrowed(own)  # None: no model satisfies the path
        met = () if env is None else _met(solver._bounds(addr, env, {}), spans)
        hit = False
        for start, end in met:
            key = ("may-touch", addr, own, start, end)
            hit = local.get(key)
            if hit is None:
                run.stats.solver_queries += 1
                inside = path.extend(
                    ex.mk_binop("le", ex.const(start, 32), addr), names
                    ).extend(ex.mk_binop("lt", addr, ex.const(end, 32)), names)
                try:
                    m = solver.is_sat(inside)
                except solver.BudgetExceeded as e:
                    run.overrun(pc, "may-touch", e)
                    if reads is not None:
                        reads.append(None)  # a repeat overruns again
                    return True  # conservative
                hit = local[key] = m is not None
            if hit:
                break
        local[decision] = hit
        return hit

    def _freeze(self, run: RunResult, frame, speculative: bool
                ) -> ex.Snapshot:
        """The snapshot a symbolic load of `frame` reads: the initial image
        (version 0) while the frame stored nothing; the frame's last
        snapshot while it stored nothing since; else a fresh copy of the
        image under the frame's stores."""
        if not frame.mem:
            return self._image
        if frame.frozen is not None:
            return frame.frozen
        if speculative:
            version = run.next_spec_version
            run.next_spec_version -= 1
        else:
            version = run.next_version
            run.next_version += 1
        frame.frozen = ex.Snapshot(version, {**self._init_mem, **frame.mem},
                                   self._image.regions)
        return frame.frozen

    # --------------------------------------------------------------- events

    def _cache_route(self, run: RunResult, addr: ex.Expr,
                     path: solver.PathCondition, pc: int
                     ) -> LeakResult | None:
        """The leak check of an access at a secret-tainted address, when
        some pattern checks the cache state; None otherwise."""
        if not (addr.taint.secret and self._needs_cache_check):
            return None
        run.stats.solver_queries += 1  # one leak-pair search
        leak = cache_mod.leak_check(addr, path, self.cache_cfg)
        if leak.status == "unknown":
            run.overrun(pc, "leak-pair", leak.error)
        return leak

    def _plan_of(self, event: Event) -> tuple:
        """The event's plan: the monitors with nodes that admit its class,
        and those nodes."""
        if event.symbolic_access or event.secret_access:
            return self._plan(event_class(event))
        # the class of its step's concrete events: a decoded plan
        return self._step_plans[event.speculation][event.pc]

    def _emit(self, run: RunResult, s: ExecState,
              entry: tuple[Event, LeakResult | None]) -> None:
        """Append a log entry, an event and its leak check, and show the
        event to the monitors its plan names."""
        now = len(s.event_log)  # the path's event clock
        s.event_log.append(entry)
        event, leak = entry
        for k, nodes in self._plan_of(event):
            for match in s.monitors[k].observe(event, leak, now, nodes):
                self._record_match(run, s, match, leak)

    def _record_match(self, run: RunResult, s: ExecState, match,
                      leak: LeakResult | None) -> None:
        key = (match.pattern, match.chain, s.path_key)
        if key in run.seen:
            return
        run.seen.add(key)
        witness = None
        observable = None
        kind = "leak"
        if leak is not None and leak.positive:
            witness = leak.witness
            observable = leak.observable
        else:
            run.stats.solver_queries += 1
            try:
                witness = solver.is_sat(s.path)
            except solver.BudgetExceeded as e:
                run.overrun(match.chain[-1][0], "witness", e)
                kind = "unknown"
        run.findings.append(Finding(kind, match.pattern, match.chain,
                                    s.path.text, self._config, witness,
                                    event_log=tuple(s.event_log),
                                    observable=observable,
                                    constraints=s.path.constraints))

    # -------------------------------------------------------------- helpers

    def _config_str(self) -> str:
        """The predictor configuration as findings print it."""
        cfg = self.predictor_cfg
        parts = []
        if cfg.pht_bits is not None:
            parts.append(f"PHT:{cfg.pht_bits}")
        if cfg.btb_sets is not None:
            parts.append(f"BTB:{cfg.btb_sets}x{cfg.btb_ways}")
        if cfg.fallback == "btfnt":
            parts.append("btfnt")
        parts.append(f"w{cfg.window}")
        return ",".join(parts)


# ------------------------------------------------------ per-program decoding

class _Step:
    """One decoded instruction; `handler` executes it (see the handlers).

    A source operand is a register name `a` (`b`) with no immediate, or
    None with its immediate `ia` (`ib`) as a shared Const, so that
    `regs.get(a, ia)` reads either.  `value` is the Const of a const or
    addrof, (name, secret) of a sym, or (function, operand mask, result
    width) of a binop; `target` is the pc of a jmp or call, or (taken,
    fall-through) of a br.  `entries` are the event-log entries (event,
    None) of its concrete events, architectural and speculative, built
    here once: a handler whose step plan is empty appends one and calls
    nothing else.  They are None for the ops that build their own."""

    __slots__ = ("handler", "op", "pc", "width", "rd", "a", "ia", "b", "ib",
                 "value", "target", "entries")

    def __init__(self, handler, op: str, pc: int, width: int):
        self.handler, self.op, self.pc, self.width = handler, op, pc, width
        self.rd = self.a = self.ia = self.b = self.ib = None
        self.value = self.target = None
        self.entries = None if op in ("load", "store", "sym", "icall") else tuple(
            (Event(op, pc, speculative, False, False), None)
            for speculative in (False, True))


_HANDLERS = dict.fromkeys(ex.BIN_OPS, Engine._exec_binop)
_HANDLERS.update(
    const=Engine._exec_const, addrof=Engine._exec_const, sym=Engine._exec_sym,
    load=Engine._exec_access, store=Engine._exec_access, br=Engine._exec_br,
    icall=Engine._exec_icall,
    **dict.fromkeys(("halt", "ret", "jmp", "call"), Engine._exec_control))


def _step_table(program: Program) -> tuple[_Step, ...]:
    labels = program.labels
    table = []
    for pc, inst in enumerate(program.instructions):
        op, operands = inst.opcode, inst.operands
        step = _Step(_HANDLERS[op], op, pc, inst.width)
        table.append(step)
        if op in ("const", "addrof", "sym"):
            step.rd, arg = operands[0].name, operands[1]
            if op == "const":
                step.value = _const(arg.value, inst.width)
            elif op == "addrof":
                step.value = _const(labels[arg] if arg in labels
                                    else program.region(arg).base, 32)
            else:
                step.value = (arg, len(operands) > 2)
            continue
        if op in ("jmp", "call"):
            step.target = labels[operands[0].name]
            continue
        if op == "br":
            step.target = (labels[operands[1].name], labels[operands[2].name])
            operands = operands[:1]
        elif op == "load" or op in ex.BIN_OPS:
            step.rd, operands = operands[0].name, operands[1:]
        if op in ex.BIN_OPS:
            step.value = _lane(op, inst.width)
        for slot, operand in zip(("a", "b"), operands):  # the sources
            if isinstance(operand, Reg):
                setattr(step, slot, operand.name)
            else:
                setattr(step, "i" + slot, _const(operand.value, 32))
    return tuple(table)


def _initial_image(program: Program) -> dict[int, ex.Expr]:
    """Region-declared contents; secret regions without init are fresh
    secret symbols, one per byte."""
    init: dict[int, ex.Expr] = {}
    for region in program.regions:
        if region.init is None and not region.secret:
            continue  # uninitialised public bytes read as zero
        for i in range(region.size):
            if region.init is not None and i < len(region.init):
                init[region.base + i] = ex.const(region.init[i], 8)
            elif region.secret:
                init[region.base + i] = ex.sym(f"{region.name}[{i}]", 8,
                                               secret=True)
    return init


class _Decoded:
    """What every engine over one laid-out program shares, made once: the
    step table; the initial image (read-only) as snapshot version 0, whose
    solver facts hold in every run as its bytes read no snapshot, and its
    secret symbols; `mapped(base, n)`: whether bytes base..base+n-1 all lie
    in regions; per pattern set, `step_plans(plan)[speculative][pc]`:
    the plan of a step's concrete events; and per bit budget, the
    `solver.Store` of answers over the image alone that every run shares."""

    __slots__ = ("steps", "image", "symbols", "mapped", "step_plans", "memos")

    def __init__(self, program: Program):
        self.steps = _step_table(program)
        spans = tuple((r.base, r.end) for r in program.regions)
        self.image = ex.Snapshot(0, _initial_image(program), tuple(
            (r.base, r.end) for r in program.regions if r.secret))
        self.symbols = solver._facts(self.image)[0]  # read-only
        self.mapped = functools.lru_cache(maxsize=1024)(
            lambda base, n: all(any(lo <= a < hi for lo, hi in spans)
                                for a in range(base, base + n)))
        ops = tuple(step.op for step in self.steps)
        self.step_plans = functools.lru_cache(maxsize=64)(lambda plan: tuple(
            tuple(plan((op, speculative, False, False)) for op in ops)
            for speculative in (False, True)))
        self.memos: dict[int, solver.Store] = {}  # per bit budget


def _met(bounds: tuple[int, int], spans: Sequence[tuple[int, int]]
         ) -> list[tuple[int, int]]:
    """The spans [lo, end) that meet the addresses `bounds` [lo, hi]."""
    lo, hi = bounds
    return [(start, end) for start, end in spans if start <= hi and lo < end]


def _decoded(program: Program) -> _Decoded:
    """The program's decoding, made by the first engine over it."""
    code = program.decoded
    if code is None:
        if any(r.base is None for r in program.regions):
            raise EngineError("program regions are not laid out; "
                              "call sir.layout_regions first")
        code = _Decoded(program)
        object.__setattr__(program, "decoded", code)
    return code

"""Prediction-aware symbolic executor.

Explores every satisfiable architectural path of a SIR program (DFS,
taken edge first), asks the predictor at each conditional branch and
indirect call, and runs a bounded wrong-path trace whenever the
prediction disagrees with the architectural outcome.

One step function executes both kinds of path; only conditional branches
and indirect calls follow a policy.  Architecturally a branch forks on
every satisfiable direction and an indirect call trains the predictor.
On a wrong path a branch follows the shadow predictor (or falls through,
in baseline mode) and adds no path constraint.  A wrong path runs in a
sandbox: registers, memory, and the return stack are copied, stores go
to the sandbox only (with store-to-load forwarding), and the
architectural state is untouched afterwards -- checked by fingerprinting
it around every trace -- while cache state, monitor tokens, statistics,
and findings deliberately persist.

The baseline mode reproduces the history-agnostic model of
prediction-less tools: every conditional branch spawns a wrong-path
trace down the not-actual direction, indirect calls spawn none.

Everything one `Engine.run` learns -- findings, statistics, symbols,
memory snapshots, the solver's slice memo -- lives in the `RunResult` it
returns, and the solver's per-snapshot facts in the run's paths, so runs
of one engine are independent.  A path's memory holds only the bytes
stored on it; loads fall back to the engine's initial image, which a
snapshot of a path that stored nothing shares rather than copies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import cache as cache_mod
from . import expr as ex
from . import solver
from .cache import CacheConfig, CacheState, LeakResult
from .monitor import MonitorInstance, MonitorSpec, event_class, routes
from .predictor import PredictorConfig, PredictorState
from .sir import Imm, Instruction, Program, Reg


class EngineError(Exception):
    pass


_ZERO_BYTE = ex.const(0, 8)  # a byte no region initialises and no store wrote

# `ex.const` for the concrete lane; a Const is immutable, so it is shared
_const = functools.lru_cache(maxsize=4096)(ex.const)


class Event(NamedTuple):
    name: str
    pc: int
    speculation: bool
    symbolic_access: bool
    secret_access: bool
    addr: Optional[int] = None  # concrete address of a load or store


@functools.lru_cache(maxsize=4096)
def _concrete_event(name: str, pc: int, speculation: bool) -> Event:
    """The event of an instruction with no symbolic operand, shared."""
    return Event(name, pc, speculation, False, False)


def concrete_binop(op: str, a: ex.Const, b: ex.Const, width: int) -> ex.Const:
    """`ex.mk_binop(op, ex.coerce(a, width), ex.coerce(b, width))` of two
    constants, without its checks: constants carry no taint to join."""
    m = ex.mask(width)
    return _const(ex.apply_binop(op, a.value & m, b.value & m, width),
                  32 if op in ex.CMP_OPS else width)


@dataclass
class Stats:
    paths: int = 0
    arch_instructions: int = 0
    spec_instructions: int = 0
    spec_traces: int = 0
    predictor_updates: int = 0
    solver_queries: int = 0
    budget_exceeded: int = 0
    step_limit_hit: bool = False
    trace_identities: List[Tuple] = field(default_factory=list)
    # one (path_key, path_condition, final fingerprint) per finished path
    path_summaries: List[Tuple] = field(default_factory=list)


@dataclass
class Finding:
    kind: str  # "leak", "unknown", or "error"
    pattern: Optional[str]
    chain: Tuple[Tuple[int, str, bool], ...]
    path_condition: str
    config: str
    witness: Optional[object]  # Model or (Model, Model)
    event_log: Tuple = ()
    observable: Optional[ex.Expr] = None  # adversary view the pair separates
    constraints: Tuple[ex.Expr, ...] = ()

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


@dataclass
class RunResult:
    """The state and the outcome of one `Engine.run`.

    Witnesses and observables re-evaluate against `snapshots` (the memory
    a symbolic load read from, by version; read-only, as versions share
    objects with each other and with the engine) and `symbols`."""
    findings: List[Finding] = field(default_factory=list)
    stats: Stats = field(default_factory=Stats)
    diagnostics: List[str] = field(default_factory=list)
    unknown: bool = False
    baseline: bool = False
    snapshots: Dict[int, Dict[int, ex.Expr]] = field(default_factory=dict,
                                                     repr=False)
    symbols: Dict[str, ex.Sym] = field(default_factory=dict, repr=False)
    # architectural snapshots count up, speculative ones count down, so
    # the versions embedded in architectural expressions are identical
    # whether or not speculation ran in between
    next_version: int = field(default=0, compare=False, repr=False)
    next_spec_version: int = field(default=-1, compare=False, repr=False)
    # slice results of every solver query of this run; valid for the run,
    # as a frozen snapshot's bytes never change (the initial image, which
    # many versions share, included)
    memo: dict = field(default_factory=dict, compare=False, repr=False)
    # (pattern, chain, path key) of every match already reported
    seen: Set[tuple] = field(default_factory=set, compare=False, repr=False)
    # (pc, kind) of every note already written
    noted: Set[Tuple[int, str]] = field(default_factory=set, compare=False,
                                        repr=False)

    @property
    def verdict(self) -> str:
        if any(f.kind == "leak" for f in self.findings):
            return "leak"
        if self.unknown or any(f.kind in ("unknown", "error")
                               for f in self.findings):
            return "unknown"
        return "leakage-free"

    def overrun(self, pc: int, kind: str,
                err: Optional[solver.BudgetExceeded] = None) -> None:
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
    cache, monitors, return stack, speculation context."""

    __slots__ = ("pc", "regs", "mem", "path", "path_key", "predictor",
                 "cache", "monitors", "ret_stack", "event_log", "clock")

    def __init__(self, pc: int, predictor: PredictorState, cache: CacheState,
                 monitors: List[MonitorInstance]):
        self.pc = pc
        self.regs: Dict[str, ex.Expr] = {}
        self.mem: Dict[int, ex.Expr] = {}  # stored bytes over Engine._init_mem
        self.path = solver.PathCondition({})  # Engine.run binds its snapshots
        self.path_key: List[Tuple[int, bool]] = []
        self.predictor = predictor
        self.cache = cache
        self.monitors = monitors
        self.ret_stack: List[int] = []
        # each event with its leak-check result, or None where none ran
        self.event_log: List[Tuple[Event, Optional[LeakResult]]] = []
        self.clock = 0  # events on the path and its wrong paths

    def clone(self) -> "ExecState":
        c = ExecState.__new__(ExecState)
        c.pc = self.pc
        c.regs = dict(self.regs)
        c.mem = dict(self.mem)
        c.path = self.path
        c.path_key = list(self.path_key)
        c.predictor = self.predictor.clone()
        c.cache = self.cache.clone()
        c.monitors = [m.clone() for m in self.monitors]
        c.ret_stack = list(self.ret_stack)
        c.event_log = list(self.event_log)
        c.clock = self.clock
        return c

    def fingerprint(self) -> tuple:
        """Architectural state only; used to assert rollback exactness."""
        tl, btb = self.predictor.two_level, self.predictor.btb
        return (self.pc, tuple(sorted(self.regs.items(), key=lambda kv: kv[0])),
                tuple(sorted(self.mem.items())), tuple(self.ret_stack),
                tl.bhr if tl else None,
                tuple(sorted(btb.sets.items())) if btb else None,
                tuple(sorted(tl.pht.items())) if tl else None)


class _Sandbox:
    """Wrong-path frame of one speculative trace: copies of a path's
    registers, memory and return stack, plus the shadow predictor that
    steers it (None in baseline mode)."""

    __slots__ = ("pc", "regs", "mem", "ret_stack", "shadow")

    def __init__(self, state: ExecState, start_pc: int,
                 shadow: Optional[PredictorState]):
        self.pc = start_pc
        self.regs = dict(state.regs)
        self.mem = dict(state.mem)  # buffered stores land here only
        self.ret_stack = list(state.ret_stack)
        self.shadow = shadow


def check_limits(bit_budget: int, step_limit: int) -> None:
    """Raise ValueError unless both limits are non-negative."""
    for name, value in (("bit_budget", bit_budget), ("step_limit", step_limit)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0")


class Engine:
    def __init__(self, program: Program,
                 predictor_cfg: Optional[PredictorConfig] = None,
                 cache_cfg: Optional[CacheConfig] = None,
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
        self._routes = routes(tuple(self.patterns))

        if any(r.base is None for r in program.regions):
            raise EngineError("program regions are not laid out; "
                              "call sir.layout_regions first")
        self._init_mem = self._initial_memory()

    # ------------------------------------------------------------------ run

    def run(self, baseline: bool = False) -> RunResult:
        run = self._new_run(baseline)
        init = ExecState(self.program.entry,
                         PredictorState(self.predictor_cfg),
                         CacheState(self.cache_cfg),
                         [MonitorInstance(p) for p in self.patterns])
        init.path = solver.PathCondition(run.snapshots)
        worklist: List[ExecState] = [init]
        steps = 0
        while worklist and not run.stats.step_limit_hit:
            s = worklist.pop()
            status = "run"
            while status == "run":
                if steps >= self.step_limit:
                    run.stats.step_limit_hit = True
                    run.unknown = True  # unexplored paths may leak
                    run.diagnostics.append(
                        "step limit exceeded; exploration truncated")
                    break
                steps += 1
                status = self._step(run, s, s, worklist)
            if status == "end":
                run.stats.paths += 1
                run.stats.path_summaries.append(
                    (tuple(s.path_key), s.path.text, s.fingerprint()))
            # "fork": successors are on the worklist
        run.findings.sort(key=Finding.sort_key)
        return run

    def _new_run(self, baseline: bool) -> RunResult:
        """Per-run state, its symbol table seeded with the secret bytes of
        the initial memory."""
        return RunResult(baseline=baseline, symbols={
            v.name: v for v in self._init_mem.values() if isinstance(v, ex.Sym)})

    # ----------------------------------------------------------- single step

    def step(self, state: ExecState,
             run: Optional[RunResult] = None) -> List[ExecState]:
        """Execute one instruction of a copy of `state`; return the live
        successors.  Each successor's event_log extends the input's, so the
        caller can diff logs to see what the step emitted.  Symbols,
        snapshots and findings go to `run`; pass the same one to every step
        of an exploration (a fresh one is made when it is None)."""
        s = state.clone()
        successors: List[ExecState] = []
        if self._step(run or self._new_run(False), s, s, successors) == "run":
            successors.append(s)
        return successors

    def _step(self, run: RunResult, s: ExecState, frame: ExecState | _Sandbox,
              worklist: Optional[List[ExecState]]) -> str:
        """Execute the instruction at frame.pc in place.

        `frame` is `s` itself on the architectural path, or a `_Sandbox` of
        `s` on a wrong path; events, the cache and the monitors are always
        those of `s`.  Returns "run" when the frame continues, "fork" when
        successors went onto `worklist` (architectural conditional
        branches), or "end" when the path or the trace ends."""
        speculative = frame is not s
        pc = frame.pc
        inst = self.program.instructions[pc]
        op = inst.opcode
        if speculative:
            run.stats.spec_instructions += 1
        else:
            run.stats.arch_instructions += 1

        if op == "br":
            if speculative:
                self._follow_prediction(run, s, frame, inst)
                return "run"
            self._fork_on_branch(run, s, inst, worklist)
            return "fork"
        if op == "icall":
            if speculative:
                return self._follow_indirect(run, s, frame, inst)
            return self._resolve_indirect(run, s, inst)
        if op in ("halt", "ret", "jmp", "call"):
            self._emit(run, s, _concrete_event(op, pc, speculative), None)
            if op == "halt" or (op == "ret" and not frame.ret_stack):
                return "end"
            if op == "ret":
                frame.pc = frame.ret_stack.pop()
                return "run"
            if op == "call":
                frame.ret_stack.append(pc + 1)
            frame.pc = self.program.labels[inst.operands[0].name]
            return "run"

        # straight-line instruction
        event, leak, err = self._exec_data_inst(run, inst, frame, s.path,
                                                speculative)
        if err is not None and not speculative:
            self._error(run, s, op, err)
        self._emit(run, s, event, leak)
        if err is not None:
            return "end"
        frame.pc += 1
        return "run"

    def _error(self, run: RunResult, s: ExecState, op: str, message: str) -> None:
        """The architectural path ends at an instruction it cannot execute."""
        run.findings.append(Finding("error", None, ((s.pc, op, False),),
                                    s.path.text, self._config_str(), None))
        run.diagnostics.append(f"pc {s.pc}: {message}")

    # ------------------------------------------- branches: architectural policy

    def _fork_on_branch(self, run: RunResult, s: ExecState, inst: Instruction,
                        worklist: List[ExecState]) -> None:
        pc = s.pc
        cond, t_pc, f_pc = self._branch_operands(inst, s.regs)

        feasible: List[bool] = []
        paths = {}  # each queried direction's path condition
        overran = False
        if isinstance(cond, ex.Const):
            feasible = [cond.value != 0]
        else:
            for want in (True, False):
                paths[want] = s.path.extend(ex.mk_binop(
                    "ne" if want else "eq", cond, ex.const(0, cond.width)))
                run.stats.solver_queries += 1
                try:
                    m = solver.is_sat(self._query(run, paths[want]))
                except solver.BudgetExceeded as e:
                    run.overrun(pc, "branch", e)
                    overran = True
                    continue
                if m is not None:
                    feasible.append(want)
        if overran:
            run.findings.append(Finding("unknown", None, ((pc, "br", False),),
                                        s.path.text, self._config_str(), None))
            if not feasible:
                run.note(pc, "dropped", "path dropped: no branch direction "
                         "fits the bit budget")

        # DFS taken-edge first: push not-taken first so taken pops first
        for direction in sorted(feasible):  # False before True
            succ = s if len(feasible) == 1 else s.clone()
            succ.path = paths.get(direction, s.path)
            succ.path_key.append((pc, direction))
            self._emit(run, succ, Event("br", pc, False, cond.taint.symbolic,
                                        cond.taint.secret), None)
            actual_pc = t_pc if direction else f_pc

            if run.baseline:
                wrong_pc = f_pc if direction else t_pc
                self._run_speculative(run, succ, wrong_pc, (pc, wrong_pc))
            else:
                pred_taken, pred_pc = succ.predictor.predict_conditional(
                    pc, t_pc, f_pc)
                if pred_pc != actual_pc:
                    self._run_speculative(run, succ, pred_pc, (pc, pred_pc),
                                          noted=pred_taken)
                succ.predictor.update(pc, direction, t_pc if direction else None)
                run.stats.predictor_updates += 1

            succ.pc = actual_pc
            worklist.append(succ)

    def _branch_operands(self, inst: Instruction, regs: Dict[str, ex.Expr]):
        """(condition, taken pc, fall-through pc) of a `br`."""
        labels = self.program.labels
        return (ex.coerce(self._operand_value(inst.operands[0], regs), 32),
                labels[inst.operands[1].name], labels[inst.operands[2].name])

    def _resolve_indirect(self, run: RunResult, s: ExecState,
                          inst: Instruction) -> str:
        pc = s.pc
        target = self._operand_value(inst.operands[0], s.regs)
        if not isinstance(target, ex.Const):
            self._error(run, s, "icall", "unsupported symbolic indirect target")
            self._emit(run, s, Event("icall", pc, False, True,
                                     target.taint.secret), None)
            return "end"
        actual = target.value
        if actual >= len(self.program.instructions):
            self._error(run, s, "icall", f"icall target {actual} out of range")
            return "end"
        self._emit(run, s, Event("icall", pc, False, False,
                                 target.taint.secret), None)
        if not run.baseline:
            pred = s.predictor.predict_target(pc)
            if pred is not None and pred != actual:
                self._run_speculative(run, s, pred, (pc, pred),
                                      push_return=pc + 1)
            s.predictor.update(pc, True, actual, conditional=False)
            run.stats.predictor_updates += 1
        s.ret_stack.append(pc + 1)
        s.pc = actual
        return "run"

    # -------------------------------------------- branches: wrong-path policy

    def _follow_prediction(self, run: RunResult, s: ExecState, box: _Sandbox,
                           inst: Instruction) -> None:
        """No forking, no path constraint: follow the shadow prediction, or
        fall through in baseline mode (history-agnostic)."""
        cond, t_pc, f_pc = self._branch_operands(inst, box.regs)
        self._emit(run, s, Event("br", box.pc, True, cond.taint.symbolic,
                                 cond.taint.secret), None)
        if box.shadow is None:
            box.pc = f_pc
            return
        taken, box.pc = box.shadow.predict_conditional(box.pc, t_pc, f_pc)
        box.shadow.spec_note_direction(taken)

    def _follow_indirect(self, run: RunResult, s: ExecState, box: _Sandbox,
                         inst: Instruction) -> str:
        """Call the shadow BTB's target (the concrete target in baseline
        mode); without a usable target the trace stalls out."""
        tgt = self._operand_value(inst.operands[0], box.regs)
        self._emit(run, s, Event("icall", box.pc, True, tgt.taint.symbolic,
                                 tgt.taint.secret), None)
        if box.shadow is not None:
            pred = box.shadow.predict_target(box.pc)
        elif isinstance(tgt, ex.Const):
            pred = tgt.value
        else:
            pred = None
        if pred is None or pred >= len(self.program.instructions):
            return "end"
        box.ret_stack.append(box.pc + 1)
        box.pc = pred
        return "run"

    # ----------------------------------------------------------- speculation

    def _run_speculative(self, run: RunResult, s: ExecState, start_pc: int,
                         identity_tail: Tuple[int, int],
                         noted: Optional[bool] = None,
                         push_return: Optional[int] = None) -> None:
        """Run one wrong-path trace of at most `window` instructions, steered
        by a copy of the path's predictor (its BHR shifted by the `noted`
        predicted direction) outside baseline mode.

        Cache and monitor effects persist on `s`; everything architectural
        is untouched, which the fingerprints before and after check.
        """
        window = self.predictor_cfg.window
        if window == 0:
            return
        before = s.fingerprint()
        run.stats.spec_traces += 1
        run.stats.trace_identities.append((tuple(s.path_key),) + identity_tail)

        shadow = None if run.baseline else s.predictor.clone()
        if noted is not None:
            shadow.spec_note_direction(noted)
        box = _Sandbox(s, start_pc, shadow)
        if push_return is not None:
            box.ret_stack.append(push_return)
        n = len(self.program.instructions)
        try:
            for _ in range(window):
                if not 0 <= box.pc < n or self._step(run, s, box, None) == "end":
                    break
        except EngineError as e:  # e.g. a read of an unset register
            # the rest of this wrong path was never run, so it may leak
            run.unknown = True
            run.note(box.pc, "wrong-path error", f"wrong path ended: {e}")

        if s.fingerprint() != before:
            raise EngineError("speculation leaked into architectural state")

    # -------------------------------------------------------- data movement

    def _exec_data_inst(self, run: RunResult, inst: Instruction,
                        frame: ExecState | _Sandbox,
                        path: solver.PathCondition, speculative: bool):
        """Execute const/sym/addrof/binop/load/store against the frame's
        register file and memory.  Returns (event, leak-check result,
        error)."""
        op = inst.opcode
        pc = frame.pc
        regs = frame.regs

        if op == "const":
            rd, imm = inst.operands
            regs[rd.name] = _const(imm.value, inst.width)
            return _concrete_event(op, pc, speculative), None, None

        if op == "sym":
            rd = inst.operands[0]
            name = inst.operands[1]
            secret = len(inst.operands) > 2
            known = run.symbols.get(name)
            if known is not None and (known.width != inst.width
                                      or known.taint.secret != secret):
                return (Event(op, pc, speculative, True, secret), None,
                        f"symbol {name!r} redeclared with different shape")
            value = known if known is not None else ex.sym(name, inst.width, secret)
            run.symbols[name] = value
            regs[rd.name] = value
            return Event(op, pc, speculative, True, secret), None, None

        if op == "addrof":
            rd, name = inst.operands
            if name in self.program.labels:
                value = self.program.labels[name]
            else:
                value = self.program.region(name).base
            regs[rd.name] = _const(value, 32)
            return _concrete_event(op, pc, speculative), None, None

        if op in ex.BIN_OPS:
            rd, a_op, b_op = inst.operands
            a = self._operand_value(a_op, regs)
            b = self._operand_value(b_op, regs)
            if type(a) is ex.Const and type(b) is ex.Const:
                regs[rd.name] = concrete_binop(op, a, b, inst.width)
                return _concrete_event(op, pc, speculative), None, None
            a, b = ex.coerce(a, inst.width), ex.coerce(b, inst.width)
            result = ex.mk_binop(op, a, b)
            regs[rd.name] = result
            taint = a.taint.join(b.taint)
            return Event(op, pc, speculative, taint.symbolic, taint.secret), None, None

        if op == "load":
            rd, addr_op = inst.operands
            addr = ex.coerce(self._operand_value(addr_op, regs), 32)
            value = self._do_load(run, addr, inst.width, frame.mem,
                                  path, pc, speculative)
            regs[rd.name] = value
            taint = addr.taint.join(value.taint)
            leak = self._cache_route(run, addr, path, pc)
            return (Event(op, pc, speculative, taint.symbolic, taint.secret,
                          self._concrete(addr)), leak, None)

        if op == "store":
            addr_op, val_op = inst.operands
            addr = ex.coerce(self._operand_value(addr_op, regs), 32)
            value = ex.coerce(self._operand_value(val_op, regs), inst.width)
            self._do_store(run, addr, value, inst.width, frame.mem, pc)
            taint = addr.taint.join(value.taint)
            leak = self._cache_route(run, addr, path, pc)
            return (Event(op, pc, speculative, taint.symbolic, taint.secret,
                          self._concrete(addr)), leak, None)

        raise EngineError(f"unhandled opcode {op!r}")

    def _do_load(self, run: RunResult, addr: ex.Expr, width: int,
                 mem: Dict[int, ex.Expr], path: solver.PathCondition,
                 pc: int, speculative: bool) -> ex.Expr:
        if isinstance(addr, ex.Const):
            base = addr.value
            if self.program.region_at(base) is None:
                run.diagnostics.append(
                    f"pc {pc}: load from unmapped address {base:#x}")
            parts = []
            for a in range(base, base + width // 8):
                byte = mem.get(a)
                parts.append(self._init_mem.get(a, _ZERO_BYTE)
                             if byte is None else byte)
            if width == 8:
                value = parts[0]
            else:
                value = ex.coerce(parts[0], 32)
                for i, byte in enumerate(parts[1:], start=1):
                    value = ex.mk_binop(
                        "or", value,
                        ex.mk_binop("shl", ex.coerce(byte, 32),
                                    ex.const(8 * i, 32)))
            return value
        # symbolic address: freeze the memory snapshot it reads from
        version = self._freeze(run, mem, speculative)
        secret = self._may_touch_secret(run, addr, path, pc)
        return ex.mk_memread(version, addr, width, secret)

    def _do_store(self, run: RunResult, addr: ex.Expr, value: ex.Expr,
                  width: int, mem: Dict[int, ex.Expr], pc: int) -> None:
        if not isinstance(addr, ex.Const):
            # later loads and store-to-load forwarding cannot see the store,
            # so nothing after it is sound to call leakage-free
            run.diagnostics.append(f"pc {pc}: symbolic store address "
                                   "unsupported; store skipped")
            run.unknown = True
            return
        base = addr.value
        if self.program.region_at(base) is None:
            run.diagnostics.append(f"pc {pc}: store to unmapped address {base:#x}")
        if width == 8:
            mem[base] = ex.coerce(value, 8)
        else:
            for i in range(4):
                mem[base + i] = ex.coerce(
                    ex.mk_binop("lshr", value, ex.const(8 * i, 32)), 8)

    def _may_touch_secret(self, run: RunResult, addr: ex.Expr,
                          path: solver.PathCondition, pc: int) -> bool:
        """May-analysis lift of the load taint rule: a symbolic address is
        secret-reaching if some model consistent with the path condition
        lands it in a secret region."""
        if addr.taint.secret:
            return True
        for region in self.program.regions:
            if not region.secret:
                continue
            lo = ex.mk_binop("le", ex.const(region.base, 32), addr)
            hi = ex.mk_binop("lt", addr, ex.const(region.end, 32))
            run.stats.solver_queries += 1
            try:
                m = solver.is_sat(self._query(run, path.extend(lo).extend(hi)))
            except solver.BudgetExceeded as e:
                run.overrun(pc, "may-touch", e)
                return True  # conservative
            if m is not None:
                return True
        return False

    def _freeze(self, run: RunResult, mem: Dict[int, ex.Expr],
                speculative: bool) -> int:
        if speculative:
            version = run.next_spec_version
            run.next_spec_version -= 1
        else:
            version = run.next_version
            run.next_version += 1
        # a frame that stored nothing shares the initial image
        run.snapshots[version] = ({**self._init_mem, **mem} if mem
                                  else self._init_mem)
        return version

    def _initial_memory(self) -> Dict[int, ex.Expr]:
        """Region-declared contents; secret regions without init are fresh
        secret symbols, one per byte."""
        init: Dict[int, ex.Expr] = {}
        for region in self.program.regions:
            if region.init is None and not region.secret:
                continue  # uninitialised public bytes read as zero
            for i in range(region.size):
                if region.init is not None and i < len(region.init):
                    init[region.base + i] = ex.const(region.init[i], 8)
                elif region.secret:
                    init[region.base + i] = ex.sym(f"{region.name}[{i}]", 8,
                                                   secret=True)
        return init

    # --------------------------------------------------------------- events

    def _cache_route(self, run: RunResult, addr: ex.Expr,
                     path: solver.PathCondition, pc: int
                     ) -> Optional[LeakResult]:
        """The leak check of an access at a secret-tainted address, when
        some pattern checks the cache state; None otherwise."""
        if not (addr.taint.secret and self._needs_cache_check):
            return None
        run.stats.solver_queries += 1  # one leak-pair search
        leak = cache_mod.leak_check(addr, self._query(run, path),
                                    self.cache_cfg)
        if leak.status == "unknown":
            run.overrun(pc, "leak-pair", leak.error)
        return leak

    def _emit(self, run: RunResult, s: ExecState, event: Event,
              leak: Optional[LeakResult]) -> None:
        if event.addr is not None:
            s.cache.access(event.addr)
        s.event_log.append((event, leak))
        now = s.clock
        s.clock = now + 1
        for k in self._routes(event_class(event)):  # monitors with a node for it
            for match in s.monitors[k].observe(event, leak, now):
                self._record_match(run, s, match, leak)

    def _record_match(self, run: RunResult, s: ExecState, match,
                      leak: Optional[LeakResult]) -> None:
        key = (match.pattern, match.chain, tuple(s.path_key))
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
                witness = solver.is_sat(self._query(run, s.path))
            except solver.BudgetExceeded as e:
                run.overrun(match.chain[-1][0], "witness", e)
                kind = "unknown"
        run.findings.append(Finding(kind, match.pattern, match.chain,
                                    s.path.text, self._config_str(), witness,
                                    event_log=tuple(s.event_log),
                                    observable=observable,
                                    constraints=s.path.constraints))

    # -------------------------------------------------------------- helpers

    def _operand_value(self, operand, regs: Dict[str, ex.Expr]) -> ex.Expr:
        if isinstance(operand, Reg):
            value = regs.get(operand.name)
            if value is None:
                raise EngineError(f"read of unset register {operand.name!r}")
            return value
        if isinstance(operand, Imm):
            return _const(operand.value, 32)
        raise EngineError(f"bad operand {operand!r}")

    def _query(self, run: RunResult, path: solver.PathCondition
               ) -> solver.Query:
        return solver.Query(path.constraints, self.bit_budget, run.snapshots,
                            run.memo, path)

    @staticmethod
    def _concrete(addr: ex.Expr) -> Optional[int]:
        return addr.value if isinstance(addr, ex.Const) else None

    def _config_str(self) -> str:
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

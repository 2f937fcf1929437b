"""Prediction-aware symbolic executor.

Explores every satisfiable architectural path of a SIR program (DFS,
taken edge first), asks the predictor at each conditional branch and
indirect call, and runs a bounded wrong-path trace whenever the
prediction disagrees with the architectural outcome.  Speculative
execution happens in a sandbox: registers, memory, and the return stack
are copied, stores go to the sandbox only (with store-to-load forwarding),
and the architectural state is untouched afterwards -- while cache state,
monitor tokens, statistics, and findings deliberately persist.

The baseline mode reproduces the history-agnostic model of
prediction-less tools: every conditional branch spawns a wrong-path
trace down the not-actual direction, indirect calls spawn none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import cache as cache_mod
from . import expr as ex
from . import solver
from .cache import CacheConfig, CacheState, LeakResult
from .monitor import MonitorInstance, MonitorSpec
from .predictor import PredictorConfig, PredictorState
from .sir import Imm, Instruction, Label, Program, Reg

BINOP_OPCODES = frozenset(
    ("add", "sub", "mul", "and", "or", "xor", "shl", "lshr",
     "lt", "le", "eq", "ne"))


class EngineError(Exception):
    pass


@dataclass(frozen=True)
class MemoryInfo:
    addr_expr: ex.Expr
    concrete: Optional[int]
    line: Optional[int]
    write: bool


@dataclass(frozen=True)
class Event:
    name: str
    pc: int
    speculation: bool
    symbolic_access: bool
    secret_access: bool
    mem: Optional[MemoryInfo] = None


@dataclass(frozen=True)
class CacheObservation:
    """What the cache tells the monitor after handling one event."""
    leak: Optional[LeakResult] = None
    hit: Optional[bool] = None


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
    findings: List[Finding]
    stats: Stats
    diagnostics: List[str]
    unknown: bool

    @property
    def verdict(self) -> str:
        if any(f.kind == "leak" for f in self.findings):
            return "leak"
        if self.unknown or any(f.kind in ("unknown", "error")
                               for f in self.findings):
            return "unknown"
        return "leakage-free"


class ExecState:
    """One symbolic path: registers, memory, path condition, predictor,
    cache, monitors, return stack, speculation context."""

    __slots__ = ("pc", "regs", "mem", "path_cond", "path_key", "predictor",
                 "cache", "monitors", "ret_stack", "event_log")

    def __init__(self, pc: int, predictor: PredictorState, cache: CacheState,
                 monitors: List[MonitorInstance]):
        self.pc = pc
        self.regs: Dict[str, ex.Expr] = {}
        self.mem: Dict[int, ex.Expr] = {}
        self.path_cond: List[ex.Expr] = []
        self.path_key: List[Tuple[int, bool]] = []
        self.predictor = predictor
        self.cache = cache
        self.monitors = monitors
        self.ret_stack: List[int] = []
        self.event_log: List[Tuple[Event, CacheObservation]] = []

    def clone(self) -> "ExecState":
        c = ExecState.__new__(ExecState)
        c.pc = self.pc
        c.regs = dict(self.regs)
        c.mem = dict(self.mem)
        c.path_cond = list(self.path_cond)
        c.path_key = list(self.path_key)
        c.predictor = self.predictor.clone()
        c.cache = self.cache.clone()
        c.monitors = [m.clone() for m in self.monitors]
        c.ret_stack = list(self.ret_stack)
        c.event_log = list(self.event_log)
        return c

    def fingerprint(self) -> tuple:
        """Architectural state only; used to assert rollback exactness."""
        return (self.pc, tuple(sorted(self.regs.items(), key=lambda kv: kv[0])),
                tuple(sorted(self.mem.items())), tuple(self.ret_stack),
                self.predictor.two_level.bhr if self.predictor.two_level else None,
                tuple(tuple(s) for s in self.predictor.btb.sets)
                if self.predictor.btb else None,
                tuple(self.predictor.two_level.pht)
                if self.predictor.two_level else None)


class _Sandbox:
    """Mutable wrong-path context for one speculative trace."""

    __slots__ = ("pc", "regs", "mem", "ret_stack", "shadow", "remaining")

    def __init__(self, state: ExecState, start_pc: int, shadow: PredictorState,
                 window: int):
        self.pc = start_pc
        self.regs = dict(state.regs)
        self.mem = dict(state.mem)  # buffered stores land here only
        self.ret_stack = list(state.ret_stack)
        self.shadow = shadow
        self.remaining = window


class Engine:
    def __init__(self, program: Program,
                 predictor_cfg: Optional[PredictorConfig] = None,
                 cache_cfg: Optional[CacheConfig] = None,
                 patterns: Sequence[MonitorSpec] = (),
                 bit_budget: int = 20,
                 step_limit: int = 200_000,
                 check_rollback: bool = True,
                 no_speculation: bool = False):
        self.program = program
        self.predictor_cfg = predictor_cfg or PredictorConfig()
        self.cache_cfg = cache_cfg or CacheConfig()
        self.patterns = list(patterns)
        self.bit_budget = bit_budget
        self.step_limit = step_limit
        self.check_rollback = check_rollback
        self.no_speculation = no_speculation

        self.snapshots: Dict[int, Dict[int, ex.Expr]] = {}
        # architectural snapshots count up, speculative ones count down, so
        # the versions embedded in architectural expressions are identical
        # whether or not speculation ran in between
        self._next_version = 0
        self._next_spec_version = -1
        self._symbols: Dict[str, ex.Sym] = {}
        # slice results of every solver query this engine makes; valid for
        # its lifetime, as a snapshot version is never reused or changed
        self._solver_memo: dict = {}
        self._needs_cache_check = any(p.uses_cache_state for p in self.patterns)

        if any(r.base is None for r in program.regions):
            raise EngineError("program regions are not laid out; "
                              "call sir.layout_regions first")

    # ------------------------------------------------------------------ run

    def run(self, baseline: bool = False) -> RunResult:
        stats = Stats()
        findings: List[Finding] = []
        seen_findings: Set[tuple] = set()
        diagnostics: List[str] = []
        unknown = [False]
        ctx = (stats, findings, seen_findings, diagnostics, unknown, baseline)

        init = ExecState(self.program.entry,
                         PredictorState(self.predictor_cfg),
                         CacheState(self.cache_cfg),
                         [MonitorInstance(p) for p in self.patterns])
        init.mem.update(self._initial_memory())
        worklist: List[ExecState] = [init]
        steps = 0
        while worklist:
            s = worklist.pop()
            while True:
                if steps >= self.step_limit:
                    stats.step_limit_hit = True
                    diagnostics.append("step limit exceeded; exploration truncated")
                    return self._finish(ctx)
                steps += 1
                status = self._step_inplace(s, worklist, ctx)
                if status == "run":
                    continue
                if status == "end":
                    stats.paths += 1
                    stats.path_summaries.append(
                        (tuple(s.path_key), self._path_str(s), s.fingerprint()))
                break  # "fork": successors are on the worklist
        return self._finish(ctx)

    def _finish(self, ctx) -> RunResult:
        stats, findings, _seen, diagnostics, unknown, _baseline = ctx
        findings.sort(key=Finding.sort_key)
        return RunResult(findings, stats, diagnostics, unknown[0])

    # ----------------------------------------------------------- single step

    def step(self, state: ExecState) -> List[ExecState]:
        """Execute one instruction of a copy of `state`; return the live
        successors.  Each successor's event_log extends the input's, so the
        caller can diff logs to see what the step emitted."""
        ctx = (Stats(), [], set(), [], [False], False)
        s = state.clone()
        successors: List[ExecState] = []
        status = self._step_inplace(s, successors, ctx)
        if status == "run":
            successors.append(s)
        return successors

    def _step_inplace(self, s: ExecState, worklist: List[ExecState],
                      ctx) -> str:
        """Execute the instruction at s.pc in place.  Returns "run" when
        this state continues, "fork" when successors went onto `worklist`
        (conditional branches), or "end" when the path terminates."""
        stats, findings, seen, diagnostics, unknown, baseline = ctx
        inst = self.program.instructions[s.pc]
        op = inst.opcode
        stats.arch_instructions += 1

        if op == "br":
            self._fork_on_branch(s, inst, worklist, ctx)
            return "fork"
        if op == "icall":
            return self._resolve_indirect(s, inst, ctx)
        if op == "halt":
            self._emit(s, self._plain_event(s, inst, False), None, ctx)
            return "end"
        if op == "ret":
            self._emit(s, self._plain_event(s, inst, False), None, ctx)
            if not s.ret_stack:
                return "end"
            s.pc = s.ret_stack.pop()
            return "run"
        if op == "jmp":
            self._emit(s, self._plain_event(s, inst, False), None, ctx)
            s.pc = self.program.labels[inst.operands[0].name]
            return "run"
        if op == "call":
            self._emit(s, self._plain_event(s, inst, False), None, ctx)
            s.ret_stack.append(s.pc + 1)
            s.pc = self.program.labels[inst.operands[0].name]
            return "run"

        # straight-line instruction
        event, obs, err = self._exec_data_inst(
            inst, s.regs, s.mem, s.path_cond, False, s.pc, ctx)
        if err is not None:
            findings.append(Finding("error", None, ((s.pc, op, False),),
                                    self._path_str(s), self._config_str(), None))
            diagnostics.append(f"pc {s.pc}: {err}")
            self._emit(s, event, obs, ctx)
            return "end"
        self._emit(s, event, obs, ctx)
        s.pc += 1
        return "run"

    # ------------------------------------------------------------- branches

    def _fork_on_branch(self, s: ExecState, inst: Instruction,
                        worklist: List[ExecState], ctx) -> None:
        stats, findings, seen, diagnostics, unknown, baseline = ctx
        pc = s.pc
        cond = ex.coerce(self._operand_value(inst.operands[0], s.regs), 32)
        t_pc = self.program.labels[inst.operands[1].name]
        f_pc = self.program.labels[inst.operands[2].name]

        feasible: List[bool] = []
        if isinstance(cond, ex.Const):
            feasible = [cond.value != 0]
        else:
            for want in (True, False):
                c = self._direction_constraint(cond, want)
                stats.solver_queries += 1
                try:
                    m = solver.is_sat(solver.Query(
                        tuple(s.path_cond) + (c,), self.bit_budget,
                        self.snapshots, self._solver_memo))
                except solver.BudgetExceeded:
                    self._overrun(ctx)
                    findings.append(Finding(
                        "unknown", None, ((pc, "br", False),),
                        self._path_str(s), self._config_str(), None))
                    continue
                if m is not None:
                    feasible.append(want)

        # DFS taken-edge first: push not-taken first so taken pops first
        for direction in sorted(feasible):  # False before True
            succ = s if len(feasible) == 1 else s.clone()
            if not isinstance(cond, ex.Const):
                succ.path_cond.append(self._direction_constraint(cond, direction))
            succ.path_key.append((pc, direction))
            self._emit(succ, Event("br", pc, False,
                                   cond.taint.symbolic, cond.taint.secret),
                       None, ctx)
            actual_pc = t_pc if direction else f_pc

            if baseline:
                wrong_pc = f_pc if direction else t_pc
                if not self.no_speculation and self.predictor_cfg.window > 0:
                    self._run_speculative(succ, wrong_pc, None, (pc, wrong_pc), ctx)
            else:
                pred_taken, pred_pc = succ.predictor.predict_conditional(
                    pc, t_pc, f_pc)
                if (not self.no_speculation and self.predictor_cfg.window > 0
                        and pred_pc != actual_pc):
                    shadow = succ.predictor.clone()
                    shadow.spec_note_direction(pred_taken)
                    self._run_speculative(succ, pred_pc, shadow, (pc, pred_pc), ctx)
                succ.predictor.update(pc, direction, t_pc if direction else None)
                stats.predictor_updates += 1

            succ.pc = actual_pc
            worklist.append(succ)

    @staticmethod
    def _direction_constraint(cond: ex.Expr, taken: bool) -> ex.Expr:
        op = "ne" if taken else "eq"
        return ex.mk_binop(op, cond, ex.const(0, cond.width))

    def _resolve_indirect(self, s: ExecState, inst: Instruction, ctx) -> str:
        stats, findings, seen, diagnostics, unknown, baseline = ctx
        pc = s.pc
        target = self._operand_value(inst.operands[0], s.regs)
        if not isinstance(target, ex.Const):
            findings.append(Finding(
                "error", None, ((pc, "icall", False),), self._path_str(s),
                self._config_str(), None))
            diagnostics.append(
                f"pc {pc}: unsupported symbolic indirect target")
            self._emit(s, Event("icall", pc, False, True,
                                target.taint.secret), None, ctx)
            return "end"
        actual = target.value
        if actual >= len(self.program.instructions):
            findings.append(Finding(
                "error", None, ((pc, "icall", False),), self._path_str(s),
                self._config_str(), None))
            diagnostics.append(f"pc {pc}: icall target {actual} out of range")
            return "end"
        self._emit(s, Event("icall", pc, False, False,
                            target.taint.secret), None, ctx)
        if not baseline:
            pred = s.predictor.predict_target(pc)
            if (pred is not None and pred != actual
                    and not self.no_speculation
                    and self.predictor_cfg.window > 0):
                shadow = s.predictor.clone()
                self._run_speculative(s, pred, shadow, (pc, pred), ctx,
                                      push_return=pc + 1)
            s.predictor.update(pc, True, actual, conditional=False)
            stats.predictor_updates += 1
        s.ret_stack.append(pc + 1)
        s.pc = actual
        return "run"

    # ----------------------------------------------------------- speculation

    def _run_speculative(self, s: ExecState, start_pc: int,
                         shadow: Optional[PredictorState],
                         identity_tail: Tuple[int, int], ctx,
                         push_return: Optional[int] = None) -> None:
        """Run one wrong-path trace of at most `window` instructions.

        `shadow` is the speculative predictor copy (None in baseline mode,
        where inner branches simply fall through).  Cache and monitor
        effects persist on `s`; everything architectural is untouched.
        """
        stats, findings, seen, diagnostics, unknown, baseline = ctx
        before = s.fingerprint() if self.check_rollback else None
        stats.spec_traces += 1
        stats.trace_identities.append(
            (tuple(s.path_key),) + identity_tail)

        box = _Sandbox(s, start_pc, shadow, self.predictor_cfg.window)
        if push_return is not None:
            box.ret_stack.append(push_return)
        prog = self.program

        while box.remaining > 0 and 0 <= box.pc < len(prog.instructions):
            inst = prog.instructions[box.pc]
            op = inst.opcode
            box.remaining -= 1
            stats.spec_instructions += 1

            if op == "halt":
                self._emit(s, self._plain_event_spec(box.pc, inst), None, ctx)
                break
            if op == "ret":
                self._emit(s, self._plain_event_spec(box.pc, inst), None, ctx)
                if not box.ret_stack:
                    break
                box.pc = box.ret_stack.pop()
                continue
            if op == "jmp":
                self._emit(s, self._plain_event_spec(box.pc, inst), None, ctx)
                box.pc = prog.labels[inst.operands[0].name]
                continue
            if op == "call":
                self._emit(s, self._plain_event_spec(box.pc, inst), None, ctx)
                box.ret_stack.append(box.pc + 1)
                box.pc = prog.labels[inst.operands[0].name]
                continue
            if op == "br":
                cond = ex.coerce(self._operand_value(inst.operands[0], box.regs), 32)
                t_pc = prog.labels[inst.operands[1].name]
                f_pc = prog.labels[inst.operands[2].name]
                self._emit(s, Event("br", box.pc, True, cond.taint.symbolic,
                                    cond.taint.secret), None, ctx)
                if box.shadow is None:  # baseline: history-agnostic fall-through
                    box.pc = f_pc
                    continue
                # no forking, no path constraints: follow the shadow prediction
                taken, nxt = box.shadow.predict_conditional(box.pc, t_pc, f_pc)
                box.shadow.spec_note_direction(taken)
                box.pc = nxt
                continue
            if op == "icall":
                tgt = self._operand_value(inst.operands[0], box.regs)
                self._emit(s, Event("icall", box.pc, True, tgt.taint.symbolic,
                                    tgt.taint.secret), None, ctx)
                if box.shadow is not None:
                    pred = box.shadow.predict_target(box.pc)
                elif isinstance(tgt, ex.Const):
                    pred = tgt.value
                else:
                    pred = None
                if pred is None or pred >= len(prog.instructions):
                    break  # no usable target: the trace stalls out
                box.ret_stack.append(box.pc + 1)
                box.pc = pred
                continue

            event, obs, err = self._exec_data_inst(
                inst, box.regs, box.mem, s.path_cond, True, box.pc, ctx)
            self._emit(s, event, obs, ctx)
            if err is not None:
                break
            box.pc += 1

        if self.check_rollback:
            after = s.fingerprint()
            if before != after:
                raise EngineError("speculation leaked into architectural state")

    # -------------------------------------------------------- data movement

    def _exec_data_inst(self, inst: Instruction, regs: Dict[str, ex.Expr],
                        mem: Dict[int, ex.Expr], path_cond: List[ex.Expr],
                        speculative: bool, pc: int, ctx):
        """Execute const/sym/addrof/binop/load/store against the given
        register file and memory.  Returns (event, cache_obs, error)."""
        stats, findings, seen, diagnostics, unknown, baseline = ctx
        op = inst.opcode
        obs: Optional[CacheObservation] = None

        if op == "const":
            rd, imm = inst.operands
            regs[rd.name] = ex.const(imm.value, inst.width)
            return Event(op, pc, speculative, False, False), None, None

        if op == "sym":
            rd = inst.operands[0]
            name = inst.operands[1]
            secret = len(inst.operands) > 2
            known = self._symbols.get(name)
            if known is not None and (known.width != inst.width
                                      or known.taint.secret != secret):
                return (Event(op, pc, speculative, True, secret), None,
                        f"symbol {name!r} redeclared with different shape")
            value = known if known is not None else ex.sym(name, inst.width, secret)
            self._symbols[name] = value
            regs[rd.name] = value
            return Event(op, pc, speculative, True, secret), None, None

        if op == "addrof":
            rd, name = inst.operands
            if name in self.program.labels:
                value = self.program.labels[name]
            else:
                value = self.program.region(name).base
            regs[rd.name] = ex.const(value, 32)
            return Event(op, pc, speculative, False, False), None, None

        if op in BINOP_OPCODES:
            rd, a_op, b_op = inst.operands
            a = ex.coerce(self._operand_value(a_op, regs), inst.width)
            b = ex.coerce(self._operand_value(b_op, regs), inst.width)
            result = ex.mk_binop(op, a, b)
            regs[rd.name] = result
            taint = a.taint.join(b.taint)
            return Event(op, pc, speculative, taint.symbolic, taint.secret), None, None

        if op == "load":
            rd, addr_op = inst.operands
            addr = ex.coerce(self._operand_value(addr_op, regs), 32)
            value, info = self._do_load(addr, inst.width, mem, path_cond,
                                        pc, speculative, ctx)
            regs[rd.name] = value
            taint = addr.taint.join(value.taint)
            obs = self._cache_route(addr, info, path_cond, ctx)
            return (Event(op, pc, speculative, taint.symbolic, taint.secret,
                          mem=info), obs, None)

        if op == "store":
            addr_op, val_op = inst.operands
            addr = ex.coerce(self._operand_value(addr_op, regs), 32)
            value = ex.coerce(self._operand_value(val_op, regs), inst.width)
            info = self._do_store(addr, value, inst.width, mem, diagnostics, pc)
            taint = addr.taint.join(value.taint)
            obs = self._cache_route(addr, info, path_cond, ctx)
            return (Event(op, pc, speculative, taint.symbolic, taint.secret,
                          mem=info), obs, None)

        raise EngineError(f"unhandled opcode {op!r}")

    def _do_load(self, addr: ex.Expr, width: int, mem: Dict[int, ex.Expr],
                 path_cond, pc: int, speculative: bool, ctx):
        stats, findings, seen, diagnostics, unknown, baseline = ctx
        if isinstance(addr, ex.Const):
            base = addr.value
            if self.program.region_at(base) is None:
                diagnostics.append(f"pc {pc}: load from unmapped address {base:#x}")
            value: ex.Expr = ex.const(0, width)
            parts = []
            for i in range(width // 8):
                parts.append(mem.get(base + i, ex.const(0, 8)))
            if width == 8:
                value = parts[0]
            else:
                value = ex.coerce(parts[0], 32)
                for i, byte in enumerate(parts[1:], start=1):
                    value = ex.mk_binop(
                        "or", value,
                        ex.mk_binop("shl", ex.coerce(byte, 32),
                                    ex.const(8 * i, 32)))
            line = (base // self.cache_cfg.line_size)
            info = MemoryInfo(addr, base, line, write=False)
            return value, info
        # symbolic address: freeze the memory snapshot it reads from
        version = self._freeze(mem, speculative)
        secret = self._may_touch_secret(addr, path_cond, ctx)
        value = ex.mk_memread(version, addr, width, secret)
        return value, MemoryInfo(addr, None, None, write=False)

    def _do_store(self, addr: ex.Expr, value: ex.Expr, width: int,
                  mem: Dict[int, ex.Expr], diagnostics, pc: int):
        if not isinstance(addr, ex.Const):
            diagnostics.append(f"pc {pc}: symbolic store address unsupported; "
                               "store skipped")
            return MemoryInfo(addr, None, None, write=True)
        base = addr.value
        if self.program.region_at(base) is None:
            diagnostics.append(f"pc {pc}: store to unmapped address {base:#x}")
        if width == 8:
            mem[base] = ex.coerce(value, 8)
        else:
            for i in range(4):
                mem[base + i] = ex.coerce(
                    ex.mk_binop("lshr", value, ex.const(8 * i, 32)), 8)
        line = base // self.cache_cfg.line_size
        return MemoryInfo(addr, base, line, write=True)

    def _may_touch_secret(self, addr: ex.Expr, path_cond, ctx) -> bool:
        """May-analysis lift of the load taint rule: a symbolic address is
        secret-reaching if some model consistent with the path condition
        lands it in a secret region."""
        stats, findings, seen, diagnostics, unknown, baseline = ctx
        if addr.taint.secret:
            return True
        for region in self.program.regions:
            if not region.secret:
                continue
            lo = ex.mk_binop("le", ex.const(region.base, 32), addr)
            hi = ex.mk_binop("lt", addr, ex.const(region.end, 32))
            stats.solver_queries += 1
            try:
                m = solver.is_sat(solver.Query(
                    tuple(path_cond) + (lo, hi), self.bit_budget,
                    self.snapshots, self._solver_memo))
            except solver.BudgetExceeded:
                self._overrun(ctx)
                return True  # conservative
            if m is not None:
                return True
        return False

    def _freeze(self, mem: Dict[int, ex.Expr], speculative: bool = False) -> int:
        if speculative:
            version = self._next_spec_version
            self._next_spec_version -= 1
        else:
            version = self._next_version
            self._next_version += 1
        snap = dict(self._initial_memory())
        snap.update(mem)
        self.snapshots[version] = snap
        return version

    def _initial_memory(self) -> Dict[int, ex.Expr]:
        """Region-declared contents; secret regions without init are fresh
        secret symbols, one per byte."""
        cached = getattr(self, "_init_mem", None)
        if cached is not None:
            return cached
        init: Dict[int, ex.Expr] = {}
        for region in self.program.regions:
            if region.init is None and not region.secret:
                continue  # uninitialised public bytes read as zero
            for i in range(region.size):
                if region.init is not None and i < len(region.init):
                    init[region.base + i] = ex.const(region.init[i], 8)
                elif region.secret:
                    name = f"{region.name}[{i}]"
                    s = self._symbols.get(name)
                    if s is None:
                        s = ex.sym(name, 8, secret=True)
                        self._symbols[name] = s
                    init[region.base + i] = s
        self._init_mem = init
        return init

    # --------------------------------------------------------------- events

    def _cache_route(self, addr: ex.Expr, info: MemoryInfo, path_cond,
                     ctx) -> CacheObservation:
        stats, findings, seen, diagnostics, unknown, baseline = ctx
        hit = None
        leak: Optional[LeakResult] = None
        if addr.taint.secret and self._needs_cache_check:
            stats.solver_queries += 1  # one leak-pair search
            leak = cache_mod.leak_check(addr, path_cond, self.snapshots,
                                        self.cache_cfg, self.bit_budget,
                                        self._solver_memo)
            if leak.status == "unknown":
                self._overrun(ctx)
        return CacheObservation(leak=leak, hit=hit)

    def _emit(self, s: ExecState, event: Event,
              obs: Optional[CacheObservation], ctx) -> None:
        stats, findings, seen, diagnostics, unknown, baseline = ctx
        if event.mem is not None and event.mem.concrete is not None:
            result = s.cache.access(event.mem.concrete)
            obs = CacheObservation(leak=obs.leak if obs else None,
                                   hit=result.hit)
        s.event_log.append((event, obs or CacheObservation()))
        for m in s.monitors:
            for match in m.observe(event, obs):
                self._record_match(s, match, obs, ctx)

    def _record_match(self, s: ExecState, match, obs, ctx) -> None:
        stats, findings, seen, diagnostics, unknown, baseline = ctx
        key = (match.pattern, match.chain, tuple(s.path_key))
        if key in seen:
            return
        seen.add(key)
        witness = None
        observable = None
        kind = "leak"
        if obs is not None and obs.leak is not None and obs.leak.positive:
            witness = obs.leak.witness
            observable = obs.leak.observable
        else:
            stats.solver_queries += 1
            try:
                witness = solver.is_sat(solver.Query(
                    tuple(s.path_cond), self.bit_budget, self.snapshots,
                    self._solver_memo))
            except solver.BudgetExceeded:
                self._overrun(ctx)
                kind = "unknown"
        findings.append(Finding(kind, match.pattern, match.chain,
                                self._path_str(s), self._config_str(),
                                witness, event_log=tuple(s.event_log),
                                observable=observable,
                                constraints=tuple(s.path_cond)))

    # -------------------------------------------------------------- helpers

    @staticmethod
    def _overrun(ctx) -> None:
        """A solver query exceeded the bit budget: count it, and the
        verdict can no longer be leakage-free."""
        stats, findings, seen, diagnostics, unknown, baseline = ctx
        stats.budget_exceeded += 1
        unknown[0] = True

    def _operand_value(self, operand, regs: Dict[str, ex.Expr]) -> ex.Expr:
        if isinstance(operand, Imm):
            return ex.const(operand.value, 32)
        if isinstance(operand, Reg):
            value = regs.get(operand.name)
            if value is None:
                raise EngineError(f"read of unset register {operand.name!r}")
            return value
        raise EngineError(f"bad operand {operand!r}")

    def _plain_event(self, s: ExecState, inst: Instruction,
                     speculative: bool) -> Event:
        return Event(inst.opcode, s.pc, speculative, False, False)

    def _plain_event_spec(self, pc: int, inst: Instruction) -> Event:
        return Event(inst.opcode, pc, True, False, False)

    def _path_str(self, s: ExecState) -> str:
        return " & ".join(ex.to_str(c) for c in s.path_cond) or "true"

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


def explore(program: Program, predictor_cfg=None, cache_cfg=None,
            patterns=(), **kwargs) -> RunResult:
    """Prediction-aware exploration of all satisfiable architectural paths."""
    return Engine(program, predictor_cfg, cache_cfg, patterns, **kwargs).run()


def explore_baseline(program: Program, predictor_cfg=None, cache_cfg=None,
                     patterns=(), **kwargs) -> RunResult:
    """History-agnostic baseline: every conditional branch mispredicts."""
    return Engine(program, predictor_cfg, cache_cfg, patterns,
                  **kwargs).run(baseline=True)

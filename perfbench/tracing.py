"""Per-layer spans and work counters, recorded from outside the program.

`Tracer.installed()` wraps the public entry points of the `sir`, `solver`,
`cache`, `predictor`, `monitor` and `engine` modules of an imported
`specsim` package and puts the originals back on exit; nothing under `src/`
is changed.  A wrapped call that takes time opens a span (name, start, end,
parent, analysis id) on a stack, so a layer's self time is its span's
duration minus the time of the spans it caused.  The other wrappers only
count.

`is_sat` calls are attributed to branch feasibility, may-touch-secret or
witness search by the name of the engine function that made them.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

# engine function that calls is_sat -> solver metric prefix
IS_SAT_CALLERS = {
    "_fork_on_branch": "solver.branch_sat",
    "_may_touch_secret": "solver.may_touch",
    "_record_match": "solver.witness",
}

# name, unit: every per-layer metric the traced run reports
METRICS: Tuple[Tuple[str, str], ...] = (
    ("sir.parse_s", "s"), ("sir.layout_s", "s"), ("sir.instructions", "count"),
    ("solver.branch_sat_s", "s"), ("solver.branch_sat_calls", "count"),
    ("solver.may_touch_s", "s"), ("solver.may_touch_calls", "count"),
    ("solver.witness_s", "s"), ("solver.witness_calls", "count"),
    ("solver.evaluations", "count"), ("solver.query_bits_max", "bits"),
    ("solver.budget_exceeded", "count"), ("solver.sat_ratio", "fraction"),
    ("cache.leak_check_s", "s"), ("cache.leak_check_calls", "count"),
    ("cache.leak_pair_s", "s"), ("cache.leaks_found", "count"),
    ("cache.accesses", "count"),
    ("predictor.clone_s", "s"), ("predictor.clones", "count"),
    ("predictor.lookups", "count"), ("predictor.updates", "count"),
    ("monitor.observe_s", "s"), ("monitor.observes", "count"),
    ("monitor.tokens_peak", "count"),
    ("engine.self_s", "s"), ("engine.fingerprint_s", "s"),
    ("engine.fingerprints", "count"), ("engine.clone_s", "s"),
    ("engine.states_cloned", "count"), ("engine.paths", "count"),
    ("engine.spec_traces", "count"), ("engine.spec_instructions", "count"),
    ("engine.event_log_peak", "count"),
    ("trace.overhead_ratio", "ratio"),
)

# span name -> (self-time metric, call-count metric)
_SPAN_METRICS = {
    "sir.parse": ("sir.parse_s", None),
    "sir.layout": ("sir.layout_s", None),
    "solver.branch_sat": ("solver.branch_sat_s", "solver.branch_sat_calls"),
    "solver.may_touch": ("solver.may_touch_s", "solver.may_touch_calls"),
    "solver.witness": ("solver.witness_s", "solver.witness_calls"),
    "cache.leak_check": ("cache.leak_check_s", "cache.leak_check_calls"),
    "cache.leak_pair": ("cache.leak_pair_s", None),
    "predictor.clone": ("predictor.clone_s", "predictor.clones"),
    "monitor.observe": ("monitor.observe_s", "monitor.observes"),
    "engine.run": ("engine.self_s", None),
    "engine.fingerprint": ("engine.fingerprint_s", "engine.fingerprints"),
    "engine.clone": ("engine.clone_s", "engine.states_cloned"),
}


class Tracer:
    def __init__(self, specsim):
        self.specsim = specsim
        self.keep_spans = False
        self.spans: List[tuple] = []
        self.unattributed: Dict[str, int] = defaultdict(int)
        self._analysis = 0
        self._next_span = 1
        self._stack: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.peaks: Dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        """Start a new tally of counters and self times."""
        self.counts.clear()
        self.self_s.clear()
        self.peaks.clear()

    # ------------------------------------------------------------ spans

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [self._next_span, 0.0]  # span id, time covered by children
        self._next_span += 1
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            self.self_s[name] += dur - frame[1]
            self.counts[name] += 1
            if parent is not None:
                parent[1] += dur
            if self.keep_spans:
                self.spans.append((self._analysis, frame[0],
                                   parent[0] if parent else 0, name, t0, t1))

    def analysis(self, fn, *args):
        """Root span of one analysis; its spans share one analysis id."""
        self._analysis += 1
        return self.call("analysis", fn, *args)

    def write_spans(self, path) -> int:
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for aid, sid, pid, name, t0, t1 in self.spans:
                f.write(json.dumps({"analysis": aid, "id": sid, "parent": pid,
                                    "name": name, "start": t0, "end": t1}))
                f.write("\n")
        return len(self.spans)

    # ---------------------------------------------------------- metrics

    def counters(self) -> Dict[str, float]:
        """Work counts of the current tally (deterministic for fixed inputs)."""
        c, p = self.counts, self.peaks
        out = {m: c[span] for span, (_t, m) in _SPAN_METRICS.items() if m}
        sat_calls = c["solver.sat_answers"] + c["solver.unsat_answers"]
        out.update({
            "sir.instructions": c["sir.instructions"],
            "solver.evaluations": c["solver.evaluations"],
            "solver.query_bits_max": p["solver.query_bits"],
            "solver.budget_exceeded": c["solver.budget_exceeded"],
            "solver.sat_ratio": (c["solver.sat_answers"] / sat_calls
                                 if sat_calls else 0.0),
            "cache.leaks_found": c["cache.leaks_found"],
            "cache.accesses": c["cache.accesses"],
            "predictor.lookups": c["predictor.lookups"],
            "predictor.updates": c["predictor.updates"],
            "monitor.tokens_peak": p["monitor.tokens"],
            "engine.paths": c["engine.paths"],
            "engine.spec_traces": c["engine.spec_traces"],
            "engine.spec_instructions": c["engine.spec_instructions"],
            "engine.event_log_peak": p["engine.event_log"],
        })
        return out

    def times(self) -> Dict[str, float]:
        return {t: self.self_s[span] for span, (t, _c) in _SPAN_METRICS.items()}

    # -------------------------------------------------------- wrappers

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer entry points for the duration of the block."""
        s = self.specsim
        patches = self._wrappers(s)
        originals = [(owner, attr, getattr(owner, attr))
                     for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def _wrappers(self, s):
        call, counts, peaks = self.call, self.counts, self.peaks
        syms = s.expr.syntactic_syms
        budget_exceeded = s.solver.BudgetExceeded
        sir, solver, cache = s.sir, s.solver, s.cache
        parse, layout = sir.parse_program, sir.layout_regions
        is_sat, leak_pair = solver.is_sat, cache.find_leak_pair
        evaluate, leak_check = solver.evaluate, cache.leak_check
        access = cache.CacheState.access
        Pred, Mon = s.predictor.PredictorState, s.monitor.MonitorInstance
        pclone, pcond, ptarget, pupdate = (Pred.clone, Pred.predict_conditional,
                                           Pred.predict_target, Pred.update)
        observe = Mon.observe
        Engine, ExecState = s.engine.Engine, s.engine.ExecState
        run, sclone, fingerprint = Engine.run, ExecState.clone, ExecState.fingerprint
        unattributed = self.unattributed

        def bits(exprs):
            n = sum(v.width for v in syms(exprs).values())
            if n > peaks["solver.query_bits"]:
                peaks["solver.query_bits"] = n

        def solve(name, fn, *args):
            try:
                return call(name, fn, *args)
            except budget_exceeded:
                counts["solver.budget_exceeded"] += 1
                raise

        def w_parse(text, *a, **k):
            prog = call("sir.parse", parse, text, *a, **k)
            counts["sir.instructions"] += len(prog.instructions)
            return prog

        def w_layout(program, *a, **k):
            return call("sir.layout", layout, program, *a, **k)

        def w_is_sat(q):
            name = _is_sat_caller(sys._getframe(1), unattributed)
            bits(q.constraints)
            model = solve(name, is_sat, q)
            counts["solver.sat_answers" if model is not None
                   else "solver.unsat_answers"] += 1
            return model

        def w_leak_pair(q, observable):
            bits(tuple(q.constraints) + (observable,))
            return solve("cache.leak_pair", leak_pair, q, observable)

        def w_evaluate(*a, **k):
            counts["solver.evaluations"] += 1
            return evaluate(*a, **k)

        def w_leak_check(*a, **k):
            result = call("cache.leak_check", leak_check, *a, **k)
            if result.status == "leak":
                counts["cache.leaks_found"] += 1
            return result

        def w_access(self_, addr):
            counts["cache.accesses"] += 1
            return access(self_, addr)

        def w_pclone(self_):
            return call("predictor.clone", pclone, self_)

        def w_pcond(self_, *a, **k):
            counts["predictor.lookups"] += 1
            return pcond(self_, *a, **k)

        def w_ptarget(self_, *a, **k):
            counts["predictor.lookups"] += 1
            return ptarget(self_, *a, **k)

        def w_pupdate(self_, *a, **k):
            counts["predictor.updates"] += 1
            return pupdate(self_, *a, **k)

        def w_observe(self_, *a, **k):
            matches = call("monitor.observe", observe, self_, *a, **k)
            live = sum(len(node) for node in self_.node_tokens)
            if live > peaks["monitor.tokens"]:
                peaks["monitor.tokens"] = live
            return matches

        def w_run(self_, *a, **k):
            result = call("engine.run", run, self_, *a, **k)
            st = result.stats
            counts["engine.paths"] += st.paths
            counts["engine.spec_traces"] += st.spec_traces
            counts["engine.spec_instructions"] += st.spec_instructions
            return result

        def w_sclone(self_):
            return call("engine.clone", sclone, self_)

        def w_fingerprint(self_):
            n = len(self_.event_log)
            if n > peaks["engine.event_log"]:
                peaks["engine.event_log"] = n
            return call("engine.fingerprint", fingerprint, self_)

        return [
            (sir, "parse_program", w_parse), (sir, "layout_regions", w_layout),
            (solver, "is_sat", w_is_sat), (cache, "find_leak_pair", w_leak_pair),
            (solver, "evaluate", w_evaluate), (cache, "leak_check", w_leak_check),
            (cache.CacheState, "access", w_access),
            (Pred, "clone", w_pclone), (Pred, "predict_conditional", w_pcond),
            (Pred, "predict_target", w_ptarget), (Pred, "update", w_pupdate),
            (Mon, "observe", w_observe),
            (Engine, "run", w_run), (ExecState, "clone", w_sclone),
            (ExecState, "fingerprint", w_fingerprint),
        ]


def _is_sat_caller(frame, unattributed) -> str:
    """Solver metric prefix for an is_sat call, from its calling function.

    An unknown caller (an engine function renamed or added) is counted as
    branch feasibility and reported by name in `unattributed`."""
    name = frame.f_code.co_name
    prefix = IS_SAT_CALLERS.get(name)
    if prefix is None:
        unattributed[name] += 1
        prefix = "solver.branch_sat"
    return prefix

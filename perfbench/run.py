"""Benchmark of the specsim library API.

    python3 perfbench/run.py --workload {litmus,chain,loop,all} --seed N \\
        --seconds S --trace {0,1}

One closed-loop client: one process, no threads, and each analysis starts
only after the previous one returns.  An analysis is a fresh `Engine` plus
`.run()` for one program, predictor configuration and mode, with the three
shipped patterns, which is what the CLI does for one mode.  Every result is
checked against the answer key in workloads.py.

Each workload runs in its own fresh process (`all` starts one per
workload).  A run first keeps the host busy with untimed analyses for
WARMUP_S seconds, to get past the faster phase a host shows after idling,
then runs whole shuffled passes over the workload's analyses for about S
seconds:

  --trace 0  times every analysis (gc.collect() first; the collector stays
             on) and prints the end-to-end metrics.  Set-up time is timed
             in SETUP_PROBES fresh interpreters spread over the same
             seconds, so it sees the same host as the analyses;
  --trace 1  alternates untraced and traced passes and prints the per-layer
             metrics of tracing.py, including the tracing overhead.

The host's speed drifts by a quarter and more over tens of seconds, which
is as long as a run, so wall times of the same code spread past any useful
bound from run to run.  A HostGauge therefore times an integer-only
reference kernel BRACKET times right before and right after every analysis
and set-up probe, and every SAMPLE_EVERY_S during it from a SIGALRM
handler whose time is taken out of the analysis's wall time.  The gated
times are host-scaled: each wall time times REF_NOMINAL_S over the median
of its kernel times, i.e. the seconds it would take on a host where the
kernel takes REF_NOMINAL_S.  A faster program lowers them exactly as it
lowers wall time; a slower host does not raise them.  latency_p50_s is the
median over the workload's analyses of each one's median over the passes,
as pooled samples of a few very different analyses put the median in the
gap between them.  The report lines print every metric with its unit and
sample count, including some that are not gated: latency_p90_s (runs of at
least 100 analyses), error_share (every mismatch with the answer key is
listed by input), the unscaled wall_latency_p50_s, wall_analyses_per_s and
wall_setup_s, and host_ref_s, the kernel's median.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  A full report, and for --trace 1
the spans of the first traced pass, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads as wls
from tracing import METRICS as LAYER_METRICS
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

WARMUP_S = 4.0
REF_LOOPS = 2_000
REF_NOMINAL_S = 0.00025  # REF_LOOPS kernel time of a 2-vCPU x86-64 VM, CPython 3.11
BRACKET = 5
SAMPLE_EVERY_S = 0.02
SETUP_PROBES = 21
CHILD_TIMEOUT_S = 900


def import_specsim():
    """Import the specsim sources of this checkout, and nothing else."""
    src = ROOT / "src"
    if not (src / "specsim" / "__init__.py").is_file() \
            or not (ROOT / "fixtures" / "patterns").is_dir():
        sys.exit(f"perfbench: {ROOT} has no src/specsim or fixtures/patterns")
    sys.path.insert(0, str(src))
    import specsim
    if Path(specsim.__file__).resolve().parent != (src / "specsim").resolve():
        sys.exit(f"perfbench: imported specsim from {specsim.__file__}, "
                 f"not from {src}")
    return specsim


# ------------------------------------------------------------- analyses

class Runner:
    """Builds one fresh Engine per analysis from the parsed inputs."""

    def __init__(self, specsim, wl: wls.Workload, pattern_paths):
        self.specsim = specsim
        self.patterns = [specsim.load_pattern_file(str(p)) for p in pattern_paths]
        self.programs = self.load_programs(wl)
        self.configs = {a.config: self._config(a.config) for a in wl.analyses}

    def load_programs(self, wl: wls.Workload):
        sir = self.specsim.sir  # module attributes, so tracing can wrap them
        return {name: sir.layout_regions(sir.parse_program(text))
                for name, text in wl.programs.items()}

    def _config(self, name: str):
        spec = wls.CONFIGS[name]
        if isinstance(spec, str):
            return self.specsim.preset(spec)
        return self.specsim.PredictorConfig(**spec)

    def run(self, a: wls.Analysis):
        engine = self.specsim.engine.Engine(
            self.programs[a.program], self.configs[a.config],
            patterns=self.patterns)
        return engine.run(baseline=a.mode == wls.BL)


class Tally:
    """Outcomes of analyses, checked against the answer key."""

    def __init__(self):
        self.latencies = []  # wall seconds
        self.scaled = []     # host-scaled seconds
        self.refs = []       # median reference kernel seconds per analysis
        self.by_label = defaultdict(list)  # analysis label -> sample indices
        self.complete = 0
        self.hits = 0
        self.key_sites = 0
        self.failed = 0
        self.errors = defaultdict(set)  # analysis label -> messages

    @property
    def n(self) -> int:
        return len(self.latencies)

    def p50(self, samples) -> float:
        """Median over the analyses of each analysis's median sample."""
        return statistics.median(
            statistics.median(samples[i] for i in idx)
            for idx in self.by_label.values())

    def add(self, a: wls.Analysis, result, exc, seconds: float,
            ref: float) -> None:
        self.latencies.append(seconds)
        self.scaled.append(seconds * REF_NOMINAL_S / ref)
        self.refs.append(ref)
        self.by_label[a.label].append(self.n - 1)
        self.key_sites += len(a.sites)
        if exc is not None:
            self._fail(a, f"raised {type(exc).__name__}: {exc}")
            return
        reported = {f.chain[-1][0] for f in result.findings if f.kind == "leak"}
        self.hits += len(reported & a.sites)
        if reported - a.sites:
            self._fail(a, f"reported leak site(s) {sorted(reported - a.sites)} "
                          f"not in the key {sorted(a.sites)}")
        elif a.sites and result.verdict == "leakage-free":
            self._fail(a, f"leakage-free, key has leak site(s) {sorted(a.sites)}")
        if not result.unknown and not any(f.kind in ("unknown", "error")
                                          for f in result.findings):
            self.complete += 1

    def _fail(self, a: wls.Analysis, message: str) -> None:
        self.failed += 1
        self.errors[a.label].add(f"{message} (key: {a.reason})")


def analyse(run, a: wls.Analysis, tally: Tally) -> float:
    """Time one analysis; returns its host-scaled seconds."""
    gc.collect()
    result, exc, seconds, ref = GAUGE.time(lambda: run(a))
    tally.add(a, result, exc, seconds, ref)
    return tally.scaled[-1]


def reference_kernel() -> float:
    """Seconds for a fixed integer-only loop that allocates no GC-tracked
    objects: a measure of the host, not of the program."""
    t0 = perf_counter()
    x = 1
    for _ in range(REF_LOOPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return perf_counter() - t0


class HostGauge:
    """Measures the host's speed around and during a timed call."""

    def __init__(self):
        self.samples = []   # kernel seconds of the current call
        self.paused = 0.0   # seconds the handler took from the current call
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(reference_kernel())
        self.paused += perf_counter() - t0

    def time(self, call, during: bool = True):
        """Returns the call's result, the exception it raised or None, its
        wall seconds without the handler's, and the median kernel time.
        during=False samples only around the call, for a call that waits
        on a child process: sampling then would compete with the child."""
        self.samples = [reference_kernel() for _ in range(BRACKET)]
        self.paused = 0.0
        t0 = perf_counter()
        if during:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            result, exc = call(), None
        except Exception as e:  # an analysis that raises is a failed analysis
            result, exc = None, e
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - t0 - self.paused
        self.samples += [reference_kernel() for _ in range(BRACKET)]
        return result, exc, seconds, statistics.median(self.samples)


GAUGE = HostGauge()


def one_pass(wl: wls.Workload, run, rng: random.Random, tally: Tally,
             between=None) -> float:
    """Every analysis of the workload once, in a seeded shuffled order,
    calling between() after each.  Returns the summed host-scaled analysis
    time."""
    order = list(wl.analyses)
    rng.shuffle(order)
    total = 0.0
    for a in order:
        total += analyse(run, a, tally)
        if between is not None:
            between()
    return total


def warm_up(wl: wls.Workload, run, rng: random.Random, tally: Tally) -> None:
    start = perf_counter()
    while True:
        order = list(wl.analyses)
        rng.shuffle(order)
        for a in order:
            analyse(run, a, tally)
            if perf_counter() - start >= WARMUP_S:
                return


def passes_for(seconds: float, body) -> int:
    """Call body() for whole passes while the next one is expected to end
    within `seconds`; at least once."""
    start = perf_counter()
    done = 0
    while True:
        body()
        done += 1
        elapsed = perf_counter() - start
        if elapsed * (done + 1) / done > seconds:
            return done


# --------------------------------------------------------------- set-up

class SetupProbe:
    """Set-up time of the workload's inputs in fresh interpreters: import
    specsim, parse and lay out every program, load every pattern."""

    def __init__(self, wl: wls.Workload, pattern_paths, instructions: int):
        self.payload = "\n".join(map(str, pattern_paths)) + "\f" + "\f".join(
            wl.programs[name] for name in sorted(wl.programs))
        self.cmd = [sys.executable, "-I", "-S",
                    str(ROOT / "perfbench" / "setup_probe.py"), str(ROOT / "src")]
        self.instructions = instructions
        self.samples = []       # host-scaled seconds
        self.wall_samples = []  # wall seconds
        self.probe()  # the first interpreter may compile bytecode
        self.samples.clear()
        self.wall_samples.clear()

    def probe(self) -> None:
        proc, exc, _, ref = GAUGE.time(lambda: subprocess.run(
            self.cmd, input=self.payload, capture_output=True, text=True,
            timeout=120, check=True), during=False)
        if exc is not None:
            raise exc
        out = proc.stdout.split()
        if int(out[1]) != self.instructions:
            raise RuntimeError(f"set-up probe parsed {out[1]} instructions, "
                               f"expected {self.instructions}")
        seconds = float(out[0])
        self.wall_samples.append(seconds)
        self.samples.append(seconds * REF_NOMINAL_S / ref)

    def keep_pace(self, share: float) -> None:
        """Probe until `share` of SETUP_PROBES samples are taken, so the
        samples spread over the whole timed phase like the analyses do."""
        while len(self.samples) < SETUP_PROBES * min(share, 1.0):
            self.probe()


# ---------------------------------------------------------------- phases

@dataclass
class Phase:
    tally: Tally
    passes: int
    metrics: dict  # name -> (value, unit, sample count): the gated metrics
    extra: dict    # same shape: printed and saved, not gated
    steady: bool = True
    notes: list = field(default_factory=list)


def timed_phase(wl, runner, rng, seconds, setup: SetupProbe):
    tally = Tally()
    start = perf_counter()

    def between():
        setup.keep_pace((perf_counter() - start) / seconds)

    passes = passes_for(seconds, lambda: one_pass(wl, runner.run, rng, tally, between))
    setup.keep_pace(1.0)
    lat, wall = tally.scaled, tally.latencies
    n = tally.n
    metrics = {
        "analyses_per_s": (n / sum(lat), "1/s", n),
        "latency_p50_s": (tally.p50(lat), "s", n),
        "complete_share": (tally.complete / n, "fraction", n),
        "gadget_recall": (tally.hits / tally.key_sites, "fraction",
                          tally.key_sites),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB", 1),
    }
    extra = {"error_share": (tally.failed / n, "fraction", n),
             "wall_latency_p50_s": (tally.p50(wall), "s", n),
             "wall_analyses_per_s": (n / sum(wall), "1/s", n),
             "host_ref_s": (statistics.median(tally.refs), "s",
                            len(tally.refs))}
    metrics["setup_s"] = (statistics.median(setup.samples), "s",
                          len(setup.samples))
    extra["wall_setup_s"] = (statistics.median(setup.wall_samples), "s",
                             len(setup.wall_samples))
    if n >= 100:  # a percentile needs ten samples beyond it
        extra["latency_p90_s"] = (statistics.quantiles(lat, n=10)[8], "s", n)
    return Phase(tally, passes, metrics, extra)


def traced_phase(specsim, wl, runner, rng, seconds):
    """Alternate untraced and traced passes; counters must repeat exactly.
    The gauge's samples during an analysis, about 1.5% of its time, count
    as self time of whichever span is open."""
    tracer = Tracer(specsim)
    with tracer.installed():
        runner.load_programs(wl)
    setup_counts = tracer.counters()
    setup_times = tracer.times()
    tracer.reset()

    tally = Tally()
    untraced, traced, times, counters = [], [], [], []

    def traced_run(a):
        return tracer.analysis(runner.run, a)

    def pair():
        untraced.append(one_pass(wl, runner.run, rng, tally))
        tracer.reset()
        tracer.keep_spans = not traced
        with tracer.installed():
            traced.append(one_pass(wl, traced_run, rng, tally))
        tracer.keep_spans = False
        counters.append(tracer.counters())
        times.append(tracer.times())

    passes = passes_for(seconds, pair)
    steady = all(c == counters[0] for c in counters)
    notes = [] if steady else ["counters differ between traced passes"]
    if tracer.unattributed:
        notes.append("is_sat calls from unknown callers, counted as branch "
                     f"feasibility: {dict(tracer.unattributed)}")

    values = dict(counters[0])
    for name in times[0]:
        values[name] = statistics.fmean(t[name] for t in times)
    for name in ("sir.parse_s", "sir.layout_s"):
        values[name] = setup_times[name]
    values["sir.instructions"] = setup_counts["sir.instructions"]
    values["trace.overhead_ratio"] = (statistics.median(traced)
                                      / statistics.median(untraced) - 1)
    metrics = {name: (values[name], unit, passes) for name, unit in LAYER_METRICS}
    extra = {"host_ref_s": (statistics.median(tally.refs), "s",
                            len(tally.refs))}

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{wl.name}-seed{wl.seed}-spans.jsonl.gz"
    notes.append(f"{tracer.write_spans(path)} spans of the first traced pass "
                 f"in {path.relative_to(ROOT)}")
    return Phase(tally, passes, metrics, extra, steady, notes)


# ---------------------------------------------------------------- report

def run_workload(args) -> int:
    specsim = import_specsim()
    fixtures = ROOT / "fixtures"
    texts = {fx: (fixtures / f"{fx}.sir").read_text(encoding="utf-8")
             for fx in wls.FIXTURES}
    pattern_paths = [fixtures / "patterns" / f"{p}.json" for p in wls.PATTERNS]
    wl = wls.build(args.workload, args.seed, texts)
    runner = Runner(specsim, wl, pattern_paths)
    rng = random.Random(f"order:{wl.name}:{wl.seed}")

    warm = Tally()
    warm_up(wl, runner.run, rng, warm)
    if args.trace:
        setup = None
        phase = traced_phase(specsim, wl, runner, rng, args.seconds)
    else:
        instructions = sum(len(p.instructions) for p in runner.programs.values())
        setup = SetupProbe(wl, pattern_paths, instructions)
        phase = timed_phase(wl, runner, rng, args.seconds, setup)
    tally = phase.tally

    errors = {label: sorted(warm.errors[label] | tally.errors[label])
              for label in sorted({*warm.errors, *tally.errors})}
    correct = phase.steady and not errors
    lines = [
        f"workload {wl.name}: seed {wl.seed}, inputs sha256 {wl.input_hash()}",
        f"  closed loop, 1 client; {len(wl.analyses)} analyses per pass, "
        f"{phase.passes} timed pass(es), {tally.n} timed analyses",
    ]
    for name, (value, unit, n) in {**phase.metrics, **phase.extra}.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:<26} {shown:<14} {unit:<8} n={n}")
    lines.append(f"  failed analyses: {tally.failed} of {tally.n}"
                 + ("" if errors else "; every result matches the answer key"))
    for label, msgs in errors.items():
        lines += [f"    {label}: {m}" for m in msgs]
    lines += [f"  note: {note}" for note in phase.notes]
    print("\n".join(lines))

    report = {
        "workload": wl.name, "seed": wl.seed, "input_sha256": wl.input_hash(),
        "trace": args.trace, "seconds": args.seconds, "passes": phase.passes,
        "correct": correct,
        "attempted": tally.n, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u, "n": n}
                    for k, (v, u, n) in {**phase.metrics, **phase.extra}.items()},
        "errors_by_input": errors, "setup_samples_s": setup and setup.samples,
        "wall_setup_samples_s": setup and setup.wall_samples,
        "notes": phase.notes,
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{wl.name}-seed{wl.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": correct, "attempted": tally.n, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _n) in phase.metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wls.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        *report, last = proc.stdout.strip().splitlines()
        print("\n".join(report))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wls.NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Fingerprint the outputs of every benchmark cell.

For each seed given and each analysis of the benchmark workloads (litmus,
chain, loop), print one line per output component:

    <seed> <workload> <program/config/mode> <component> <sha256>

The components are the verdict, the findings' `to_dict`, the diagnostics,
`unknown`, `repr(Stats)`, the findings' event logs, and their observables
and constraints printed with `expr.to_str`.  Run it in two checkouts and
`diff` the outputs to see which outputs of which cells a change moved:

    python3 tools/cell_outputs.py 101 102 103 > outputs.txt

It imports `specsim` from this checkout's `src/` and loads
`perfbench/workloads.py` by path, read-only; stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_specsim():
    """`specsim` from this checkout's `src/`."""
    sys.path.insert(0, str(ROOT / "src"))
    import specsim
    return specsim


def _load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def cells(specsim, wls, name: str, seed: int) -> list:
    """(label, run) for each analysis of workload `name` at `seed`, where
    `run()` builds a fresh `Engine` over the parsed program with the
    shipped patterns and returns its `run`, as the benchmark does."""
    fixtures = ROOT / "fixtures"
    texts = {fx: (fixtures / f"{fx}.sir").read_text(encoding="utf-8")
             for fx in wls.FIXTURES}
    patterns = [specsim.load_pattern_file(str(fixtures / "patterns"
                                              / f"{p}.json"))
                for p in wls.PATTERNS]
    wl = wls.build(name, seed, texts)
    programs = {n: specsim.layout_regions(specsim.parse_program(t))
                for n, t in wl.programs.items()}
    out = []
    for a in wl.analyses:
        spec = wls.CONFIGS[a.config]
        cfg = (specsim.preset(spec) if isinstance(spec, str)
               else specsim.PredictorConfig(**spec))

        def run(program=programs[a.program], cfg=cfg,
                baseline=a.mode == wls.BL):
            return specsim.Engine(program, cfg, patterns=patterns
                                  ).run(baseline=baseline)
        out.append((a.label, run))
    return out


def _components(result, to_str) -> dict:
    findings = result.findings

    def leak(lr):  # a leak check's answer, its observable left out
        if lr is None:
            return None
        pair = lr.witness and [sorted(m.assignment.items())
                               for m in lr.witness]
        return lr.status, pair, str(lr.error)

    return {
        "verdict": result.verdict,
        "findings": [f.to_dict() for f in findings],
        "diagnostics": result.diagnostics,
        "unknown": result.unknown,
        "stats": repr(result.stats),
        "event_logs": [[(tuple(event), leak(lr)) for event, lr in f.event_log]
                       for f in findings],
        "observables": [f.observable is not None and to_str(f.observable)
                        for f in findings],
        "constraints": [[to_str(c) for c in f.constraints] for f in findings],
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("seeds", type=int, nargs="+")
    args = p.parse_args()

    specsim = import_specsim()
    from specsim.expr import to_str
    wls = _load_workloads()
    for seed in args.seeds:
        for name in wls.NAMES:
            for label, run in cells(specsim, wls, name, seed):
                for part, value in _components(run(), to_str).items():
                    digest = hashlib.sha256(repr(value).encode()).hexdigest()
                    print(seed, name, label, part, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())

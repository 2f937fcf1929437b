"""Time each cell of one benchmark workload in process.

For each analysis of the workload at the seed, print its best warm time
over `--runs` passes, the Python calls that one warm run of it makes
under cProfile, and that run's wrong-path traces, run and replayed; the
last line sums them over the pass:

    <workload> <program/config/mode> <best ms> <calls> <run> <replayed>
    <workload> pass <sum of the best ms> <calls> <run> <replayed>

Warm means after one untimed pass over the same parsed programs, which
fills their solver stores, as in the benchmark's timed passes.  The passes
run the cells in turn, so a drifting host slows every cell alike; the
garbage collector stays on.  cProfile counts each Python function call
and each call of a builtin.  The profiled run counts its replays through a
wrapper on `Engine._replay`, whose own calls are left out of the count:

    python3 tools/pass_times.py loop --seed 101 --runs 12

It imports `specsim` from this checkout's `src/` and loads
`perfbench/workloads.py` by path, read-only; stdlib only.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from time import perf_counter

from cell_outputs import _load_workloads, cells, import_specsim


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload", choices=("litmus", "chain", "loop"))
    p.add_argument("--seed", type=int, default=101)
    p.add_argument("--runs", type=int, default=12,
                   help="timed passes; each cell reports its best")
    args = p.parse_args()
    if args.runs < 1:
        p.error("--runs must be at least 1")

    specsim = import_specsim()
    todo = cells(specsim, _load_workloads(), args.workload, args.seed)
    for _label, run in todo:  # the warm-up pass
        run()
    best = [float("inf")] * len(todo)
    for _ in range(args.runs):
        for i, (_label, run) in enumerate(todo):
            t0 = perf_counter()
            run()
            best[i] = min(best[i], perf_counter() - t0)
    engine, rows = specsim.Engine, []
    replay = engine._replay

    def replayed(*a):  # counts the trace replays of the profiled run
        done = replay(*a)
        replays[0] += done
        return done

    engine._replay = replayed
    try:
        for _label, run in todo:
            replays, prof = [0], cProfile.Profile()
            traces = prof.runcall(run).stats.spec_traces
            stats = pstats.Stats(prof)
            wrapped = sum(n for (_f, _l, name), (_c, n, *_r)
                          in stats.stats.items() if name == "replayed")
            rows.append((stats.total_calls - wrapped,
                         traces - replays[0], replays[0]))
    finally:
        engine._replay = replay
    for (label, _run), t, row in zip(todo, best, rows):
        print(args.workload, label, f"{t * 1e3:.2f}", *row)
    print(args.workload, "pass", f"{sum(best) * 1e3:.2f}",
          *map(sum, zip(*rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

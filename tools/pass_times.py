"""Time each cell of one benchmark workload in process.

For each analysis of the workload at the seed, print its best warm time
over `--runs` passes and the Python calls that one warm run of it makes
under cProfile; the last line sums both over the pass:

    <workload> <program/config/mode> <best ms> <calls>
    <workload> pass <sum of the best ms> <calls>

Warm means after one untimed pass over the same parsed programs, which
fills their solver stores, as in the benchmark's timed passes.  The passes
run the cells in turn, so a drifting host slows every cell alike; the
garbage collector stays on.  cProfile counts each Python function call
and each call of a builtin:

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

    todo = cells(import_specsim(), _load_workloads(), args.workload, args.seed)
    for _label, run in todo:  # the warm-up pass
        run()
    best = [float("inf")] * len(todo)
    for _ in range(args.runs):
        for i, (_label, run) in enumerate(todo):
            t0 = perf_counter()
            run()
            best[i] = min(best[i], perf_counter() - t0)
    calls = []
    for _label, run in todo:
        prof = cProfile.Profile()
        prof.runcall(run)
        calls.append(pstats.Stats(prof).total_calls)
    for (label, _run), t, n in zip(todo, best, calls):
        print(args.workload, label, f"{t * 1e3:.2f}", n)
    print(args.workload, "pass", f"{sum(best) * 1e3:.2f}", sum(calls))
    return 0


if __name__ == "__main__":
    sys.exit(main())

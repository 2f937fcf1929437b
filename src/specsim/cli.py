"""Command-line front end.

    specsim PROGRAM.sir [--pattern P.json ...] [predictor/cache options]

Analyzes one SIR program for speculative cache leaks and prints a verdict.
Exit codes: 0 leakage-free, 1 findings, 2 undecided (a query overran its
budget or exploration was truncated), 3 usage or input errors, including
an input file that is not UTF-8 and an output file that cannot be written.
With `--mode both` the exit code follows the prediction-aware verdict; the
baseline verdict is only printed and reported.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from . import sir
from .cache import CacheConfig
from .engine import Engine, EngineError, RunResult, Stats, check_limits
from .monitor import PatternError, load_pattern_file
from .predictor import PRESETS, PredictorConfig

EXIT_CLEAN = 0
EXIT_LEAK = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="specsim",
        description="Prediction-aware symbolic execution for speculative "
                    "cache-leak detection in SIR programs.")
    p.add_argument("program", help="SIR source file")
    p.add_argument("--pattern", action="append", default=[], metavar="FILE",
                   help="pattern JSON to monitor (repeatable)")
    p.add_argument("--mode", choices=("prediction-aware", "baseline", "both"),
                   default="prediction-aware")

    pred = p.add_argument_group("predictor")
    pred.add_argument("--preset", choices=sorted(PRESETS),
                      help="named processor model (overridden by explicit flags)")
    pred.add_argument("--pht-bits", type=int, default=None,
                      help="history bits of the two-level direction predictor")
    pred.add_argument("--pht-init-counter", type=int, default=None,
                      help="initial 2-bit counter value (default 2, weakly taken)")
    pred.add_argument("--btb-sets", type=int, default=None)
    pred.add_argument("--btb-ways", type=int, default=None)
    pred.add_argument("--btb-tag-bits", type=int, default=None)
    pred.add_argument("--btfnt", action="store_true",
                      help="backward-taken/forward-not-taken static fallback")
    pred.add_argument("--window", type=int, default=None,
                      help="speculation window in instructions (default 16)")

    cache = p.add_argument_group("cache")
    cache.add_argument("--cache-line", type=int, default=64)
    cache.add_argument("--cache-sets", type=int, default=64)
    cache.add_argument("--cache-ways", type=int, default=4)
    cache.add_argument("--granularity", choices=("line", "set"), default="line")

    p.add_argument("--bit-budget", type=int, default=20,
                   help="max symbolic bits per independent slice of a query")
    p.add_argument("--step-limit", type=int, default=200_000)
    p.add_argument("--report", metavar="FILE",
                   help="write findings as JSON")
    p.add_argument("--stats", metavar="FILE",
                   help="write exploration statistics as JSON")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-finding output")
    return p


def predictor_config(args) -> PredictorConfig:
    """The preset, or the defaults, with every predictor flag that was set."""
    flags = dict(pht_bits=args.pht_bits, init_counter=args.pht_init_counter,
                 btb_sets=args.btb_sets, btb_ways=args.btb_ways,
                 btb_tag_bits=args.btb_tag_bits, window=args.window,
                 fallback="btfnt" if args.btfnt else None)
    base = PRESETS[args.preset] if args.preset else PredictorConfig()
    return base._replace(**{k: v for k, v in flags.items() if v is not None})


def _stats_dict(result: RunResult) -> dict:
    """The scalar `Stats` fields; the per-trace and per-path lists stay
    out."""
    return {f: getattr(result.stats, f) for f in Stats._fields
            if f not in ("trace_identities", "path_summaries")}


def _trace_overlap(results: dict[str, RunResult]) -> dict[str, int]:
    """Each mode's wrong-path trace count under `--mode both`, and the
    size of the multiset intersection of their trace identities."""
    pl, nopl = (Counter(results[mode].stats.trace_identities)
                for mode in ("prediction-aware", "baseline"))
    return {"spec_traces_pl": pl.total(), "spec_traces_nopl": nopl.total(),
            "common": (pl & nopl).total()}


def _write_json(path: str, data) -> bool:
    """Write `data` as deterministic JSON; False, with an error printed, if
    the file cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f, indent=2, sort_keys=True)
            f.write("\n")
    except OSError as e:
        print(f"error: cannot write {path}: {e.strerror}", file=sys.stderr)
        return False
    return True


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0

    try:  # before layout, which aligns regions to the cache line size
        predictor_cfg = predictor_config(args)
        cache_cfg = CacheConfig(line_size=args.cache_line, sets=args.cache_sets,
                                ways=args.cache_ways,
                                granularity=args.granularity)
        check_limits(args.bit_budget, args.step_limit)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE

    try:
        with open(args.program, "r", encoding="utf-8") as f:
            program = sir.layout_regions(sir.parse_program(f.read()),
                                         line_size=args.cache_line)
    except OSError as e:
        print(f"error: cannot read {args.program}: {e.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except (UnicodeDecodeError, sir.ParseError, sir.LayoutError) as e:
        print(f"error: {args.program}: {e}", file=sys.stderr)
        return EXIT_USAGE

    patterns = []
    for path in args.pattern:
        try:
            patterns.append(load_pattern_file(path))
        except OSError as e:
            print(f"error: cannot read {path}: {e.strerror}", file=sys.stderr)
            return EXIT_USAGE
        except (UnicodeDecodeError, PatternError) as e:
            print(f"error: {path}: {e}", file=sys.stderr)
            return EXIT_USAGE

    def make_engine() -> Engine:
        return Engine(program, predictor_cfg, cache_cfg, patterns,
                      bit_budget=args.bit_budget, step_limit=args.step_limit)

    results = {}
    try:
        if args.mode in ("prediction-aware", "both"):
            results["prediction-aware"] = make_engine().run()
        if args.mode in ("baseline", "both"):
            results["baseline"] = make_engine().run(baseline=True)
    except EngineError as e:  # a malformed program, e.g. an unset register
        print(f"error: {args.program}: {e}", file=sys.stderr)
        return EXIT_USAGE
    primary = results.get("prediction-aware") or results["baseline"]

    for mode, result in results.items():
        label = f"[{mode}] " if len(results) > 1 else ""
        if not args.quiet:
            for f in result.findings:
                chain = " -> ".join(
                    f"{name}@{pc}{'*' if spec else ''}"
                    for pc, name, spec in f.chain)
                where = f.pattern or "engine"
                print(f"{label}{f.kind}: {where}: {chain} [{f.config}]")
            for d in result.diagnostics:
                print(f"{label}note: {d}")
        print(f"{label}verdict: {result.verdict} "
              f"({len(result.findings)} finding(s), "
              f"{result.stats.spec_traces} speculative trace(s))")
    if args.mode == "both":
        print("traces: " + " ".join(f"{k}={v}" for k, v
                                    in _trace_overlap(results).items()))

    if args.report:
        report = {
            mode: {
                "program": args.program,
                "verdict": result.verdict,
                "findings": [f.to_dict() for f in result.findings],
                "diagnostics": result.diagnostics,
            }
            for mode, result in results.items()
        }
        if len(report) == 1:
            report = next(iter(report.values()))
        if not _write_json(args.report, report):
            return EXIT_USAGE

    if args.stats:
        stats = {mode: _stats_dict(result) for mode, result in results.items()}
        if args.mode == "both":
            stats.update(_trace_overlap(results))
        elif len(stats) == 1:
            stats = next(iter(stats.values()))
        if not _write_json(args.stats, stats):
            return EXIT_USAGE

    verdict = primary.verdict
    if verdict == "leak":
        return EXIT_LEAK
    if verdict == "unknown":
        return EXIT_UNKNOWN
    return EXIT_CLEAN


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

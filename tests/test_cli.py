"""Command-line interface: flags, exit codes, and report/stats output."""

import json
import os
import subprocess
import sys

import pytest

from conftest import FIXTURES, PATTERNS, ROOT
from specsim.cli import (EXIT_CLEAN, EXIT_LEAK, EXIT_UNKNOWN, EXIT_USAGE,
                         build_parser, predictor_config, run)

V01 = str(FIXTURES / "v01.sir")
V02 = str(FIXTURES / "v02.sir")
BRLDLD = str(PATTERNS / "br-ld-ld.json")
INT_FLAGS = [a.option_strings[0] for a in build_parser()._actions
             if a.type is int]


class TestExitCodes:
    def test_leak_is_one(self, capsys):
        code = run([V01, "--pht-bits", "1", "--pattern", BRLDLD])
        assert code == EXIT_LEAK
        assert "verdict: leak" in capsys.readouterr().out

    def test_clean_is_zero(self, capsys):
        code = run([V02, "--pht-bits", "1", "--pattern", BRLDLD])
        assert code == EXIT_CLEAN
        assert "leakage-free" in capsys.readouterr().out

    def test_budget_overrun_is_two(self, capsys):
        code = run([V01, "--pht-bits", "1", "--pattern", BRLDLD,
                    "--bit-budget", "4"])
        assert code == EXIT_UNKNOWN

    def test_step_limit_truncation_is_two(self, capsys):
        code = run([V02, "--pht-bits", "1", "--pattern", BRLDLD,
                    "--step-limit", "3"])
        assert code == EXIT_UNKNOWN
        out = capsys.readouterr().out
        assert "exploration truncated" in out and "verdict: unknown" in out

    def test_leak_pair_overrun_note_counts_bits(self, capsys):
        # x plus the first secret byte the enumeration reaches: 16 bits
        code = run([V01, "--pht-bits", "1", "--pattern", BRLDLD,
                    "--bit-budget", "8"])
        assert code == EXIT_UNKNOWN
        assert ("note: pc 11: leak-pair query over the bit budget: "
                "16 symbolic bits exceed budget 8") in capsys.readouterr().out

    def test_missing_file_is_three(self, capsys):
        assert run(["/nonexistent.sir"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_parse_error_is_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.sir"
        bad.write_text("  frobnicate r1\n")
        assert run([str(bad)]) == EXIT_USAGE

    def test_bad_pattern_is_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "p"}')
        assert run([V01, "--pattern", str(bad)]) == EXIT_USAGE

    def test_misspelled_pattern_instruction_is_three(self, tmp_path, capsys):
        # "lod" for "load" would never match, so v01 would read clean
        bad = tmp_path / "bad.json"
        text = (PATTERNS / "br-ld-ld.json").read_text(encoding="utf-8")
        bad.write_text(text.replace('"load"', '"lod"'))
        code = run([V01, "--pht-bits", "1", "--pattern", str(bad)])
        assert code == EXIT_USAGE
        assert "$.nodes[1].instruction" in capsys.readouterr().err

    @pytest.mark.parametrize("role", ["program", "pattern"])
    def test_non_utf8_input_is_three(self, role, tmp_path, capsys):
        bad = tmp_path / "bad.sir"
        bad.write_bytes(b"\xff")
        argv = [str(bad)] if role == "program" else [V01, "--pattern", str(bad)]
        assert run(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--report", "--stats"])
    def test_unwritable_output_is_three(self, flag, tmp_path, capsys):
        path = tmp_path / "missing" / "out.json"
        assert run([V01, "--pht-bits", "1", "--pattern", BRLDLD,
                    flag, str(path)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert "verdict: leak" in out
        assert err == f"error: cannot write {path}: No such file or directory\n"

    def test_mode_both_exit_follows_prediction_aware(self, capsys):
        # pentium4's BTFNT never speculates v01's body; the baseline does
        code = run([V01, "--preset", "pentium4", "--mode", "both",
                    "--pattern", BRLDLD])
        out = capsys.readouterr().out
        assert "[prediction-aware] verdict: leakage-free" in out
        assert "[baseline] verdict: leak" in out
        assert code == EXIT_CLEAN

    def test_bad_flag_value_is_three(self, capsys):
        assert run([V01, "--pht-bits", "99"]) == EXIT_USAGE

    def test_cache_ways_is_gone(self, capsys):
        # no cache state is simulated, so associativity sizes nothing
        assert run([V01, "--cache-ways", "4"]) == EXIT_USAGE
        assert "--cache-ways" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--btb-sets", "0"],
        ["--btb-sets", "4", "--btb-tag-bits", "-1"],
        ["--cache-line", "0"],
    ])
    def test_bad_config_value_is_three_with_error(self, flags, capsys):
        assert run([V01, *flags]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flags, error", [
        (["--preset", "cortex-a7", "--btb-sets", "3"],
         "btb_sets must be a positive power of two"),
        (["--preset", "pentium4", "--window", "-1"], "window must be >= 0"),
    ])
    def test_bad_value_over_a_preset_is_three(self, flags, error, capsys):
        # a flag replaces a field of the preset's config, which checks it
        assert run([V01, *flags]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("flag", ["--bit-budget", "--step-limit"])
    def test_negative_limit_is_three_before_reading(self, flag, tmp_path,
                                                    capsys):
        error = f"error: {flag[2:].replace('-', '_')} must be >= 0\n"
        assert run([V01, "--pht-bits", "1", "--pattern", BRLDLD,
                    flag, "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err == error
        assert run([str(tmp_path / "missing.sir"), flag, "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err == error
        # 0 is a valid limit; nothing fits in it, so the verdict is unknown
        assert run([V01, "--pht-bits", "1", "--pattern", BRLDLD,
                    flag, "0"]) == EXIT_UNKNOWN

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("flag", INT_FLAGS)
    def test_integer_flag_extremes_never_crash(self, flag, value, capsys):
        code = run([V01, "--pht-bits", "1", "--pattern", BRLDLD, flag, value])
        assert code in (EXIT_CLEAN, EXIT_LEAK, EXIT_UNKNOWN, EXIT_USAGE)
        assert "Traceback" not in capsys.readouterr().err

    def test_dropped_branch_is_noted_once(self, tmp_path, capsys):
        prog = tmp_path / "wide.sir"
        prog.write_text("  sym r1, x\n  br r1, a, b\na:\n  halt\nb:\n  halt\n")
        code = run([str(prog), "--pht-bits", "1", "--bit-budget", "8"])
        assert code == EXIT_UNKNOWN
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.startswith("unknown")] == [
            "unknown: engine: br@1 [PHT:1,w16]"]
        assert ("note: pc 1: path dropped: no branch direction fits the "
                "bit budget") in lines

    def test_malformed_program_is_three_without_traceback(self, tmp_path,
                                                          capsys):
        bad = tmp_path / "unset.sir"
        bad.write_text("  add r1, r1, r2\n  halt\n")  # parses, reads unset r1
        assert run([str(bad)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unset register" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode, code", [("prediction-aware", EXIT_CLEAN),
                                            ("baseline", EXIT_UNKNOWN),
                                            ("both", EXIT_CLEAN)])
    def test_unset_register_on_a_wrong_path_is_unknown(self, mode, code,
                                                       tmp_path, capsys):
        # only the baseline's wrong path down `f` reads the unset `u`; the
        # prediction-aware run predicts the taken edge it takes
        prog = tmp_path / "u.sir"
        prog.write_text("region a 16\nconst c, 1\nbr c, t, f\n"
                        "f: load r, u\nhalt\nt: halt\n")
        assert run([str(prog), "--pht-bits", "1", "--mode", mode]) == code
        out, err = capsys.readouterr()
        assert err == ""
        if mode != "prediction-aware":
            label = "[baseline] " if mode == "both" else ""
            assert (f"{label}note: pc 2: wrong path ended: read of "
                    "unset register 'u'") in out
            assert f"{label}verdict: unknown" in out
        if mode != "baseline":
            assert "verdict: leakage-free" in out

    def test_skipped_symbolic_store_is_two(self, tmp_path, capsys):
        prog = tmp_path / "symstore.sir"
        prog.write_text("region buf 16\n  sym.8 rx, x\n  addrof rb, buf\n"
                        "  add ra, rb, rx\n  const rv, 7\n  store.8 ra, rv\n"
                        "  halt\n")
        assert run([str(prog)]) == EXIT_UNKNOWN
        out = capsys.readouterr().out
        assert "store skipped" in out and "verdict: unknown" in out


class TestModuleEntry:
    def test_python_m_specsim_runs_the_cli(self):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run([sys.executable, "-m", "specsim", V01,
                               "--pht-bits", "1", "--pattern", BRLDLD],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == EXIT_LEAK
        assert "verdict: leak" in done.stdout


class TestConfigMapping:
    def parse(self, *argv):
        return build_parser().parse_args([V01, *argv])

    def test_defaults(self):
        cfg = predictor_config(self.parse())
        assert (cfg.pht_bits, cfg.btb_sets, cfg.window) == (None, None, 16)
        assert cfg.fallback == "none" and cfg.init_counter == 2

    def test_preset(self):
        cfg = predictor_config(self.parse("--preset", "cortex-a7"))
        assert (cfg.pht_bits, cfg.btb_sets, cfg.window) == (8, 8, 16)

    def test_flags_override_preset(self):
        cfg = predictor_config(self.parse("--preset", "pentium4",
                                          "--window", "8", "--btb-sets", "2"))
        assert cfg.window == 8 and cfg.btb_sets == 2
        assert cfg.fallback == "btfnt"  # inherited from the preset

    def test_btfnt_flag(self):
        assert predictor_config(self.parse("--btfnt")).fallback == "btfnt"


class TestOutputs:
    def test_report_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        run([V01, "--pht-bits", "1", "--pattern", BRLDLD,
             "--report", str(out)])
        report = json.loads(out.read_text())
        assert report["verdict"] == "leak"
        (finding,) = report["findings"]
        assert [n["pc"] for n in finding["chain"]] == [4, 6, 11]
        assert finding["witness"]["pair"][0] != finding["witness"]["pair"][1]

    def test_stats_json_single_mode(self, tmp_path, capsys):
        out = tmp_path / "stats.json"
        run([V01, "--pht-bits", "1", "--stats", str(out)])
        stats = json.loads(out.read_text())
        assert stats["paths"] == 2 and stats["spec_traces"] == 1
        assert set(stats) == {"paths", "arch_instructions",
                              "spec_instructions", "spec_traces",
                              "predictor_updates", "solver_queries",
                              "budget_exceeded", "step_limit_hit"}

    def test_stats_json_both_modes(self, tmp_path, capsys):
        out = tmp_path / "stats.json"
        run([V01, "--pht-bits", "1", "--mode", "both", "--stats", str(out)])
        stats = json.loads(out.read_text())
        assert stats["spec_traces_pl"] == 1
        assert stats["spec_traces_nopl"] == 2
        assert stats["common"] == 1

    def test_mode_both_prints_the_trace_overlap(self, tmp_path, capsys):
        # the text line reads what --stats writes
        out = tmp_path / "stats.json"
        run([V01, "--pht-bits", "1", "--mode", "both", "--quiet",
             "--stats", str(out)])
        stats = json.loads(out.read_text())
        line = "traces: spec_traces_pl=1 spec_traces_nopl=2 common=1"
        assert capsys.readouterr().out.splitlines()[-1] == line
        assert line == "traces: " + " ".join(
            f"{k}={stats[k]}" for k in ("spec_traces_pl", "spec_traces_nopl",
                                        "common"))
        run([V01, "--pht-bits", "1", "--mode", "baseline"])
        assert "traces:" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        [V01, "--pht-bits", "1"],
        [V02, "--preset", "cortex-a53", "--bit-budget", "4"],
        [str(FIXTURES / "v2.sir"), "--preset", "pentium4"]])
    def test_mode_both_gives_each_modes_own_outputs(self, argv, tmp_path,
                                                    capsys):
        # the two engines of --mode both share the program's solver store
        patterns = [arg for name in ("br-ld-ld", "icall-ld-ld", "ld-br-ld")
                    for arg in ("--pattern", str(PATTERNS / f"{name}.json"))]

        def outputs(mode):
            report, stats = tmp_path / "report.json", tmp_path / "stats.json"
            run(argv + patterns + ["--mode", mode, "--report", str(report),
                                   "--stats", str(stats)])
            return json.loads(report.read_text()), json.loads(stats.read_text())

        report, stats = outputs("both")
        for mode in ("prediction-aware", "baseline"):
            assert (report[mode], stats[mode]) == outputs(mode)

    def test_outputs_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = [V01, "--pht-bits", "4", "--pattern", BRLDLD]
        run(args + ["--report", str(a)])
        run(args + ["--report", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_quiet_suppresses_findings(self, capsys):
        run([V01, "--pht-bits", "1", "--pattern", BRLDLD, "--quiet"])
        out = capsys.readouterr().out
        assert "verdict" in out and "br-ld-ld" not in out

    def test_baseline_mode(self, capsys):
        code = run([V02, "--pht-bits", "1", "--pattern", BRLDLD,
                    "--mode", "baseline"])
        assert code == EXIT_LEAK  # history-agnostic model flags v02

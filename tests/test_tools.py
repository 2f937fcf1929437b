"""Smoke tests of `tools/cell_outputs.py`, the byte-identity check that
compares every benchmark cell's outputs across two checkouts, of
`tools/pass_times.py`, the in-process time, call count and wrong-path
traces of each cell, and of `tools/src_lines.py`, the package's line count.

`tests/data/cell_outputs_101.txt` pins the output of
`python3 tools/cell_outputs.py 101`: a regression pin, not an answer key.
A change that moves an output on purpose regenerates it with

    python3 tools/cell_outputs.py 101 > tests/data/cell_outputs_101.txt

and says in CHANGES.md why the outputs moved."""

import difflib
import re
import subprocess
import sys
from collections import defaultdict

from conftest import ROOT

COMPONENTS = {"verdict", "findings", "diagnostics", "unknown", "stats",
              "event_logs", "observables", "constraints"}


def test_cell_outputs_hashes_every_component_of_every_cell():
    done = subprocess.run([sys.executable, str(ROOT / "tools/cell_outputs.py"),
                           "101"], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    cells = defaultdict(list)
    for line in done.stdout.splitlines():
        seed, workload, label, component, digest = line.split(" ")
        assert seed == "101" and re.fullmatch("[0-9a-f]{64}", digest)
        cells[workload, label].append(component)
    assert {workload for workload, _label in cells} == {"litmus", "chain",
                                                        "loop"}
    for components in cells.values():
        assert sorted(components) == sorted(COMPONENTS)
    pinned = (ROOT / "tests/data/cell_outputs_101.txt").read_text(
        encoding="utf-8")
    diff = difflib.unified_diff(pinned.splitlines(), done.stdout.splitlines(),
                                "pinned", "now", lineterm="")
    assert done.stdout == pinned, "\n".join(diff)


def test_src_lines_counts_code_without_docstrings_and_comments(tmp_path):
    # 9 lines: a module docstring (2), a blank, a comment, code (3, one
    # statement spread over 2), a function docstring, a trailing blank
    (tmp_path / "m.py").write_text(
        '"""Module\n   docstring."""\n\n# a comment\nx = ("a"\n     "b")\n'
        'def f():\n    """Docstring."""\n\n', encoding="utf-8")
    done = subprocess.run([sys.executable, str(ROOT / "tools/src_lines.py"),
                           str(tmp_path)], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (f"{tmp_path.name}: 9 lines, 3 without docstrings, "
                           "comments and blank lines\n")


def test_pass_times_prints_each_cell_and_the_pass():
    done = subprocess.run([sys.executable, str(ROOT / "tools/pass_times.py"),
                           "loop", "--seed", "101", "--runs", "1"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [line.split(" ") for line in done.stdout.splitlines()]
    assert [row[1] for row in rows] == [
        f"loop-n902/{cfg}/{mode}" for cfg in ("PHT:1", "cortex-a53")
        for mode in ("prediction-aware", "baseline")] + ["pass"]
    assert {row[0] for row in rows} == {"loop"}
    times = [float(row[2]) for row in rows]
    calls, ran, replayed = ([int(row[i]) for row in rows] for i in (3, 4, 5))
    assert all(t > 0 for t in times) and all(n > 1000 for n in calls)
    for column in (calls, ran, replayed):
        assert column[-1] == sum(column[:-1])
    assert replayed[-1] > 10 * ran[-1]  # loop replays nearly every trace
    assert abs(times[-1] - sum(times[:-1])) < 0.05  # printed to 0.01 ms

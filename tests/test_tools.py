"""Smoke test of `tools/cell_outputs.py`, the byte-identity check that
compares every benchmark cell's outputs across two checkouts."""

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

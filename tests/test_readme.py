"""The README's Python examples run as written, from the repository root,
so the library example cannot drift from the API."""

import re

from conftest import ROOT


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_readme_python_blocks_run_in_order(monkeypatch, capsys):
    blocks = python_blocks((ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    monkeypatch.chdir(ROOT)
    namespace = {"__name__": "__readme__"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("leak ")
    # each leak witness pair re-evaluates to two distinct lines
    pairs = [line.split() for line in lines[1:]]
    assert pairs and all(len(p) == 2 and p[0] != p[1] for p in pairs)

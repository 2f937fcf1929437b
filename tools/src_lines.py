"""Count the lines of `src/specsim/`.

Prints two figures: every line of the package's `.py` files, and the lines
that hold code, that is without docstrings, comments and blank lines.
A docstring is a string that is a statement on its own; a line counts as
code when some other token starts or runs through it.  Stdlib only:

    python3 tools/src_lines.py            # this checkout's src/specsim/
    python3 tools/src_lines.py DIR        # another package directory
"""

from __future__ import annotations

import argparse
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The lines of `path` that some token other than a docstring, a
    comment or layout starts on or spans."""
    lines: set[int] = set()
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    statement_start = True  # the next token starts a logical line
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            statement_start = statement_start or tok.type in (
                tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
            continue
        docstring = (statement_start and tok.type == tokenize.STRING
                     and tokens[i + 1].type in (tokenize.NEWLINE,
                                                tokenize.ENDMARKER))
        statement_start = False
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count(package: Path) -> tuple[int, int]:
    """(raw lines, code lines) over the `.py` files of `package`."""
    files = sorted(package.glob("*.py"))
    raw = sum(len(p.read_bytes().splitlines()) for p in files)
    return raw, sum(code_lines(p) for p in files)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("package", nargs="?", type=Path,
                   default=ROOT / "src" / "specsim")
    args = p.parse_args()
    raw, code = count(args.package)
    print(f"{args.package.name}: {raw} lines, {code} without docstrings, "
          "comments and blank lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())

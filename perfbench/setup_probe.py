"""Time one fresh interpreter's set-up of a workload's inputs.

    python3 -I -S perfbench/setup_probe.py SRC_DIR < inputs

stdin holds the pattern file paths, one per line, then a form feed and the
SIR programs separated by form feeds.  The probe times `import specsim`,
parsing and laying out every program and loading every pattern, then prints
the seconds and the number of instructions parsed.  It reads all of its
input before the clock starts and imports nothing the program under test
would need first.
"""

import sys
import time


def main() -> None:
    src = sys.argv[1]
    patterns, *programs = sys.stdin.read().split("\f")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import specsim
    parsed = [specsim.layout_regions(specsim.parse_program(text))
              for text in programs]
    for path in patterns.splitlines():
        specsim.load_pattern_file(path)
    t1 = time.perf_counter()
    print(repr(t1 - t0), sum(len(p.instructions) for p in parsed))


if __name__ == "__main__":
    main()

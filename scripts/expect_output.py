#!/usr/bin/env python3
"""Run a program and check its standard output, for ctest.

Usage: expect_output.py [--line REGEX]... -- PROGRAM [ARG]...

Passes (exit 0) when PROGRAM exits 0 and, for each --line in the order
given, a later line of its output matches REGEX in full. The program's
output is echoed, so `ctest --output-on-failure` shows what it printed.
examples/CMakeLists.txt and bench/CMakeLists.txt register the
reproduction surfaces (quickstart, fig4_efficiency) through it.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys


def main() -> int:
    argv = sys.argv[1:]
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("--line", action="append", default=[],
                        metavar="REGEX")
    args = parser.parse_args(argv[:split])
    program = argv[split + 1:]
    if not program:
        print(__doc__, file=sys.stderr)
        return 2

    proc = subprocess.run(program, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        print(f"expect_output: {program[0]} exited {proc.returncode}",
              file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    at = 0
    for pattern in args.line:
        regex = re.compile(pattern)
        while at < len(lines) and not regex.fullmatch(lines[at]):
            at += 1
        if at == len(lines):
            print(f"expect_output: no line matches {pattern!r} "
                  "(after the lines matched before it)", file=sys.stderr)
            return 1
        at += 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

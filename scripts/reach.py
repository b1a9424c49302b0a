#!/usr/bin/env python3
"""Report the source lines that ctest never executes.

Usage: scripts/reach.py [--scratch DIR] [--jobs N] [FILE]...

Builds the working tree under DIR (default: a new temporary directory)
as a Debug build with `-O1 --coverage` passed on the cmake command line
(so `-O1 -g --coverage`, asserts on), runs ctest there, and merges
`gcov --json-format` output over every object file. It prints, per
file under src/, how many instrumented lines ctest never executed,
then lists those lines for each FILE (default:
src/core/directory_manager.cpp and src/core/cache_manager.cpp), each
with the function that encloses it (parameter lists elided), so two
reports compare across commits even where line numbers moved.

A line counts as executed if any object file's copy of it ran: a
header's inline code is instrumented once per object file that uses it.
Reusing a --scratch directory rebuilds incrementally and clears the
previous run's counts first. It is a report, not a gate: it exits 0
even when ctest fails (the failures are printed).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_FILES = ["src/core/directory_manager.cpp",
                 "src/core/cache_manager.cpp"]


def log(*args: object) -> None:
    print(*args, file=sys.stderr, flush=True)


def build_and_test(build: Path, jobs: int) -> None:
    if not (build / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(ROOT), "-B", str(build),
             "-DCMAKE_BUILD_TYPE=Debug", "-DCMAKE_CXX_FLAGS=-O1 --coverage"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build), "-j", str(jobs)],
                   check=True, stdout=sys.stderr)
    for stale in build.rglob("*.gcda"):
        stale.unlink()
    tests = subprocess.run(
        ["ctest", "--test-dir", str(build), "-j", str(jobs)],
        capture_output=True, text=True)
    summary = [line for line in tests.stdout.splitlines()
               if "tests passed" in line or "Failed" in line
               or "***" in line]
    log("\n".join(summary) or tests.stdout[-2000:])


Lines = list[tuple[Path, int, int]]
Functions = list[tuple[Path, int, int, str]]


def gcov_object(gcda: Path) -> tuple[Lines, Functions]:
    """For one object: (source, line, count) for every instrumented line,
    and (source, first line, last line, name) for every function."""
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", gcda.name],
        cwd=gcda.parent, capture_output=True, text=True).stdout
    lines: Lines = []
    functions: Functions = []
    for doc in out.splitlines():
        if not doc.startswith("{"):
            continue
        data = json.loads(doc)
        cwd = Path(data.get("current_working_directory", gcda.parent))
        for f in data["files"]:
            source = (cwd / f["file"]).resolve()
            lines += [(source, ln["line_number"], ln["count"])
                      for ln in f["lines"]]
            functions += [(source, fn["start_line"], fn["end_line"],
                           fn.get("demangled_name", fn["name"]))
                          for fn in f.get("functions", [])]
    return lines, functions


def elide_parameters(name: str) -> str:
    """`A::f(int, B<C>) const` -> `A::f() const`, nested lists too."""
    out, depth = [], 0
    for ch in name.replace("(anonymous namespace)", "{anonymous}"):
        if ch == ")":
            depth -= 1
        if depth == 0:
            out.append(ch)
        if ch == "(":
            depth += 1
    return "".join(out)


def merged_counts(build: Path, jobs: int) -> tuple[
        dict[Path, dict[int, int]], dict[Path, dict[tuple[int, int], str]]]:
    """Per source: the highest count of each line over every object, and
    each function's name keyed by its (first, last) line."""
    counts: dict[Path, dict[int, int]] = {}
    functions: dict[Path, dict[tuple[int, int], str]] = {}
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for lines, fns in pool.map(gcov_object,
                                   sorted(build.rglob("*.gcda"))):
            for source, line, count in lines:
                per_line = counts.setdefault(source, {})
                per_line[line] = max(per_line.get(line, 0), count)
            for source, first, last, name in fns:
                functions.setdefault(source, {}).setdefault(
                    (first, last), elide_parameters(name))
    return counts, functions


def enclosing(functions: dict[tuple[int, int], str], line: int) -> str:
    """The innermost function whose lines include `line` (a lambda
    rather than the function around it)."""
    spans = [(last - first, name)
             for (first, last), name in functions.items()
             if first <= line <= last]
    return min(spans)[1] if spans else "?"


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("files", nargs="*", default=DEFAULT_FILES,
                        help="files whose unexecuted lines are listed")
    parser.add_argument("--scratch", type=Path,
                        help="build directory (default: a new temp dir)")
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1))
    args = parser.parse_args()

    scratch = (args.scratch or Path(tempfile.mkdtemp(
        prefix="reach."))).resolve()
    build = scratch / "coverage-build"
    log(f"reach: coverage build of {ROOT} in {build}")
    build_and_test(build, args.jobs)
    counts, functions = merged_counts(build, args.jobs)

    src = ROOT / "src"
    print(f"{'file':<44} {'never executed':>15}")
    for source in sorted(counts):
        if not source.is_relative_to(src):
            continue
        lines = counts[source]
        missed = sum(1 for c in lines.values() if c == 0)
        print(f"{str(source.relative_to(ROOT)):<44} "
              f"{missed:>6} of {len(lines):<6}")

    for name in args.files:
        source = (ROOT / name).resolve()
        lines = counts.get(source, {})
        missed = sorted(line for line, c in lines.items() if c == 0)
        print(f"\n{name}: {len(missed)} of {len(lines)} instrumented lines "
              "never executed")
        text = source.read_text().splitlines()
        for line in missed:
            where = enclosing(functions.get(source, {}), line)
            print(f"{line:>6}  {where}:  {text[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

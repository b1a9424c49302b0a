#!/usr/bin/env python3
"""Report the source lines that ctest never executes.

Usage: scripts/reach.py [--scratch DIR] [--jobs N] [FILE]...

Builds the working tree under DIR (default: a new temporary directory)
as a Debug build with `-O1 --coverage` passed on the cmake command line
(so `-O1 -g --coverage`, asserts on), runs ctest there, and merges
`gcov --json-format` output over every object file. It prints, per
file under src/, how many instrumented lines ctest never executed,
then lists those lines for each FILE (default:
src/core/directory_manager.cpp and src/core/cache_manager.cpp).

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


def gcov_lines(gcda: Path) -> list[tuple[Path, int, int]]:
    """(source, line, count) for every instrumented line in one object."""
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", gcda.name],
        cwd=gcda.parent, capture_output=True, text=True).stdout
    rows = []
    for doc in out.splitlines():
        if not doc.startswith("{"):
            continue
        data = json.loads(doc)
        cwd = Path(data.get("current_working_directory", gcda.parent))
        for f in data["files"]:
            source = (cwd / f["file"]).resolve()
            rows += [(source, ln["line_number"], ln["count"])
                     for ln in f["lines"]]
    return rows


def merged_counts(build: Path, jobs: int) -> dict[Path, dict[int, int]]:
    counts: dict[Path, dict[int, int]] = {}
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for rows in pool.map(gcov_lines, sorted(build.rglob("*.gcda"))):
            for source, line, count in rows:
                per_line = counts.setdefault(source, {})
                per_line[line] = max(per_line.get(line, 0), count)
    return counts


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
    counts = merged_counts(build, args.jobs)

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
            print(f"{line:>6}  {text[line - 1].rstrip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

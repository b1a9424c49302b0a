#!/usr/bin/env python3
"""Report the source lines that ctest never executes, or only ctest does.

Usage: scripts/reach.py [--programs] [--scratch DIR] [--jobs N] [FILE]...

Builds the working tree under DIR (default: a new temporary directory)
as a Debug build with `-O1 --coverage` passed on the cmake command line
(so `-O1 -g --coverage`, asserts on), runs ctest there, and merges
`gcov --json-format` output over every object file. It prints, per
file under src/, how many instrumented lines ctest never executed,
then lists those lines for each FILE (default:
src/core/directory_manager.cpp and src/core/cache_manager.cpp), each
with the function that encloses it (parameter lists elided), so two
reports compare across commits even where line numbers moved.

With --programs it also measures program reach. It configures bench/e2e
as a second coverage build (built, never edited) and, after the ctest
pass, runs a fixed list of programs with fresh counts: the chaos_soak
modes of CI's monitor, crash-recovery, migration-soak and overload jobs
and of scripts/same_behaviour.py; flecc_trace and flecc_check on every
trace those soaks write (same_behaviour.py's runs, `--csv` and
`--span`); CI's telemetry job (a paced overload soak scraped mid-run,
and the soak's telemetry twin); the figures and ablations (Figure 4
also with `--monitor` and with `--telemetry-interval`); every example;
coherence_sim; a short micro_primitives run; and `flecc_e2e --smoke`
for every workload at seeds 1 and 2. Per src/ file it then prints the
lines that ctest executes and no program does (`only tests`) next to
the lines neither executes (`never`), and totals; a FILE listing marks
each line the programs miss `T` (only tests) or `-` (never). A line
that only tests reach is a candidate for deletion (DESIGN.md #16).

A line counts as executed if any object file's copy of it ran: a
header's inline code is instrumented once per object file that uses it.
Reusing a --scratch directory rebuilds incrementally and clears the
previous run's counts first. It is a report, not a gate: it exits 0
even when ctest or a program fails (the failures are printed).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_FILES = ["src/core/directory_manager.cpp",
                 "src/core/cache_manager.cpp"]
COVERAGE_FLAGS = ["-DCMAKE_BUILD_TYPE=Debug",
                  "-DCMAKE_CXX_FLAGS=-O1 --coverage"]

# chaos_soak's modes: CI's monitor, crash-recovery, migration-soak and
# overload jobs, and same_behaviour.py's six. Every mode traces, so the
# trace tools below have a trace of each.
SOAK_MODES = {
    "default": [],
    "batch+wbuf4": ["--batch", "--wbuf", "4"],
    "crash-dm": ["--crash-dm"],
    "crash-dm+batch+wbuf4": ["--crash-dm", "--batch", "--wbuf", "4"],
    "migrate": ["--migrate"],
    "overload": ["--overload"],
    "overload+crash-dm": ["--overload", "--crash-dm"],
}
FIGURES = ["fig4_efficiency", "fig5_adaptability", "fig6_flexibility",
           "ablation_granularity", "ablation_rw_semantics",
           "ablation_hierarchical", "ablation_centralized",
           "ablation_notify", "ablation_static_vs_dynamic"]
EXAMPLES = [["quickstart"], ["airline_reservation"],
            ["airline_reservation", "--monitor"], ["psf_deployment"],
            ["trigger_playground"], ["viewer_buyer"]]
# same_behaviour.py's runs of the trace tools on one trace, and
# flecc_trace's CSV export; trace_tool_runs adds `--span` of one op.
TRACE_TOOLS = [["flecc_trace"], ["flecc_trace", "--spans"],
               ["flecc_trace", "--metrics", "trace.csv"],
               ["flecc_trace", "--csv", "events.csv"], ["flecc_check"],
               ["flecc_check", "--metrics", "check.csv", "--prom",
                "check.prom"]]
E2E_WORKLOADS = ["fig4_fanout", "fleet_2k", "push_train", "strong_durable",
                 "threaded_rt"]
E2E_SEEDS = [1, 2]

Run = tuple[Path, list[str]]  # (working directory, command)


def log(*args: object) -> None:
    print(*args, file=sys.stderr, flush=True)


def configure_and_build(src: Path, build: Path, jobs: int) -> None:
    if not (build / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(src), "-B", str(build),
                        *COVERAGE_FLAGS], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build), "-j", str(jobs)],
                   check=True, stdout=sys.stderr)


def clear_counts(build: Path) -> None:
    for stale in build.rglob("*.gcda"):
        stale.unlink()


def run_ctest(build: Path, jobs: int) -> None:
    tests = subprocess.run(
        ["ctest", "--test-dir", str(build), "-j", str(jobs)],
        capture_output=True, text=True)
    summary = [line for line in tests.stdout.splitlines()
               if "tests passed" in line or "Failed" in line
               or "***" in line]
    log("\n".join(summary) or tests.stdout[-2000:])


def program_runs(build: Path, e2e: Path, work: Path) -> list[Run]:
    """Every program run but the trace tools, each in its own directory."""
    runs: list[Run] = []
    for mode, flags in SOAK_MODES.items():
        runs.append((work / "soak" / mode,
                     [str(build / "bench/chaos_soak"), "--monitor",
                      "--trace", "trace.jsonl", *flags]))
    runs += [(work / "fig4-monitor",
              [str(build / "bench/fig4_efficiency"), "--monitor"]),
             (work / "fig4-telemetry",
              [str(build / "bench/fig4_efficiency"), "--telemetry-interval",
               "250"])]
    runs += [(work / name, [str(build / "bench" / name)])
             for name in FIGURES]
    runs += [(work / "-".join(cmd), [str(build / "examples" / cmd[0]),
                                     *cmd[1:]]) for cmd in EXAMPLES]
    runs += [(work / "coherence_sim", [str(build / "tools/coherence_sim")]),
             (work / "micro_primitives",
              [str(build / "bench/micro_primitives"),
               "--benchmark_min_time=0.01"])]
    runs += [(work / "e2e", [str(e2e / "flecc_e2e"), "--workload", w,
                             "--seed", str(s), "--smoke", "--json",
                             f"{w}.{s}.json"])
             for w in E2E_WORKLOADS for s in E2E_SEEDS]
    return runs


def scrape(build: Path, work: Path) -> None:
    """CI's telemetry job: a paced overload soak served on a free
    localhost port and scraped mid-run (/healthz, /metrics through
    prom_lint, /varz, flecc_top), then the main soak's telemetry twin."""
    cwd = work / "telemetry"
    cwd.mkdir(parents=True, exist_ok=True)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = str(probe.getsockname()[1])
    soak = subprocess.Popen(
        [str(build / "bench/chaos_soak"), "--overload", "--serve", port,
         "--telemetry-interval", "10", "--pace", "100"],
        cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    url = f"http://127.0.0.1:{port}"
    try:
        for _ in range(100):
            try:
                urllib.request.urlopen(url + "/healthz").read()
                break
            except OSError:
                time.sleep(0.2)
        metrics = urllib.request.urlopen(url + "/metrics").read()
        subprocess.run([str(build / "tools/prom_lint"), "-"], input=metrics,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        urllib.request.urlopen(url + "/varz").read()
        subprocess.run([str(build / "tools/flecc_top"), "--port", port,
                        "--once"], stdout=subprocess.DEVNULL)
    except OSError as e:
        log(f"telemetry scrape failed: {e}")
    soak.wait()
    execute([(cwd, [str(build / "bench/chaos_soak"), "--serve", "0"])], 1)


def first_span(trace: Path) -> str:
    """The span of the trace's first event that belongs to an op."""
    with trace.open() as events:
        for event in events:
            if span := re.search(r'"span":"([1-9][0-9]*)"', event):
                return span[1]
    return "0"


def trace_tool_runs(build: Path, work: Path) -> list[Run]:
    """flecc_trace and flecc_check on every trace the soaks wrote (one
    per variant under --migrate), each run in a directory of its own."""
    runs: list[Run] = []
    for trace in sorted((work / "soak").glob("*/trace*.jsonl")):
        tools = [*TRACE_TOOLS, ["flecc_trace", "--span", first_span(trace)]]
        for i, (tool, *args) in enumerate(tools):
            runs.append((trace.parent / f"{trace.stem}.tool{i}",
                         [str(build / "tools" / tool), str(trace), *args]))
    return runs


def execute(runs: list[Run], jobs: int) -> None:
    """Runs each command; gcov's runtime locks the count files, so runs
    may overlap. A failing program is reported, not fatal."""
    def one(run: Run) -> str | None:
        cwd, cmd = run
        cwd.mkdir(parents=True, exist_ok=True)
        done = subprocess.run(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        if done.returncode != 0:
            return f"exit {done.returncode}: {' '.join(cmd)}"
        return None

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for failure in pool.map(one, runs):
            if failure:
                log(failure)


Lines = list[tuple[Path, int, int]]
Functions = list[tuple[Path, int, int, str]]
Counts = dict[Path, dict[int, int]]
FunctionNames = dict[Path, dict[tuple[int, int], str]]


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


def merged_counts(builds: list[Path], jobs: int,
                  functions: FunctionNames) -> Counts:
    """Per source: the highest count of each line over every object of
    `builds`. Each function's name is added to `functions`, keyed by its
    (first, last) line."""
    counts: Counts = {}
    gcdas = sorted(g for build in builds for g in build.rglob("*.gcda"))
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for lines, fns in pool.map(gcov_object, gcdas):
            for source, line, count in lines:
                per_line = counts.setdefault(source, {})
                per_line[line] = max(per_line.get(line, 0), count)
            for source, first, last, name in fns:
                functions.setdefault(source, {}).setdefault(
                    (first, last), elide_parameters(name))
    return counts


def enclosing(functions: dict[tuple[int, int], str], line: int) -> str:
    """The innermost function whose lines include `line` (a lambda
    rather than the function around it)."""
    spans = [(last - first, name)
             for (first, last), name in functions.items()
             if first <= line <= last]
    return min(spans)[1] if spans else "?"


def sources_under_src(*counts: Counts) -> list[Path]:
    src = ROOT / "src"
    return sorted({s for c in counts for s in c if s.is_relative_to(src)})


def report_tests(tests: Counts, functions: FunctionNames,
                 files: list[str]) -> None:
    print(f"{'file':<44} {'never executed':>15}")
    for source in sources_under_src(tests):
        lines = tests[source]
        missed = sum(1 for c in lines.values() if c == 0)
        print(f"{str(source.relative_to(ROOT)):<44} "
              f"{missed:>6} of {len(lines):<6}")

    for name in files:
        source = (ROOT / name).resolve()
        lines = tests.get(source, {})
        missed = sorted(line for line, c in lines.items() if c == 0)
        print(f"\n{name}: {len(missed)} of {len(lines)} instrumented lines "
              "never executed")
        text = source.read_text().splitlines()
        for line in missed:
            where = enclosing(functions.get(source, {}), line)
            print(f"{line:>6}  {where}:  {text[line - 1].strip()}")


def report_programs(tests: Counts, programs: Counts,
                    functions: FunctionNames, files: list[str]) -> None:
    def classify(source: Path) -> dict[int, str]:
        """Each instrumented line: 'P' (a program), 'T' (only tests) or
        '-' (never)."""
        t, p = tests.get(source, {}), programs.get(source, {})
        return {line: "P" if p.get(line, 0) else
                "T" if t.get(line, 0) else "-"
                for line in sorted(t.keys() | p.keys())}

    totals = {"P": 0, "T": 0, "-": 0}
    print(f"{'file':<44} {'only tests':>10} {'never':>6} {'of':>6}")
    for source in sources_under_src(tests, programs):
        marks = list(classify(source).values())
        for mark in totals:
            totals[mark] += marks.count(mark)
        print(f"{str(source.relative_to(ROOT)):<44} {marks.count('T'):>10} "
              f"{marks.count('-'):>6} {len(marks):>6}")
    print(f"\nsrc/: {sum(totals.values())} instrumented lines; programs "
          f"execute {totals['P']}, only ctest {totals['T']}, "
          f"neither {totals['-']}")

    for name in files:
        source = (ROOT / name).resolve()
        missed = [(line, mark) for line, mark in classify(source).items()
                  if mark != "P"]
        print(f"\n{name}: {len(missed)} lines no program executes "
              "(T: only tests, -: never)")
        text = source.read_text().splitlines()
        for line, mark in missed:
            where = enclosing(functions.get(source, {}), line)
            print(f"{line:>6} {mark}  {where}:  {text[line - 1].strip()}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("files", nargs="*", default=DEFAULT_FILES,
                        help="files whose unexecuted lines are listed")
    parser.add_argument("--programs", action="store_true",
                        help="also run the programs and report the lines "
                             "that only tests reach")
    parser.add_argument("--scratch", type=Path,
                        help="build directory (default: a new temp dir)")
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1))
    args = parser.parse_args()

    scratch = (args.scratch or Path(tempfile.mkdtemp(
        prefix="reach."))).resolve()
    build = scratch / "coverage-build"
    e2e = scratch / "coverage-e2e"
    log(f"reach: coverage build of {ROOT} in {build}")
    configure_and_build(ROOT, build, args.jobs)
    if args.programs:
        configure_and_build(ROOT / "bench/e2e", e2e, args.jobs)
    clear_counts(build)
    run_ctest(build, args.jobs)
    functions: FunctionNames = {}
    tests = merged_counts([build], args.jobs, functions)
    if not args.programs:
        report_tests(tests, functions, args.files)
        return 0

    clear_counts(build)
    clear_counts(e2e)
    work = scratch / "programs"
    shutil.rmtree(work, ignore_errors=True)
    log(f"reach: running the programs in {work}")
    execute(program_runs(build, e2e, work), args.jobs)
    scrape(build, work)
    execute(trace_tool_runs(build, work), args.jobs)
    programs = merged_counts([build, e2e], args.jobs, functions)
    report_programs(tests, programs, functions, args.files)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check that the working tree behaves exactly like a git revision.

Usage: scripts/same_behaviour.py --base REF [--scratch DIR] [--jobs N]

Exports REF with `git archive`, builds it and the working tree (Release)
under DIR (default: a new temporary directory), then compares:

  fingerprint   protocol_fingerprint_test passes on the working tree and
                its recorded constants are REF's (not re-recorded)
  chaos_soak    `--monitor --trace` JSONL (one per variant under
                `--migrate`), out/chaos_soak.csv, stdout and
                out/flecc_metrics.prom, byte for byte, in the six modes of
                the verify recipe
  trace tools   on each side's traces of every soak mode: flecc_trace's
                report, `--spans` and `--metrics` CSV, and flecc_check's
                report, exit code, `--metrics` CSV and `--prom` export
  fig4          fig4_efficiency output, plain and with `--monitor`
  figures       fig5_adaptability, fig6_flexibility and the six ablations'
                output (ablation_static_vs_dynamic without its ns/query
                timing columns)
  quickstart    quickstart output
  e2e           `flecc_e2e --smoke` digest (events, msgs, hops, bytes,
                allocs, total_reserved) and stale grants of the four
                SimFabric workloads at seeds 1 and 2

It prints one line per check, `same` or `DIFF` plus what differs, and
exits 1 on any difference. bench/e2e is built, never edited. Reusing a
--scratch directory rebuilds incrementally; a different REF starts its
build afresh.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FINGERPRINT_TEST = "tests/integration/protocol_fingerprint_test.cpp"
SOAK_MODES = {
    "default": [],
    "crash-dm": ["--crash-dm"],
    "migrate": ["--migrate"],
    "overload": ["--overload"],
    "overload+crash-dm": ["--overload", "--crash-dm"],
    "batch+wbuf4": ["--batch", "--wbuf", "4"],
}
# `--migrate --trace trace.jsonl` writes trace.<variant>.jsonl per variant.
MIGRATE_VARIANTS = ["warm", "src-quiesce", "src-handoff", "src-done",
                    "dest-quiesce", "dest-handoff", "dest-done"]
FIGURES = ["fig5_adaptability", "fig6_flexibility", "ablation_granularity",
           "ablation_rw_semantics", "ablation_hierarchical",
           "ablation_centralized", "ablation_notify",
           "ablation_static_vs_dynamic"]
E2E_WORKLOADS = ["fig4_fanout", "fleet_2k", "push_train", "strong_durable"]
E2E_SEEDS = [1, 2]
TARGETS = ["protocol_fingerprint_test", "chaos_soak", "flecc_trace",
           "flecc_check", "fig4_efficiency", "quickstart", *FIGURES]
# Each tool run on a soak trace: (name, tool, arguments after the trace,
# files it writes). The report, spans, metrics and prom runs' stdout and
# files are compared, and so is every exit code.
TRACE_TOOLS = [
    ("flecc_trace", "flecc_trace", [], []),
    ("flecc_trace --spans", "flecc_trace", ["--spans"], []),
    ("flecc_trace --metrics", "flecc_trace", ["--metrics", "trace.csv"],
     ["trace.csv"]),
    ("flecc_check", "flecc_check", [], []),
    ("flecc_check --metrics --prom", "flecc_check",
     ["--metrics", "check.csv", "--prom", "check.prom"],
     ["check.csv", "check.prom"]),
]

differences = 0


def log(*args: object) -> None:
    print(*args, file=sys.stderr, flush=True)


def report(same: bool, check: str, detail: str) -> None:
    global differences
    if not same:
        differences += 1
    print(f"{'same' if same else 'DIFF'}  {check}: {detail}", flush=True)


def run(cmd: list[str], **kw) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, check=True, **kw)


def cmake_build(src: Path, build: Path, jobs: int,
                targets: list[str] | None = None) -> None:
    if not (build / "CMakeCache.txt").exists():
        run(["cmake", "-S", str(src), "-B", str(build),
             "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
    cmd = ["cmake", "--build", str(build), "-j", str(jobs)]
    if targets:
        cmd += ["--target", *targets]
    run(cmd, stdout=sys.stderr)


def export(ref: str, sha: str, scratch: Path) -> Path:
    """REF's tree under scratch/base-src; its builds go when REF changes."""
    src = scratch / "base-src"
    stamp = scratch / "base.sha"
    if not stamp.exists() or stamp.read_text() != sha:
        for stale in ["base-src", "base-build", "base-e2e"]:
            shutil.rmtree(scratch / stale, ignore_errors=True)
        src.mkdir(parents=True)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                                   stdout=subprocess.PIPE)
        run(["tar", "-x", "-C", str(src)], stdin=archive.stdout)
        if archive.wait() != 0:
            sys.exit(f"git archive {ref} failed")
        stamp.write_text(sha)
    return src


def output_of(binary: Path, cwd: Path, args: list[str] | None = None) -> str:
    cwd.mkdir(parents=True, exist_ok=True)
    return run([str(binary), *(args or [])], cwd=cwd, capture_output=True,
               text=True).stdout


def exit_and_output(binary: Path, cwd: Path, args: list[str]) -> str:
    """A tool whose exit code is part of its answer (flecc_check)."""
    done = subprocess.run([str(binary), *args], cwd=cwd, capture_output=True,
                          text=True)
    return f"exit {done.returncode}\n{done.stdout}"


def fingerprint_constants(source: str) -> list[str]:
    """The recorded hashes: every `0x...ull` literal, in file order."""
    return re.findall(r"\b0x[0-9a-fA-F]+ull\b", source)


def check_fingerprint(ref: str, work: Path) -> None:
    # Only the constants must be REF's; the rest of the test (its reach
    # guard, say) may grow.
    base = subprocess.run(
        ["git", "-C", str(ROOT), "show", f"{ref}:{FINGERPRINT_TEST}"],
        capture_output=True, text=True, check=True).stdout
    recorded = fingerprint_constants(base)
    unchanged = bool(recorded) and recorded == fingerprint_constants(
        (ROOT / FINGERPRINT_TEST).read_text())
    passes = subprocess.run(
        [str(work / "tests/protocol_fingerprint_test")],
        capture_output=True).returncode == 0
    report(unchanged and passes, "fingerprint",
           ("constants unchanged" if unchanged else "constants re-recorded")
           + (", test passes" if passes else ", test FAILS"))


def traces(mode: str) -> list[str]:
    """The traces `chaos_soak --trace trace.jsonl` writes in `mode`."""
    if mode == "migrate":
        return [f"trace.{v}.jsonl" for v in MIGRATE_VARIANTS]
    return ["trace.jsonl"]


def same_file(a: Path, b: Path) -> bool:
    return a.exists() and b.exists() and filecmp.cmp(a, b, shallow=False)


def check_soak(builds: dict[str, Path], scratch: Path) -> None:
    for mode, flags in SOAK_MODES.items():
        dirs = {}
        stdout = {}
        for side, build in builds.items():
            cwd = scratch / "soak" / side / mode
            shutil.rmtree(cwd, ignore_errors=True)
            stdout[side] = output_of(build / "bench/chaos_soak", cwd,
                                     ["--monitor", "--trace", "trace.jsonl",
                                      *flags])
            dirs[side] = cwd
        diffs = [name for name in [*traces(mode), "out/chaos_soak.csv",
                                   "out/flecc_metrics.prom"]
                 if not same_file(dirs["base"] / name, dirs["work"] / name)]
        if stdout["base"] != stdout["work"]:
            diffs.append("stdout")
        report(not diffs, f"chaos_soak {mode}",
               "trace, csv, stdout and prom identical" if not diffs
               else " and ".join(diffs) + " differ")
        check_trace_tools(mode, builds, dirs)


def check_trace_tools(mode: str, builds: dict[str, Path],
                      dirs: dict[str, Path]) -> None:
    """flecc_trace and flecc_check on each side's own traces of `mode`
    (those both sides wrote; check_soak reports a missing one)."""
    both = [t for t in traces(mode)
            if all((d / t).exists() for d in dirs.values())]
    if not both:
        report(False, f"trace tools {mode}", "no trace on both sides")
        return
    differ = []
    for trace in both:
        for name, tool, args, files in TRACE_TOOLS:
            out = {side: exit_and_output(build / "tools" / tool, dirs[side],
                                         [trace, *args])
                   for side, build in builds.items()}
            if out["base"] != out["work"] or not all(
                    same_file(dirs["base"] / f, dirs["work"] / f)
                    for f in files):
                differ.append(f"{name} on {trace}")
    report(not differ, f"trace tools {mode}",
           "flecc_trace and flecc_check outputs identical" if not differ
           else " and ".join(differ) + " differ")


def check_output(name: str, path: str, builds: dict[str, Path],
                 scratch: Path, args: list[str] | None = None) -> None:
    out = {side: output_of(build / path, scratch / name / side, args)
           for side, build in builds.items()}
    same = out["base"] == out["work"]
    report(same, name, "output identical" if same else "output differs")


def untimed(name: str, output: str) -> str:
    """ablation_static_vs_dynamic's rows lose their two ns/query columns."""
    if name != "ablation_static_vs_dynamic":
        return output
    return re.sub(r"^(\d+)\s+[\d.]+\s+[\d.]+\s+([\d.]+%)$", r"\1 \2",
                  output, flags=re.M)


def check_figures(builds: dict[str, Path], scratch: Path) -> None:
    differ = []
    for name in FIGURES:
        out = {side: untimed(name, output_of(build / "bench" / name,
                                             scratch / "figures" / side))
               for side, build in builds.items()}
        if out["base"] != out["work"]:
            differ.append(name)
    report(not differ, "figures",
           "output identical" if not differ
           else " and ".join(differ) + " differ")


def check_e2e(e2e: dict[str, Path], scratch: Path) -> None:
    for workload in E2E_WORKLOADS:
        for seed in E2E_SEEDS:
            got = {}
            for side, binary in e2e.items():
                path = scratch / "e2e" / side / f"{workload}.{seed}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.unlink(missing_ok=True)
                run([str(binary), "--workload", workload, "--seed",
                     str(seed), "--smoke", "--json", str(path)],
                    capture_output=True)
                result = json.loads(path.read_text())
                got[side] = {**result["digest"],
                             "stale_grants": result["stale_grants"],
                             "correct": result["correct"]}
            base, work = got["base"], got["work"]
            deltas = [f"{k} {base[k]} -> {work[k]}"
                      + (f" ({work[k] - base[k]:+d})"
                         if isinstance(base[k], int)
                         and not isinstance(base[k], bool) else "")
                      for k in base if base[k] != work.get(k)]
            report(not deltas, f"e2e {workload} seed {seed}",
                   "digest identical" if not deltas else ", ".join(deltas))


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--base", required=True, help="git revision to match")
    parser.add_argument("--scratch", type=Path,
                        help="build directory (default: a new temp dir)")
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1))
    args = parser.parse_args()

    sha = run(["git", "-C", str(ROOT), "rev-parse", "--verify",
               args.base + "^{commit}"], capture_output=True,
              text=True).stdout.strip()
    scratch = (args.scratch or Path(tempfile.mkdtemp(
        prefix="same_behaviour."))).resolve()
    scratch.mkdir(parents=True, exist_ok=True)
    log(f"same_behaviour: {args.base} ({sha[:12]}) vs the working tree, "
        f"builds in {scratch}")

    base_src = export(args.base, sha, scratch)
    sources = {"base": base_src, "work": ROOT}
    builds = {side: scratch / f"{side}-build" for side in sources}
    e2e = {side: scratch / f"{side}-e2e" for side in sources}
    for side, src in sources.items():
        cmake_build(src, builds[side], args.jobs, TARGETS)
        cmake_build(src / "bench/e2e", e2e[side], args.jobs)

    check_fingerprint(sha, builds["work"])
    check_soak(builds, scratch)
    check_output("fig4", "bench/fig4_efficiency", builds, scratch)
    check_output("fig4 --monitor", "bench/fig4_efficiency", builds, scratch,
                 ["--monitor"])
    check_figures(builds, scratch)
    check_output("quickstart", "examples/quickstart", builds, scratch)
    check_e2e({side: path / "flecc_e2e" for side, path in e2e.items()},
              scratch)
    print(f"same_behaviour: {differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())

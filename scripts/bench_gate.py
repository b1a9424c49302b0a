#!/usr/bin/env python3
"""Record / check the micro_primitives perf baseline (BENCH_micro.json).

Workflow (see PERFORMANCE.md):

    build/bench/micro_primitives --benchmark_filter=ProtocolTrain \
        --benchmark_format=json --benchmark_out=results.json
    scripts/bench_gate.py --record results.json     # refresh baseline
    scripts/bench_gate.py --check  results.json     # CI gate

The gate compares only *deterministic* counters (allocs_per_op,
hops_per_op): the protocol train is a fixed workload on a seeded
simulator, so these are exact event counts, reproducible across
machines. Wall-clock times are reported as warnings only — CI runners
are too noisy to gate on them.

Beyond the regression tolerance, --check asserts the raw-speed pass
still pays for itself *within* the fresh results:

  * the full stack (batch=1, wbuf=4) cuts allocs_per_op by >= 25%
    vs the unbatched, unbuffered row;
  * batching (batch=1) cuts hops_per_op by >= 20% vs that row.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO / "BENCH_micro.json"

# Relative drift allowed on deterministic counters before the gate
# fails. They should not normally move at all; the head-room absorbs
# intentional small protocol changes without constant baseline churn.
TOLERANCE = 0.10

# Cross-variant improvement floors (the raw-speed acceptance criteria).
MIN_ALLOC_REDUCTION = 0.25  # full stack vs the baseline row
MIN_HOP_REDUCTION = 0.20    # batch=1 vs the baseline row

GATED_COUNTERS = ("allocs_per_op", "hops_per_op")
BASELINE_ROW = "BM_ProtocolTrain/batch:0/wbuf:0"
BATCHED_ROW = "BM_ProtocolTrain/batch:1/wbuf:0"
FULL_ROW = "BM_ProtocolTrain/batch:1/wbuf:4"

REGEN_HINT = (
    "regenerate with: build/bench/micro_primitives "
    "--benchmark_filter=ProtocolTrain --benchmark_format=json "
    "--benchmark_out=results.json && "
    "scripts/bench_gate.py --record results.json"
)


def fail(message: str) -> int:
    """One actionable line on stderr, no traceback; exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    print(REGEN_HINT, file=sys.stderr)
    return 2


def load_rows(path: pathlib.Path) -> dict[str, dict]:
    """name -> {counter: value, time: ns} for every ProtocolTrain row."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    rows = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b["name"]
        if "ProtocolTrain" not in name:
            continue
        row = {c: b[c] for c in GATED_COUNTERS if c in b}
        row["real_time"] = b.get("real_time", 0.0)
        row["time_unit"] = b.get("time_unit", "ns")
        rows[name] = row
    return rows


def check_improvements(rows: dict[str, dict]) -> list[str]:
    errors = []
    base = rows.get(BASELINE_ROW)
    full = rows.get(FULL_ROW)
    batched = rows.get(BATCHED_ROW)
    if not base or not full or not batched:
        return [f"missing ProtocolTrain rows (need {BASELINE_ROW}, "
                f"{BATCHED_ROW}, {FULL_ROW})"]

    alloc_cut = 1.0 - full["allocs_per_op"] / base["allocs_per_op"]
    if alloc_cut < MIN_ALLOC_REDUCTION:
        errors.append(
            f"the full raw-speed stack cuts allocs_per_op by only "
            f"{alloc_cut:.1%} (floor {MIN_ALLOC_REDUCTION:.0%}): "
            f"{base['allocs_per_op']:.2f} -> {full['allocs_per_op']:.2f}")
    else:
        print(f"ok: full stack cuts allocs_per_op by {alloc_cut:.1%} "
              f"({base['allocs_per_op']:.2f} -> {full['allocs_per_op']:.2f})")

    hop_cut = 1.0 - batched["hops_per_op"] / base["hops_per_op"]
    if hop_cut < MIN_HOP_REDUCTION:
        errors.append(
            f"batching cuts hops_per_op by only {hop_cut:.1%} "
            f"(floor {MIN_HOP_REDUCTION:.0%}): "
            f"{base['hops_per_op']:.2f} -> {batched['hops_per_op']:.2f}")
    else:
        print(f"ok: batching cuts hops_per_op by {hop_cut:.1%} "
              f"({base['hops_per_op']:.2f} -> {batched['hops_per_op']:.2f})")
    return errors


def check_against_baseline(rows: dict[str, dict],
                           baseline: dict[str, dict]) -> list[str]:
    errors = []
    for name, ref in sorted(baseline.items()):
        cur = rows.get(name)
        if cur is None:
            errors.append(f"{name}: present in baseline, missing from run")
            continue
        for counter in GATED_COUNTERS:
            if counter not in ref:
                continue
            want, got = ref[counter], cur.get(counter)
            if got is None:
                errors.append(f"{name}: counter {counter} disappeared")
                continue
            if want == 0:
                continue
            drift = (got - want) / want
            if drift > TOLERANCE:
                errors.append(
                    f"{name}: {counter} regressed {drift:+.1%} "
                    f"({want:.2f} -> {got:.2f}, tolerance {TOLERANCE:.0%})")
            else:
                print(f"ok: {name} {counter} {want:.2f} -> {got:.2f} "
                      f"({drift:+.1%})")
        # Time is advisory: flag, never fail.
        if ref.get("real_time") and cur.get("real_time"):
            tdrift = (cur["real_time"] - ref["real_time"]) / ref["real_time"]
            if tdrift > 0.25:
                print(f"warn: {name} real_time {tdrift:+.1%} "
                      f"({ref['real_time']:.0f} -> {cur['real_time']:.0f} "
                      f"{cur['time_unit']}) — advisory only", file=sys.stderr)
    for name in sorted(set(rows) - set(baseline)):
        print(f"note: new row {name} not in baseline (record to adopt)")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("results", type=pathlib.Path,
                    help="google-benchmark JSON from micro_primitives")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true",
                      help="write the baseline from these results")
    mode.add_argument("--check", action="store_true",
                      help="fail on counter regressions vs the baseline")
    ap.add_argument("--baseline", type=pathlib.Path,
                    default=DEFAULT_BASELINE)
    args = ap.parse_args()

    try:
        rows = load_rows(args.results)
    except FileNotFoundError:
        return fail(f"results file {args.results} does not exist")
    except json.JSONDecodeError as exc:
        return fail(f"results file {args.results} is not valid JSON "
                    f"(line {exc.lineno}: {exc.msg})")
    except KeyError as exc:
        return fail(f"results file {args.results} is missing benchmark "
                    f"key {exc} — not google-benchmark JSON output?")
    if not rows:
        return fail(f"no ProtocolTrain rows in {args.results}")

    errors = check_improvements(rows)

    if args.record:
        if errors:
            for e in errors:
                print(f"error: {e}", file=sys.stderr)
            print("refusing to record a baseline that misses the "
                  "improvement floors", file=sys.stderr)
            return 1
        args.baseline.write_text(json.dumps(rows, indent=2, sort_keys=True)
                                 + "\n", encoding="utf-8")
        print(f"recorded {len(rows)} rows -> {args.baseline}")
        return 0

    if not args.baseline.exists():
        return fail(f"baseline {args.baseline} missing (record it first)")
    try:
        baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return fail(f"baseline {args.baseline} is not valid JSON "
                    f"(line {exc.lineno}: {exc.msg})")
    if not isinstance(baseline, dict):
        return fail(f"baseline {args.baseline} is not a row mapping")
    errors += check_against_baseline(rows, baseline)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    print("bench gate: all counters within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the flecc_e2e benchmark (see README.md).

One measured run (the last stdout line is a JSON result):
  python3 bench/e2e/run.py --workload W --seed S --seconds N --trace 0|1

Tools:
  run.py all [--seed S] [--runs K] [--trace] [--out DIR]
      every workload; prints the end-to-end table, writes DIR/results.json
  run.py smoke [--trace]      every workload at 1/50 of its ops
  run.py selftest             decorator transparency and coverage checks
  run.py repeat               two sets of seeds 1 and 2 must agree
  run.py compare A B          parent results A vs change results B

Every form takes --build-dir DIR (default build-e2e). Builds run through
CMake into that directory, from bench/e2e and the library in src/.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
WORKLOADS = ["fig4_fanout", "fleet_2k", "push_train", "strong_durable",
             "threaded_rt"]
SIM_WORKLOADS = WORKLOADS[:4]
# A run must finish within 180 s; its rounds stop at --seconds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

# Bounds of the printed metrics that BENCHMARK.json cannot list because
# they read N/A or 0 on some workload (README.md, "End-to-end metrics").
EXTRA_BOUNDS = {"op_p50_us": 0.25, "unseen_per_pull": 0.25}
# failed_op_share is bounded in absolute terms: +0.001.
FAILED_SHARE_SLACK = 0.001


def log(*args: object) -> None:
    print(*args, file=sys.stderr, flush=True)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build(build_dir: Path) -> Path:
    """Configure (once) and build flecc_e2e; returns the binary."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "-j4"], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "flecc_e2e"


def run_one(binary: Path, workload: str, seed: int, json_path: Path, *,
            seconds: float | None = None, trace: bool = False,
            smoke: bool = False, echo: bool = True) -> dict:
    """Run flecc_e2e once and return its JSON (raises if none was written)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--json", str(json_path)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.unlink(missing_ok=True)
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(proc.stdout)
    if proc.stderr:
        log(proc.stderr.rstrip())
    if not json_path.exists():
        raise RuntimeError(f"{workload}: flecc_e2e exited {proc.returncode} "
                           "without a result")
    result = json.loads(json_path.read_text())
    result["exit_code"] = proc.returncode
    return result


def ok(result: dict) -> bool:
    return result["exit_code"] == 0 and result["correct"]


# ---- one measured run ----------------------------------------------------------


def single_run(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--build-dir", type=Path, default=ROOT / "build-e2e")
    a = p.parse_args(argv)
    spec = benchmark_spec()
    binary = build(a.build_dir)
    res = run_one(binary, a.workload, a.seed,
                  ROOT / "out" / "e2e" / f"{a.workload}.json",
                  seconds=a.seconds, trace=bool(a.trace))
    source = res["layers"] if a.trace else res["metrics"]
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None or got["value"] is None:
            log(f"{a.workload}: metric {m['name']} was not measured")
            return 1
        if got["unit"] != m["unit"]:
            log(f"{m['name']}: unit {got['unit']} is not {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": ok(res), "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if ok(res) else 1


# ---- tables -----------------------------------------------------------------


def fmt(v: float | None) -> str:
    return "N/A" if v is None else f"{v:.6g}"


def print_table(runs: dict[str, list[dict]], key: str = "metrics") -> None:
    names = [w for w in WORKLOADS if w in runs]
    first = runs[names[0]][0][key]
    print(f"\n{'metric':34s} {'unit':8s}" +
          "".join(f" {w:>15s}" for w in names))
    for metric, info in first.items():
        cells = []
        for w in names:
            vals = [r[key][metric]["value"] for r in runs[w]]
            vals = [v for v in vals if v is not None]
            cells.append(fmt(statistics.median(vals)) if vals else "N/A")
        print(f"{metric:34s} {info['unit']:8s}" +
              "".join(f" {c:>15s}" for c in cells))


# ---- all / smoke --------------------------------------------------------------


def run_all(a: argparse.Namespace, smoke: bool) -> int:
    binary = build(a.build_dir)
    out = a.out
    runs: dict[str, list[dict]] = {}
    failed = False
    for w in WORKLOADS:
        for k in range(a.runs):
            res = run_one(binary, w, a.seed, out / f"{w}.{k}.json",
                          trace=a.trace, smoke=smoke, echo=False)
            runs.setdefault(w, []).append(res)
            status = "ok" if ok(res) else "FAILED " + "; ".join(
                res["failures"])
            log(f"{w} seed {a.seed} run {k}: {status}")
            failed |= not ok(res)
    print_table(runs)
    if a.trace:
        print_table(runs, "layers")
        print("\nlargest self-time share per workload:")
        for w in WORKLOADS:
            share = runs[w][0]["layer_share"]
            top = max(share, key=share.get)
            print(f"  {w:15s} {top} ({100 * share[top]:.1f}%)")
    (out / "results.json").write_text(json.dumps(
        {"seed": a.seed, "smoke": smoke, "trace": a.trace, "runs": runs},
        indent=1))
    print(f"\nwrote {out / 'results.json'}")
    return 1 if failed else 0


# ---- selftest -----------------------------------------------------------------

INTERFACES = [("src/net/fabric.hpp", "Fabric", "TimedFabric"),
              ("src/core/adapters.hpp", "PrimaryAdapter", "TimedPrimary"),
              ("src/core/adapters.hpp", "ViewAdapter", "TimedView"),
              ("src/core/durability.hpp", "DurabilityStore", "TimedStore")]


def class_body(text: str, name: str) -> str:
    m = re.search(rf"\bclass {name}\b[^;{{]*\{{", text)
    if m is None:
        raise ValueError(f"class {name} not found")
    depth, i = 1, m.end()
    while depth:
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        i += 1
    return text[m.end():i]


def method_names(body: str, marker: str) -> list[str]:
    """Names of the declarations in `body` carrying `marker`, with
    " const" appended for const member functions."""
    names = []
    body = re.sub(r"//[^\n]*", "", body)
    for decl in re.split(r";|\}", body):
        if not re.search(rf"\b{marker}\b", decl) or "~" in decl:
            continue
        open_at = decl.find("(")
        name = re.search(r"(\w+)\s*$", decl[:open_at]) if open_at > 0 else None
        if name is None:
            continue
        depth, i = 0, open_at
        for i in range(open_at, len(decl)):
            depth += {"(": 1, ")": -1}.get(decl[i], 0)
            if depth == 0:
                break
        const = re.match(r"\s*const\b", decl[i + 1:]) is not None
        names.append(name.group(1) + (" const" if const else ""))
    return sorted(names)


def check_forwarding() -> list[str]:
    problems = []
    timed = (HERE / "timed.hpp").read_text()
    for header, iface, deco in INTERFACES:
        want = method_names(class_body((ROOT / header).read_text(), iface),
                            "virtual")
        have = method_names(class_body(timed, deco), "override")
        for name in want:
            if want.count(name) > have.count(name):
                problems.append(f"{deco} does not override {iface}::{name}")
    return problems


DIGEST_METRICS = ["op_p50_us", "op_p99_us", "op_mean_us", "msgs_per_op",
                  "hops_per_op", "bytes_per_op", "allocs_per_op"]


def selftest(a: argparse.Namespace) -> int:
    problems = check_forwarding()
    binary = build(a.build_dir)
    out = ROOT / "out" / "e2e" / "selftest"
    for w in WORKLOADS:
        plain = run_one(binary, w, 1, out / f"{w}.json", smoke=True,
                        echo=False)
        traced = run_one(binary, w, 1, out / f"{w}.trace.json", smoke=True,
                         trace=True, echo=False)
        for res, kind in ((plain, "untraced"), (traced, "traced")):
            if not ok(res):
                problems.append(f"{w} {kind}: " + "; ".join(res["failures"]))
        if w not in SIM_WORKLOADS:
            continue
        # The traced process already compared its traced rounds with its
        # untraced round; this compares two processes as well.
        if plain["digest"] != traced["digest"]:
            problems.append(f"{w}: digest {plain['digest']} untraced vs "
                            f"{traced['digest']} traced")
        for m in DIGEST_METRICS:
            pv = plain["metrics"][m]["value"]
            tv = traced["metrics"][m]["value"]
            if pv != tv:
                problems.append(f"{w}: {m} {pv} untraced vs {tv} traced")
        cov = traced["layers"]["trace.coverage_share"]["value"]
        if cov is None or cov < 0.95:
            problems.append(f"{w}: trace.coverage_share {cov} < 0.95")
        log(f"{w}: events {plain['digest']['events']}, coverage {cov:.4f}")
    for p in problems:
        print("selftest:", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


# ---- compare / repeat -----------------------------------------------------------


def bounds() -> dict[str, float]:
    out = dict(EXTRA_BOUNDS)
    for m in benchmark_spec()["end_to_end"]:
        out[m["name"]] = m["bound"]
    return out


def higher_is_better(metric: str) -> bool:
    return any(m["name"] == metric and m["better"] == "higher"
               for m in benchmark_spec()["end_to_end"])


def worse_by(metric: str, parent: float, change: float) -> float:
    """How much worse `change` is than `parent`, as a share of parent."""
    if metric == "failed_op_share":
        return change - parent  # absolute
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (parent - change) if higher_is_better(metric) else (
        change - parent)
    return delta / abs(parent)


def allowed(metric: str, bound: dict[str, float]) -> float:
    return FAILED_SHARE_SLACK if metric == "failed_op_share" else bound[metric]


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q = statistics.quantiles(vals, n=4)
    return q[0], statistics.median(vals), q[2]


def verdict(metric: str, a: list[float], b: list[float],
            bound: dict[str, float]) -> str:
    """The verdict for one metric (README.md, "Comparing two commits"):
    runs a[i] and b[i] form pair i."""
    lim = allowed(metric, bound)
    qa, qb = quartiles(a), quartiles(b)
    better = ((lambda x, y: x > y) if higher_is_better(metric)
              else (lambda x, y: x < y))
    pairs = list(zip(a, b))
    wins = sum(better(y, x) for x, y in pairs)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and abs(qb[1] - qa[1]) > qa[2] - qa[0]):
        return "improved"
    all_better = all(better(y, x) for x in a for y in b)
    spread = max(
        (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    if metric != "failed_op_share" and spread > lim and not all_better:
        return "unresolved"
    if worse_by(metric, qa[1], qb[1]) > lim:
        return "regressed"
    return "unchanged"


def load_runs(path: Path) -> dict[str, list[dict]]:
    if path.is_dir():
        path = path / "results.json"
    return json.loads(path.read_text())["runs"]


def bounded_metrics(run: dict, bound: dict[str, float]) -> list[str]:
    return [m for m in run["metrics"]
            if m in bound or m == "failed_op_share"]


def compare(a: argparse.Namespace) -> int:
    """One row per (workload, metric), medians and verdict."""
    pa, pb = load_runs(a.parent), load_runs(a.change)
    bound = bounds()
    counts: dict[str, int] = {}
    print(f"\n{'workload':15s} {'metric':18s} {'parent':>14s} "
          f"{'change':>14s} {'delta':>8s}  verdict")
    for w in WORKLOADS:
        if w not in pa or w not in pb:
            continue
        for metric in bounded_metrics(pa[w][0], bound):
            va = [r["metrics"][metric]["value"] for r in pa[w]]
            vb = [r["metrics"][metric]["value"] for r in pb[w]]
            if None in va or None in vb:
                continue
            v = verdict(metric, va, vb, bound)
            counts[v] = counts.get(v, 0) + 1
            ma, mb = statistics.median(va), statistics.median(vb)
            delta = (mb - ma) / abs(ma) if ma else 0.0
            print(f"{w:15s} {metric:18s} {ma:14.6g} {mb:14.6g} "
                  f"{100 * delta:7.2f}%  {v}")
    print("\n" + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


def repeat(a: argparse.Namespace) -> int:
    binary = build(a.build_dir)
    # The two sets' runs of one (workload, seed) run back to back,
    # alternating which goes first, so a drift in host speed over the
    # minutes the check takes lands on both sets alike.
    sets: list[dict[str, list[dict]]] = [{}, {}]
    for w in WORKLOADS:
        for seed in (1, 2):
            for k in ((0, 1) if seed == 1 else (1, 0)):
                name = "AB"[k]
                res = run_one(binary, w, seed, ROOT / "out" / "e2e" /
                              "repeat" / f"{name}.{w}.{seed}.json",
                              echo=False)
                if not ok(res):
                    print(f"{name} {w} seed {seed}: FAILED",
                          "; ".join(res["failures"]))
                    return 1
                sets[k].setdefault(w, []).append(res)
                log(f"set {name} {w} seed {seed}: ok")
    # Per (workload, seed): exact metrics bit-identical, every other
    # bounded metric within its bound in both directions.
    bound = bounds()
    bad = 0
    print(f"\n{'workload':15s} {'seed':>4s} {'metric':18s} {'set A':>14s} "
          f"{'set B':>14s} {'delta':>8s}  verdict")
    for w in WORKLOADS:
        for i, seed in enumerate((1, 2)):
            ra, rb = sets[0][w][i], sets[1][w][i]
            for metric in bounded_metrics(ra, bound):
                va = ra["metrics"][metric]["value"]
                vb = rb["metrics"][metric]["value"]
                if va is None and vb is None:
                    continue
                if ra["metrics"][metric]["class"] == "exact":
                    v = "identical" if va == vb else "DIFFERENT"
                else:
                    lim = allowed(metric, bound)
                    v = ("within bound" if max(worse_by(metric, va, vb),
                                               worse_by(metric, vb, va)) <= lim
                         else "OUT OF BOUND")
                bad += v in ("DIFFERENT", "OUT OF BOUND")
                delta = (vb - va) / abs(va) if va else 0.0
                print(f"{w:15s} {seed:4d} {metric:18s} {va:14.6g} {vb:14.6g} "
                      f"{100 * delta:7.2f}%  {v}")
    print("\nrepeat:", "ok" if bad == 0 else f"{bad} metric(s) disagree")
    return 1 if bad else 0


# ---- entry --------------------------------------------------------------------


def main(argv: list[str]) -> int:
    tools = {"all", "smoke", "selftest", "repeat", "compare"}
    if not argv or argv[0] not in tools:
        return single_run(argv)
    p = argparse.ArgumentParser(prog=f"run.py {argv[0]}")
    p.add_argument("--build-dir", type=Path, default=ROOT / "build-e2e")
    if argv[0] in ("all", "smoke"):
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--runs", type=int, default=1)
        p.add_argument("--trace", action="store_true")
        p.add_argument("--out", type=Path, default=ROOT / "out" / "e2e")
    if argv[0] == "compare":
        p.add_argument("parent", type=Path)
        p.add_argument("change", type=Path)
    a = p.parse_args(argv[1:])
    if argv[0] == "all":
        return run_all(a, smoke=False)
    if argv[0] == "smoke":
        return run_all(a, smoke=True)
    if argv[0] == "selftest":
        return selftest(a)
    if argv[0] == "repeat":
        return repeat(a)
    return compare(a)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError) as e:
        log(f"run.py: {e}")
        sys.exit(1)

#!/usr/bin/env python3
"""Documentation lint, run as the CI `docs` job.

Checks that the prose reference docs cannot silently drift from the
headers they document:

1. Every public struct/class in src/core/messages.hpp and src/obs/*.hpp
   carries a Doxygen-style doc comment (`///` or `/** ... */`).
2. Every message struct defined in src/core/messages.hpp is mentioned
   in PROTOCOL.md (the "Message reference" table).
3. Every EventKind wire name and every exported `trace.*` metric prefix
   appears in OBSERVABILITY.md.
4. Every raw-speed knob documented in PERFORMANCE.md names a real
   Config field in its defining header (and vice versa: the raw-speed
   Config fields all appear in PERFORMANCE.md), and every `batch.*` /
   `wbuf.*` counter emitted by the code is documented there.
5. The overload-resilience knobs (flow control, admission control,
   circuit breaker) appear in PROTOCOL.md ("Flow control & overload"),
   and every `flow.*` / `shed.*` / `breaker.*` counter emitted by the
   code appears in OBSERVABILITY.md ("Flow control counter families").
6. The directory's protocol constants (the round, merged-op and
   migration-outcome windows, the rebuild window, the migration timeout
   and resend budget) have the value in PROTOCOL.md that their
   `constexpr` has in src/.

Exit status 0 = clean, 1 = violations (each printed as file:line).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

DOC_COMMENT_FILES = [
    "src/core/messages.hpp",
    *sorted(str(p.relative_to(REPO)) for p in (REPO / "src/obs").glob("*.hpp")),
    *sorted(str(p.relative_to(REPO))
            for p in (REPO / "src/obs/monitor").glob("*.hpp")),
]

# `struct Name {` / `class Name final {` at any nesting; not forward
# declarations (`struct Name;`) and not `enum class`.
DECL_RE = re.compile(r"^\s*(?:struct|class)\s+([A-Za-z_]\w*)\b(?!.*;\s*$)")

errors: list[str] = []


def check_doc_comments(rel: str) -> list[str]:
    """Return the undocumented struct/class names declared in `rel`."""
    lines = (REPO / rel).read_text().splitlines()
    missing = []
    for i, line in enumerate(lines):
        if re.match(r"^\s*enum\b", line):
            continue
        m = DECL_RE.match(line)
        if not m:
            continue
        # Walk back over template<>/attribute lines to the nearest
        # non-blank line; it must close or be a doc comment.
        j = i - 1
        while j >= 0 and re.match(r"^\s*(template\s*<|\[\[)", lines[j]):
            j -= 1
        prev = lines[j].strip() if j >= 0 else ""
        if not (prev.startswith("///") or prev.endswith("*/")):
            missing.append(f"{rel}:{i + 1}: undocumented '{m.group(1)}' "
                           "(add a /// doc comment)")
    return missing


def struct_names(rel: str) -> list[tuple[str, int]]:
    names = []
    for i, line in enumerate((REPO / rel).read_text().splitlines()):
        if re.match(r"^\s*enum\b", line):
            continue
        m = DECL_RE.match(line)
        if m:
            names.append((m.group(1), i + 1))
    return names


def main() -> int:
    for rel in DOC_COMMENT_FILES:
        errors.extend(check_doc_comments(rel))

    protocol = (REPO / "PROTOCOL.md").read_text()
    for name, lineno in struct_names("src/core/messages.hpp"):
        if name not in protocol:
            errors.append(f"src/core/messages.hpp:{lineno}: struct '{name}' "
                          "is not mentioned in PROTOCOL.md")

    observability = (REPO / "OBSERVABILITY.md").read_text()
    trace_hpp = (REPO / "src/obs/trace.hpp").read_text()
    kind_block = re.search(
        r"to_string\(EventKind.*?\n\}", trace_hpp, re.DOTALL)
    if not kind_block:
        errors.append("src/obs/trace.hpp: cannot find to_string(EventKind)")
    else:
        for wire in re.findall(r'return "([a-z_]+)";', kind_block.group(0)):
            if wire == "unknown":
                continue
            if f"`{wire}`" not in observability:
                errors.append(f"src/obs/trace.hpp: event kind '{wire}' is "
                              "not documented in OBSERVABILITY.md")

    analysis_cpp = (REPO / "src/obs/analysis.cpp").read_text()
    for metric in sorted(set(re.findall(r'"(trace\.[a-z_.]+)"', analysis_cpp))):
        if metric.rstrip(".") not in observability:
            errors.append(f"src/obs/analysis.cpp: metric '{metric}' is not "
                          "documented in OBSERVABILITY.md")

    monitor_cpp = (REPO / "src/obs/monitor/invariant_monitor.cpp").read_text()
    for metric in sorted(
            set(re.findall(r'"(monitor\.[a-z_.0-9]+)"', monitor_cpp))):
        if metric.rstrip(".") not in observability:
            errors.append(
                f"src/obs/monitor/invariant_monitor.cpp: metric '{metric}' "
                "is not documented in OBSERVABILITY.md")

    performance = (REPO / "PERFORMANCE.md").read_text()
    # Knob <-> header cross-check: each (header, field) pair below is a
    # raw-speed Config knob; PERFORMANCE.md must name every one, and
    # each must still exist in its defining header.
    knobs = [
        ("src/core/cache_manager.hpp",
         ["write_buffer_ops", "piggyback_heartbeats"]),
        ("src/net/batch_fabric.hpp", ["batch_window", "max_batch"]),
        ("src/airline/testbed.hpp", ["batch_fabric"]),
    ]
    for rel, fields in knobs:
        header = (REPO / rel).read_text()
        for field in fields:
            if not re.search(rf"\b{field}\b\s*=", header):
                errors.append(f"{rel}: raw-speed knob '{field}' named in "
                              "docs_lint.py no longer exists in the header")
            if f"`{field}`" not in performance:
                errors.append(f"{rel}: knob '{field}' is not documented in "
                              "PERFORMANCE.md")

    # Counter families: everything the code emits under batch.* / wbuf.*
    # must be documented (OBSERVABILITY.md documents the families too,
    # but PERFORMANCE.md is the canonical knob/counter reference).
    perf_sources = {
        "src/net/batch_fabric.cpp": r'"(batch\.[a-z_.]+)"',
        "src/core/cache_manager.cpp": r'"(wbuf\.[a-z_.]+)"',
    }
    for rel, pattern in perf_sources.items():
        text = (REPO / rel).read_text()
        for counter in sorted(set(re.findall(pattern, text))):
            if f"`{counter}`" not in performance:
                errors.append(f"{rel}: counter '{counter}' is not "
                              "documented in PERFORMANCE.md")

    # Overload-resilience knobs live in PROTOCOL.md ("Flow control &
    # overload"): same two-way check as the raw-speed knobs above.
    overload_knobs = [
        ("src/net/flow.hpp", ["queue_capacity", "retry_after"]),
        ("src/core/cache_manager.hpp",
         ["breaker_threshold", "breaker_open_timeout",
          "degrade_on_overload"]),
        ("src/core/directory_manager.hpp",
         ["max_fetch_rounds", "max_acquire_queue", "busy_retry_after"]),
        ("src/core/reliability.hpp", ["deadline"]),
    ]
    for rel, fields in overload_knobs:
        header = (REPO / rel).read_text()
        for field in fields:
            if not re.search(rf"\b{field}\b\s*=", header):
                errors.append(f"{rel}: overload knob '{field}' named in "
                              "docs_lint.py no longer exists in the header")
            if f"`{field}`" not in protocol:
                errors.append(f"{rel}: knob '{field}' is not documented in "
                              "PROTOCOL.md")

    # Each cache-manager knob is declared once, in
    # core::CacheManager::Config; the airline layer forwards it through
    # one `cm_cfg` template instead of re-declaring it field by field.
    cm_knobs = sorted({field for rel, fields in knobs + overload_knobs
                       if rel == "src/core/cache_manager.hpp"
                       for field in fields})
    for header in sorted((REPO / "src/airline").glob("*.hpp")):
        text = header.read_text()
        for field in cm_knobs:
            if re.search(rf"\b{field}\b\s*=", text):
                errors.append(
                    f"{header.relative_to(REPO)}: re-declares cache-manager "
                    f"knob '{field}'; set it through cm_cfg instead")

    # Flow-control counter families: everything emitted under flow.* /
    # shed.* / breaker.* must appear in OBSERVABILITY.md ("Flow control
    # counter families"). The doc lists them with role prefixes
    # (net./dm./cm.), so this is a substring match on the bare name.
    flow_sources = {
        "src/net/sim_fabric.cpp": r'"(flow\.[a-z_.]+)"',
        "src/rt/thread_fabric.cpp": r'"(flow\.[a-z_.]+)"',
        "src/core/directory_manager.cpp": r'"((?:flow|shed)\.[a-z_.]+)"',
        "src/core/cache_manager.cpp": r'"((?:flow|breaker)\.[a-z_.]+)"',
    }
    for rel, pattern in flow_sources.items():
        text = (REPO / rel).read_text()
        for counter in sorted(set(re.findall(pattern, text))):
            counter = counter.rstrip(".")  # inc_cat prefixes
            if counter.count(".") == 0:
                continue  # a bare family prefix, not a counter name
            if counter not in observability:
                errors.append(f"{rel}: counter '{counter}' is not "
                              "documented in OBSERVABILITY.md")

    # Protocol constants: PROTOCOL.md states each one's value, which must
    # be the value of its `constexpr` in src/ (`N` or `sim::msec(N)`,
    # written `N` or `N ms` in the doc, which may wrap the line).
    sources = "\n".join(p.read_text()
                        for p in sorted(REPO.glob("src/**/*.[ch]pp")))
    for name in ["kSettledRoundWindow", "kMergedOpWindow", "kRebuildWindow",
                 "kMigrateTimeout", "kMigrateResends"]:
        code = re.search(
            rf"constexpr\s+[\w:]+\s+{name}\s*=\s*(sim::msec\()?(\d+)\)?;",
            sources)
        if not code:
            errors.append(f"src/: protocol constant '{name}' named in "
                          "docs_lint.py is not a constexpr in src/")
            continue
        value = code.group(2) + (" ms" if code.group(1) else "")
        stated = re.findall(rf"`{name}\s*=\s*(\d+(?:\s+ms)?)`", protocol)
        if not stated:
            errors.append(f"PROTOCOL.md: protocol constant '{name}' is not "
                          "stated as `name = value`")
        for doc in stated:
            if " ".join(doc.split()) != value:
                errors.append(f"PROTOCOL.md: states `{name} = "
                              f"{' '.join(doc.split())}`, src/ has {value}")

    # Live telemetry (OBSERVABILITY.md "Live telemetry"): the hub
    # knobs, the scrape routes, the alerts.* counter family, and the
    # bench serving flags must stay documented.
    telemetry_hpp = (REPO / "src/obs/telemetry.hpp").read_text()
    for field in ["interval", "pace_ms"]:
        if not re.search(rf"\b{field}\b\s*=", telemetry_hpp):
            errors.append("src/obs/telemetry.hpp: telemetry knob "
                          f"'{field}' named in docs_lint.py no longer "
                          "exists in the header")
        if f"`{field}`" not in observability:
            errors.append(f"src/obs/telemetry.hpp: knob '{field}' is not "
                          "documented in OBSERVABILITY.md")
    server_cpp = (REPO / "src/net/telemetry_server.cpp").read_text()
    for route in sorted(set(re.findall(r'route\("(/[a-z]*)"', server_cpp))):
        if f"`{route}`" not in observability:
            errors.append(f"src/net/telemetry_server.cpp: endpoint "
                          f"'{route}' is not documented in OBSERVABILITY.md")
    alerts_cpp = (REPO / "src/obs/alerts.cpp").read_text()
    for counter in sorted(set(re.findall(r'"(alerts\.[a-z_.]+)"',
                                         alerts_cpp))):
        if f"`{counter}`" not in observability:
            errors.append(f"src/obs/alerts.cpp: counter '{counter}' is not "
                          "documented in OBSERVABILITY.md")
    readme = (REPO / "README.md").read_text()
    for flag in ["--serve", "--telemetry-interval", "--pace"]:
        if flag not in observability:
            errors.append(f"telemetry flag '{flag}' is not documented in "
                          "OBSERVABILITY.md")
    if "--serve" not in readme or "flecc_top" not in readme:
        errors.append("README.md: the live-telemetry quickstart "
                      "(--serve + flecc_top) is missing")

    if errors:
        print(f"docs lint: {len(errors)} problem(s)")
        for e in errors:
            print(f"  {e}")
        return 1
    print("docs lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

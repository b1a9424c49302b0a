// Trace sinks and loaders: serialize obs::TraceEvent streams to JSONL
// (one event per line, the interchange format consumed by
// tools/flecc_trace and by jq-style ad-hoc analysis) and to CSV (for
// spreadsheets/gnuplot), and parse JSONL back.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace flecc::obs {

/// One event as a JSONL line (no trailing newline), e.g.
/// {"t":1500,"kind":"op_started","role":"cm","agent":"3:1",
///  "span":"844429225099265","label":"pull","a":0,"b":0}
/// `agent` is "node:port"; `span` is a decimal string because span ids
/// use all 64 bits and would lose precision as JSON numbers.
[[nodiscard]] std::string to_jsonl(const TraceEvent& e);

/// Parse one JSONL line; std::nullopt on malformed input.
[[nodiscard]] std::optional<TraceEvent> from_jsonl(const std::string& line);

/// Parse "op_started" → EventKind; nullopt for unknown names.
[[nodiscard]] std::optional<EventKind> parse_kind(const std::string& name);
/// Parse "cm" → Role; nullopt for unknown names.
[[nodiscard]] std::optional<Role> parse_role(const std::string& name);

/// Write events as JSONL; returns false on I/O failure.
bool write_jsonl(const std::vector<TraceEvent>& events,
                 const std::string& path);

/// Read a JSONL trace, skipping blank lines; malformed lines are
/// counted in `*bad_lines` (if given) and skipped.
[[nodiscard]] std::vector<TraceEvent> read_jsonl(std::istream& in,
                                                 std::size_t* bad_lines =
                                                     nullptr);
[[nodiscard]] std::vector<TraceEvent> read_jsonl_file(const std::string& path,
                                                      std::size_t* bad_lines =
                                                          nullptr);

/// CSV with header "t,kind,role,agent,span,label,a,b".
[[nodiscard]] std::string to_csv(const std::vector<TraceEvent>& events);
bool write_csv(const std::vector<TraceEvent>& events, const std::string& path);

}  // namespace flecc::obs

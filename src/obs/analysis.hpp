// Offline trace analysis: turns an obs::TraceEvent stream into per-op
// latency distributions, retransmit/duplicate/drop tallies, and a
// textual message-sequence view for one span. Used by tools/flecc_trace
// and by the benches' --trace summaries. The summary is the one the
// invariant monitor (obs/monitor) fills in its checking pass.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flecc::obs {

/// Aggregate view of one trace: what monitor::InvariantMonitor counts
/// and pairs in its pass over the events (see summarize()).
struct TraceSummary {
  /// op_started → op_completed latency in microseconds, keyed by op
  /// label ("pull", "push", "acquire", ...).
  std::map<std::string, sim::SampleSet> op_latency_us;
  /// Ops started but never completed (crashed views, truncated trace).
  /// Ops interrupted by a directory restart are counted separately in
  /// ops_unfinished_recovery, not here.
  std::uint64_t ops_unfinished = 0;
  /// Ops open when a directory recovery began: the cache manager
  /// re-issued them under the new generation (a fresh span), so they
  /// are expected casualties of the restart, not truncation.
  std::uint64_t ops_unfinished_recovery = 0;

  std::uint64_t ops_enqueued = 0;
  std::uint64_t ops_started = 0;
  std::uint64_t ops_completed = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t drops = 0;
  /// Drops by reason name ("loss", "partition", "no_route", "unbound").
  std::map<std::string, std::uint64_t> drops_by_reason;
  std::uint64_t heartbeat_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t merges = 0;
  /// Trigger firings by label ("push", "pull", "validity").
  std::map<std::string, std::uint64_t> trigger_fires;
  std::uint64_t mode_switches = 0;
  /// Monitor findings embedded in the trace (kInvariantViolation /
  /// kMonitorWarning events emitted by obs::monitor::InvariantMonitor).
  std::uint64_t invariant_violations = 0;
  std::uint64_t monitor_warnings = 0;

  /// Directory crash-recovery facts (kRecoveryBegin / kRecoveryEnd /
  /// kMsgFenced; see OBSERVABILITY.md "Recovery metrics").
  std::uint64_t recovery_epochs = 0;      ///< kRecoveryBegin events
  std::uint64_t recovery_unresolved = 0;  ///< begins without an end
  std::uint64_t fenced_messages = 0;      ///< stale-generation rejections
  std::uint64_t wal_replayed = 0;         ///< checkpoint entries replayed
  std::uint64_t reannouncements = 0;      ///< RebuildReply re-announcements
  /// Per-epoch rebuild duration (recovery_begin → recovery_end), µs.
  sim::SampleSet rebuild_duration_us;

  /// Overload facts (kLoadShed / kBreakerTransition / kRetryExhausted).
  std::uint64_t load_sheds = 0;           ///< admission-control refusals
  std::uint64_t breaker_transitions = 0;  ///< CM breaker state changes
  std::uint64_t retries_exhausted = 0;    ///< ops abandoned terminally

  /// View-migration facts (kMigrateBegin / kMigrateDone /
  /// kMigrateAborted / kJournalReplay; see OBSERVABILITY.md "Migration
  /// & journaling counter families").
  std::uint64_t migration_epochs = 0;      ///< kMigrateBegin events
  std::uint64_t migrations_aborted = 0;    ///< closed by kMigrateAborted
  std::uint64_t migration_unresolved = 0;  ///< begins with no outcome
  std::uint64_t journal_replays = 0;       ///< CM journal-driven restarts
  std::uint64_t journal_replayed = 0;      ///< journal records re-issued
  /// Per-epoch settle duration (migrate_begin → done/aborted), µs.
  sim::SampleSet migration_duration_us;

  /// SLO alert lifecycle (kAlertRaised / kAlertCleared emitted by
  /// obs::AlertEngine; `label` carries the rule name).
  std::uint64_t alerts_raised = 0;
  std::uint64_t alerts_cleared = 0;

  sim::Time first_at = 0;
  sim::Time last_at = 0;
  std::uint64_t total_events = 0;
};

/// Name for a DropReason code (TraceEvent::a of kMsgDropped).
[[nodiscard]] const char* drop_reason_name(std::uint64_t code);

/// The summary an InvariantMonitor fills while it checks the events,
/// replayed in time order (any input order; ties keep their order).
[[nodiscard]] TraceSummary summarize(std::vector<TraceEvent> events);

/// Fold a summary into a MetricsRegistry ("trace." counters plus
/// "op.<label>.latency_us" distributions).
void export_metrics(const TraceSummary& s, MetricsRegistry& reg);

/// Render the per-op latency table (count/mean/p50/p99/max, µs) plus
/// the reliability tallies — flecc_trace's default report.
[[nodiscard]] std::string render_report(const TraceSummary& s);

/// Spans that appear in the trace, most events first — helps pick a
/// span for render_sequence(). Each entry: (span, op label, events).
struct SpanInfo {
  std::uint64_t span = 0;
  std::string label;
  std::size_t events = 0;
};
[[nodiscard]] std::vector<SpanInfo> list_spans(
    const std::vector<TraceEvent>& events);

/// Textual message-sequence view of one operation: every event carrying
/// `span`, time-ordered, one line per event with role/agent/kind/label.
[[nodiscard]] std::string render_sequence(const std::vector<TraceEvent>& events,
                                          std::uint64_t span);

}  // namespace flecc::obs

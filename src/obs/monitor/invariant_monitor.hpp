// Online protocol conformance monitor (ISSUE: observability layer;
// PROTOCOL.md "Invariants" states I1-I4 formally, OBSERVABILITY.md
// documents the monitor's events and metrics).
//
// The monitor is a TraceSink: attach it to a TraceRecorder before the
// run (TraceRecorder::attach_sink) and it rebuilds a shadow model of
// the protocol from the event stream — which view each agent holds,
// who is exclusive, which dirty extractions are in flight, each
// agent's Lamport clock — and checks the coherence invariants on the
// fly:
//
//   I1 exclusivity      After a strong-mode AcquireGrant, no other
//                       conflicting view may still hold a copy the
//                       directory never asked to invalidate. The trace
//                       carries no property sets, so every pair of
//                       views counts as conflicting (true of every
//                       bundled bench and the airline example).
//   I2 exactly-once     Every dirty extraction (FetchReply,
//                       InvalidateAck, push/kill image) merges into
//                       the primary at most once, across the live,
//                       late-straggler and push-borne echo paths.
//   I3 no-lost-update   Every dirty extraction merges at least once;
//                       a push/kill that completes without its prior
//                       extractions having merged lost updates.
//   I4 mode quiescence  No weak-mode pull ISSUED for a view causally
//                       after its switch to STRONG mode (pulls already
//                       queued at the switch ack drain legitimately).
//   causality           Per-agent Lamport clocks never regress, and a
//                       span's directory-side events are causally
//                       after the requester's first transmission.
//
// Liveness problems (ops pending past a threshold, unacked heartbeat
// streaks, extractions unconfirmed at end of trace) are reported as
// warnings, not violations.
//
// The same engine runs online (sink) and offline (run() over a sorted
// snapshot or a JSONL trace via tools/flecc_check). on_event is
// mutex-serialized so ThreadFabric agents may emit concurrently; it
// never calls back into the protocol. Events of kind
// kInvariantViolation/kMonitorWarning are ignored on input so a
// monitor can feed its own findings into a traced buffer without
// feedback.
//
// The pass that checks the trace also summarizes it: summary() holds
// the per-kind tallies, the op latencies and the recovery and migration
// epochs, and obs::summarize() (tools/flecc_trace) is a monitor run
// over the trace, so the two tools read one set of numbers.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flecc::obs::monitor {

/// The checked invariants (PROTOCOL.md "Invariants").
enum class Invariant : std::uint8_t {
  kExclusivity,      ///< I1: strong-mode holders are invalidated first
  kExactlyOnceMerge, ///< I2: an extraction merges at most once
  kNoLostUpdate,     ///< I3: an extraction merges at least once
  kModeQuiescence,   ///< I4: no weak grant after a strong switch
  kCausality,        ///< Lamport stamps never regress / invert
};

/// Stable short name ("I1.exclusivity", ...), used as the label of
/// emitted kInvariantViolation events.
[[nodiscard]] const char* to_string(Invariant inv) noexcept;

/// One finding. `agent` is the agent_key of the endpoint the finding
/// concerns (0 when unattributable), `span` the operation involved.
struct Finding {
  Invariant invariant = Invariant::kExclusivity;
  sim::Time at = 0;
  std::uint64_t agent = 0;
  std::uint64_t span = 0;
  std::string detail;
};

/// Online/offline protocol conformance checker (see file comment).
class InvariantMonitor : public TraceSink {
 public:
  /// Knobs; the zero-argument constructor uses the defaults below.
  struct Config {
    /// Warn when an op stays pending longer than this (liveness
    /// watchdog); 0 disables. Measured in fabric time against the
    /// newest event seen.
    sim::Duration max_op_age = 0;
    /// Optional buffer to emit kInvariantViolation / kMonitorWarning
    /// events into (so findings appear in the exported trace). Not
    /// owned. The monitor ignores those kinds on input, so attaching
    /// the monitor to this very buffer does not feed back.
    TraceBuffer* out = nullptr;
  };

  InvariantMonitor() : InvariantMonitor(Config()) {}
  explicit InvariantMonitor(Config cfg);

  /// Online entry point (thread-safe; serialized by an internal mutex).
  void on_event(const TraceEvent& e) override;

  /// Offline entry point: feed a whole (time-sorted) trace, then
  /// finalize. Equivalent to on_event per element + finalize(), except
  /// that the findings the trace carries count in summary().
  void run(const std::vector<TraceEvent>& events);

  /// End-of-run checks: unmerged extractions, still-pending ops.
  /// Idempotent; called automatically by run().
  void finalize();

  // ---- results (read after the run / finalize) -----------------------

  [[nodiscard]] const std::vector<Finding>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] const std::vector<Finding>& warnings() const noexcept {
    return warnings_;
  }
  [[nodiscard]] std::uint64_t violation_count(Invariant inv) const;
  [[nodiscard]] std::uint64_t check_count(Invariant inv) const;
  [[nodiscard]] std::uint64_t events_seen() const noexcept {
    return events_seen_;
  }

  /// Everything the pass counted and paired (see obs::TraceSummary);
  /// the unfinished-op counts are filled in by finalize().
  [[nodiscard]] const TraceSummary& summary() const noexcept {
    return summary_;
  }

  /// Number of directory recovery epochs that began (recovery_begin)
  /// but never completed (recovery_end) — nonzero means the trace ends
  /// with the directory still rebuilding, so the run's final state is
  /// not trustworthy even if no invariant tripped.
  [[nodiscard]] std::uint64_t unresolved_recovery_epochs() const;

  /// Number of migration epochs that began (migrate_begin) but reached
  /// neither migrate_done nor migrate_aborted — nonzero means the trace
  /// ends with a view mid-handoff, so its ownership is indeterminate.
  [[nodiscard]] std::uint64_t unresolved_migration_epochs() const;

  /// Human-readable per-invariant pass/violation table plus the
  /// first few findings; ends with "monitor: PASS" or
  /// "monitor: N violation(s)".
  [[nodiscard]] std::string health_report() const;

  /// Fold the monitor's state into `reg` as "monitor." metrics:
  /// per-invariant check/violation counters, warning counters, op
  /// latency distributions and per-view staleness gauges (see
  /// OBSERVABILITY.md for the canonical names).
  void export_metrics(MetricsRegistry& reg) const;

 private:
  /// Extraction ledger key: invalidate-epoch vs fetch-token namespaces
  /// (kNsFetch/kNsInvalidate, id = source view) unify the live, late
  /// and echo merge paths of one extraction; push/kill images are
  /// identified by their op span (kNsSpan, id = span).
  enum : std::uint8_t { kNsFetch = 0, kNsInvalidate = 1, kNsSpan = 2 };
  using ExtractKey = std::tuple<std::uint8_t, std::uint64_t, std::uint64_t>;

  /// One dirty extraction's merge ledger entry.
  struct Extraction {
    sim::Time at = 0;
    std::uint64_t agent = 0;
    std::uint64_t view = 0;
    std::uint64_t clock = 0;  ///< sender stamp, for the causality check
    int merges = 0;
    bool reported = false;  ///< an I3 finding already covers it
    /// Recovery epoch the extraction was made in. A directory restart
    /// bumps the monitor's epoch; extractions from earlier epochs are
    /// exempt from the push/kill-completion I3 check (their echoes may
    /// still be settling through the revive path) and extractions that
    /// merged pre-crash earn one legal re-merge in the new epoch.
    std::uint64_t epoch = 0;
  };

  /// An op_started span awaiting its op_completed.
  struct PendingOp {
    std::string label;
    sim::Time started_at = 0;
    std::uint64_t agent = 0;
    std::uint64_t first_send_clock = 0;  ///< requester's first transmission
    std::uint64_t first_dm_clock = 0;    ///< directory's first span event
    bool age_warned = false;
  };

  /// Shadow state per cache-manager endpoint.
  struct AgentState {
    std::uint64_t view = 0;  ///< current view id (0 = not yet learned)
    bool strong = false;
    /// I4: pulls enqueued before the strong switch ack are allowed to
    /// complete after it (FIFO drains the queue); each weak-mode
    /// enqueue earns a credit that one completion consumes.
    std::uint64_t weak_pull_credits = 0;
    std::uint64_t last_clock = 0;
    std::uint64_t hb_streak = 0;
    sim::Time last_sync_at = 0;  ///< last completed init/pull/acquire/push
  };

  /// I1 bookkeeping for a view granted strong exclusivity.
  struct Holder {
    bool invalidated_since_grant = false;
    sim::Time granted_at = 0;
  };

  void process(const TraceEvent& e);
  void tally(const TraceEvent& e);
  void on_cm_event(const TraceEvent& e);
  void on_dm_event(const TraceEvent& e);
  void begin_recovery(const TraceEvent& e);
  void end_recovery(const TraceEvent& e);
  void begin_migration(const TraceEvent& e);
  void end_migration(const TraceEvent& e, bool aborted);
  void record_extraction(std::uint8_t ns, std::uint64_t round,
                         std::uint64_t id, const TraceEvent& e);
  void check_span_causality(const TraceEvent& e);
  void violation(Invariant inv, const TraceEvent& e, std::uint64_t span,
                 std::string detail);
  void warning(const TraceEvent& e, std::uint64_t span, std::string detail);
  void emit_finding(EventKind kind, const Finding& f);
  AgentState& agent(std::uint64_t key) { return agents_[key]; }

  Config cfg_;
  mutable std::mutex mu_;
  bool finalized_ = false;

  std::uint64_t events_seen_ = 0;
  sim::Time last_at_ = 0;

  std::unordered_map<std::uint64_t, AgentState> agents_;
  std::unordered_map<std::uint64_t, std::uint64_t> view_agent_;
  std::set<std::uint64_t> evicted_views_;
  std::map<std::uint64_t, Holder> holders_;  ///< I1: exclusive views
  std::map<ExtractKey, Extraction> extractions_;
  std::unordered_map<std::uint64_t, PendingOp> pending_;

  TraceSummary summary_;

  // ---- crash-recovery epochs (directory restarts) --------------------
  std::uint64_t epoch_ = 0;  ///< bumps at each recovery_begin
  /// Latest recovery_begin: ops still open that started by then were
  /// interrupted by the restart, not truncated.
  sim::Time last_recovery_at_ = 0;
  /// Open recoveries: generation → recovery_begin time; drained by
  /// recovery_end, leftovers are unresolved at end of trace.
  std::map<std::uint64_t, sim::Time> open_recoveries_;

  // ---- migration epochs (live view handoffs) -------------------------
  /// One inflight ViewMove: the migrating view and when it began.
  struct OpenMigration {
    std::uint64_t view = 0;
    sim::Time began = 0;
  };
  /// Open migrations keyed by migration epoch; drained by
  /// migrate_done / migrate_aborted, leftovers unresolved at trace end.
  std::map<std::uint64_t, OpenMigration> open_migrations_;
  /// Settled epochs → aborted flag. One legal ownership transfer per
  /// epoch: a migrate_done for an epoch already settled (done OR
  /// aborted) is an exclusivity violation.
  std::map<std::uint64_t, bool> closed_migrations_;

  std::uint64_t checks_[5] = {};
  std::uint64_t fails_[5] = {};
  std::vector<Finding> violations_;
  std::vector<Finding> warnings_;
};

}  // namespace flecc::obs::monitor

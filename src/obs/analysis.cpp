#include "obs/analysis.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "obs/monitor/invariant_monitor.hpp"

namespace flecc::obs {

const char* drop_reason_name(std::uint64_t code) {
  switch (code) {
    case kDropLoss: return "loss";
    case kDropPartition: return "partition";
    case kDropNoRoute: return "no_route";
    case kDropUnbound: return "unbound";
    case kDropOverload: return "overload";
    default: return "other";
  }
}

TraceSummary summarize(std::vector<TraceEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     return x.at < y.at;
                   });
  monitor::InvariantMonitor mon;
  mon.run(events);
  return mon.summary();
}

void export_metrics(const TraceSummary& s, MetricsRegistry& reg) {
  reg.inc("trace.events", s.total_events);
  reg.inc("trace.ops.enqueued", s.ops_enqueued);
  reg.inc("trace.ops.started", s.ops_started);
  reg.inc("trace.ops.completed", s.ops_completed);
  reg.inc("trace.ops.unfinished", s.ops_unfinished);
  reg.inc("trace.ops.unfinished.recovery", s.ops_unfinished_recovery);
  reg.inc("trace.msgs.sent", s.msgs_sent);
  reg.inc("trace.msgs.received", s.msgs_received);
  reg.inc("trace.msgs.retransmitted", s.retransmits);
  reg.inc("trace.dedup.hits", s.dedup_hits);
  reg.inc("trace.msgs.dropped", s.drops);
  for (const auto& [reason, n] : s.drops_by_reason) {
    reg.inc("trace.msgs.dropped." + reason, n);
  }
  reg.inc("trace.heartbeat.misses", s.heartbeat_misses);
  reg.inc("trace.views.evicted", s.evictions);
  reg.inc("trace.merges", s.merges);
  for (const auto& [label, n] : s.trigger_fires) {
    reg.inc("trace.trigger.fired." + label, n);
  }
  reg.inc("trace.mode.switches", s.mode_switches);
  reg.inc("trace.invariant.violations", s.invariant_violations);
  reg.inc("trace.monitor.warnings", s.monitor_warnings);
  reg.inc("recovery.epochs", s.recovery_epochs);
  reg.inc("recovery.unresolved_epochs", s.recovery_unresolved);
  reg.inc("recovery.fenced_messages", s.fenced_messages);
  reg.inc("recovery.wal_replayed", s.wal_replayed);
  reg.inc("recovery.reannouncements", s.reannouncements);
  {
    auto& ss = reg.samples("recovery.rebuild_duration_us");
    for (double v : s.rebuild_duration_us.samples()) ss.add(v);
  }
  reg.inc("trace.load.sheds", s.load_sheds);
  reg.inc("trace.breaker.transitions", s.breaker_transitions);
  reg.inc("trace.retries.exhausted", s.retries_exhausted);
  reg.inc("migrate.epochs", s.migration_epochs);
  reg.inc("migrate.aborted", s.migrations_aborted);
  reg.inc("migrate.unresolved_epochs", s.migration_unresolved);
  reg.inc("journal.replays", s.journal_replays);
  reg.inc("journal.replayed_records", s.journal_replayed);
  reg.inc("trace.alerts.raised", s.alerts_raised);
  reg.inc("trace.alerts.cleared", s.alerts_cleared);
  {
    auto& ss = reg.samples("migrate.duration_us");
    for (double v : s.migration_duration_us.samples()) ss.add(v);
  }
  for (const auto& [label, lat] : s.op_latency_us) {
    auto& ss = reg.samples("op." + label + ".latency_us");
    for (double v : lat.samples()) ss.add(v);
  }
}

namespace {

std::string fmt_us(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

}  // namespace

std::string render_report(const TraceSummary& s) {
  std::ostringstream out;
  out << "trace: " << s.total_events << " events, "
      << (s.last_at - s.first_at) << " us span\n\n";

  out << "per-op latency (us):\n";
  char head[160];
  std::snprintf(head, sizeof(head), "  %-12s %8s %10s %10s %10s %10s %10s\n",
                "op", "count", "mean", "p50", "p99", "p99.9", "max");
  out << head;
  if (s.op_latency_us.empty()) {
    out << "  (no completed ops in trace)\n";
  }
  for (const auto& [label, lat] : s.op_latency_us) {
    char row[192];
    std::snprintf(row, sizeof(row),
                  "  %-12s %8zu %10s %10s %10s %10s %10s\n", label.c_str(),
                  lat.count(), fmt_us(lat.mean()).c_str(),
                  fmt_us(lat.quantile(0.5)).c_str(),
                  fmt_us(lat.quantile(0.99)).c_str(),
                  fmt_us(lat.quantile(0.999)).c_str(),
                  fmt_us(lat.quantile(1.0)).c_str());
    out << row;
  }
  if (s.ops_unfinished != 0) {
    out << "  unfinished ops: " << s.ops_unfinished
        << " (crashed views or truncated trace)\n";
  }
  if (s.ops_unfinished_recovery != 0) {
    out << "  ops interrupted by DM restart: " << s.ops_unfinished_recovery
        << " (re-issued under the new generation)\n";
  }

  if (!s.op_latency_us.empty()) {
    out << "\nlatency histogram (log2 buckets, us):\n";
    for (const auto& [label, lat] : s.op_latency_us) {
      sim::RunningStat st;
      for (double v : lat.samples()) st.add(v);
      out << "  " << label << ":";
      for (std::size_t i = 0; i < sim::RunningStat::kBuckets; ++i) {
        if (st.bucket(i) == 0) continue;
        out << " [" << fmt_us(sim::RunningStat::bucket_lo(i)) << ","
            << fmt_us(sim::RunningStat::bucket_lo(i + 1)) << ")="
            << st.bucket(i);
      }
      out << "\n";
    }
  }

  out << "\nops: enqueued=" << s.ops_enqueued << " started=" << s.ops_started
      << " completed=" << s.ops_completed << "\n";
  out << "messages: sent=" << s.msgs_sent << " received=" << s.msgs_received
      << " retransmitted=" << s.retransmits << "\n";
  out << "dedup hits: " << s.dedup_hits << "\n";
  out << "drops: " << s.drops;
  if (!s.drops_by_reason.empty()) {
    out << " (";
    bool first = true;
    for (const auto& [reason, n] : s.drops_by_reason) {
      if (!first) out << ", ";
      out << reason << "=" << n;
      first = false;
    }
    out << ")";
  }
  out << "\n";
  out << "heartbeat misses: " << s.heartbeat_misses
      << "  evictions: " << s.evictions << "  merges: " << s.merges
      << "  mode switches: " << s.mode_switches << "\n";
  if (!s.trigger_fires.empty()) {
    out << "trigger fires:";
    for (const auto& [label, n] : s.trigger_fires) {
      out << " " << label << "=" << n;
    }
    out << "\n";
  }
  if (s.invariant_violations != 0 || s.monitor_warnings != 0) {
    out << "monitor findings: violations=" << s.invariant_violations
        << " warnings=" << s.monitor_warnings << "\n";
  }
  if (s.recovery_epochs != 0 || s.fenced_messages != 0) {
    out << "recovery: epochs=" << s.recovery_epochs
        << " unresolved=" << s.recovery_unresolved
        << " wal_replayed=" << s.wal_replayed
        << " reannouncements=" << s.reannouncements
        << " fenced=" << s.fenced_messages;
    if (s.rebuild_duration_us.count() != 0) {
      out << " rebuild_mean_us=" << fmt_us(s.rebuild_duration_us.mean());
    }
    out << "\n";
  }
  if (s.migration_epochs != 0 || s.journal_replays != 0) {
    out << "migration: epochs=" << s.migration_epochs
        << " aborted=" << s.migrations_aborted
        << " unresolved=" << s.migration_unresolved
        << " journal_replays=" << s.journal_replays
        << " journal_replayed=" << s.journal_replayed;
    if (s.migration_duration_us.count() != 0) {
      out << " settle_mean_us=" << fmt_us(s.migration_duration_us.mean());
    }
    out << "\n";
  }
  if (s.alerts_raised != 0 || s.alerts_cleared != 0) {
    out << "alerts: raised=" << s.alerts_raised
        << " cleared=" << s.alerts_cleared << "\n";
  }
  return out.str();
}

std::vector<SpanInfo> list_spans(const std::vector<TraceEvent>& events) {
  std::unordered_map<std::uint64_t, SpanInfo> by_span;
  for (const auto& e : events) {
    if (e.span == 0) continue;
    auto& info = by_span[e.span];
    info.span = e.span;
    ++info.events;
    if (e.kind == EventKind::kOpStarted) info.label = e.label;
  }
  std::vector<SpanInfo> out;
  out.reserve(by_span.size());
  for (auto& [span, info] : by_span) out.push_back(std::move(info));
  std::sort(out.begin(), out.end(), [](const SpanInfo& x, const SpanInfo& y) {
    if (x.events != y.events) return x.events > y.events;
    return x.span < y.span;
  });
  return out;
}

std::string render_sequence(const std::vector<TraceEvent>& events,
                            std::uint64_t span) {
  std::vector<TraceEvent> seq;
  for (const auto& e : events) {
    if (e.span == span) seq.push_back(e);
  }
  std::stable_sort(seq.begin(), seq.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     return x.at < y.at;
                   });
  std::ostringstream out;
  out << "span " << span << ": " << seq.size() << " events\n";
  if (seq.empty()) {
    out << "  (span not present in trace)\n";
    return out.str();
  }
  const sim::Time t0 = seq.front().at;
  for (const auto& e : seq) {
    const net::Address agent = agent_addr(e.agent);
    char row[192];
    std::snprintf(row, sizeof(row),
                  "  +%8lld us  %-6s %4u:%-4u  %-18s %-22s a=%llu b=%llu\n",
                  static_cast<long long>(e.at - t0), to_string(e.role),
                  agent.node, agent.port, to_string(e.kind), e.label,
                  static_cast<unsigned long long>(e.a),
                  static_cast<unsigned long long>(e.b));
    out << row;
  }
  return out.str();
}

}  // namespace flecc::obs

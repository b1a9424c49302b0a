// MetricsRegistry: a named bag of counters, streaming stats and exact
// sample sets, built on sim/stats.hpp. The
// protocol FSMs keep their lightweight per-instance sim::CounterSet;
// this registry is the aggregation point where a bench or the trace
// analyzer rolls per-agent numbers (and trace-derived latencies) into
// one exportable table. Metric names are dotted paths
// ("op.pull.latency_us", "net.dropped.loss"); OBSERVABILITY.md lists
// the canonical names.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "sim/stats.hpp"

namespace flecc::obs {

/// Named counters + distributions with CSV/plaintext export. Not
/// thread-safe; aggregate after the run.
class MetricsRegistry {
 public:
  // ---- counters -------------------------------------------------------
  void inc(const std::string& name, std::uint64_t by = 1) {
    counters_.inc(name, by);
  }
  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    return counters_.get(name);
  }
  [[nodiscard]] const sim::CounterSet& counters() const noexcept {
    return counters_;
  }
  /// Fold a protocol agent's counter set in, optionally prefixed
  /// ("cm.7." + name).
  void absorb(const sim::CounterSet& src, const std::string& prefix = "");

  // ---- distributions --------------------------------------------------
  /// Streaming moments for `name` (created on first use).
  sim::RunningStat& stat(const std::string& name) { return stats_[name]; }
  /// Exact-quantile samples for `name` (created on first use).
  sim::SampleSet& samples(const std::string& name) { return samples_[name]; }
  /// Record one observation into the stat and samples of `name`.
  void observe(const std::string& name, double value);

  [[nodiscard]] const std::map<std::string, sim::RunningStat>& stats()
      const noexcept {
    return stats_;
  }
  [[nodiscard]] const std::map<std::string, sim::SampleSet>& sample_sets()
      const noexcept {
    return samples_;
  }

  // ---- export ---------------------------------------------------------
  /// CSV rows: `kind,name,field,value` (kind in counter|stat|quantile).
  /// Quantile rows are p50/p90/p99/p999 (rows are append-only: new
  /// quantiles go after the existing ones).
  [[nodiscard]] std::string to_csv() const;
  bool write_csv(const std::string& path) const;
  /// Human-readable summary (counters, then distributions with
  /// count/mean/p50/p99/max).
  [[nodiscard]] std::string to_string() const;
  /// Prometheus text exposition format (text/plain; version 0.0.4),
  /// built on obs/prom.hpp: every family gets `# HELP`/`# TYPE`
  /// lines, names get a "flecc_" prefix with illegal characters
  /// mapped to underscores, and dotted category families
  /// ("flow.shed.<type>", "msg.dropped.<reason>", ...) render as one
  /// labeled series per dimension instead of name-mangled series.
  /// Counters export as `counter` (`_total` suffix), sample sets as
  /// `summary` (p50/p90/p99/p99.9 quantiles plus _sum/_count), and
  /// stats without a sample set as `gauge` (mean). Output passes
  /// prom::validate(); see OBSERVABILITY.md.
  [[nodiscard]] std::string to_prometheus() const;
  bool write_prometheus(const std::string& path) const;

 private:
  sim::CounterSet counters_;
  std::map<std::string, sim::RunningStat> stats_;
  std::map<std::string, sim::SampleSet> samples_;
};

}  // namespace flecc::obs

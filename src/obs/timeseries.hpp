// TimeSeriesRegistry: the time dimension for Flecc's metrics.
// MetricsRegistry and the per-agent CounterSets are cumulative
// snapshots — fine for end-of-run tables, useless for "is the
// retransmit rate spiking *right now* on this view", which is exactly
// what metric-driven policy adaptation (ROADMAP item 3) and live
// dashboards (item 5) need. This registry samples a set of collector
// callbacks on a configurable interval into a bounded ring of windowed
// snapshots, deriving per-window deltas and per-second rates for
// counters and windowed quantiles for RunningStats (from log2-bucket
// deltas, so no samples are retained).
//
// Series are dimensional: a SeriesId is a name plus a sorted label set
// ({view="7"}, {flight="204"}), not a dot-concatenated flat name, so
// exporters can render proper Prometheus labels and consumers can
// aggregate across a dimension.
//
// Determinism discipline: sample() is driven from simulated time (a
// daemon event under SimFabric), collectors only *read* protocol
// state, and nothing here feeds back into the protocol — so a run
// with the sampler attached is bit-identical to one without. The ring
// is mutex-guarded only because a TelemetryServer thread may render a
// window while the sim thread publishes the next one.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace flecc::obs {

/// One dimension of a series ("view" = "12"). Keys should be legal
/// Prometheus label keys; values are free-form (escaped on export).
struct TsLabel {
  std::string key;
  std::string value;
  friend bool operator<(const TsLabel& a, const TsLabel& b) {
    return a.key < b.key || (a.key == b.key && a.value < b.value);
  }
  friend bool operator==(const TsLabel& a, const TsLabel& b) {
    return a.key == b.key && a.value == b.value;
  }
};
using TsLabels = std::vector<TsLabel>;

/// Identity of a series: dotted name + sorted labels.
struct SeriesId {
  std::string name;
  TsLabels labels;
  friend bool operator<(const SeriesId& a, const SeriesId& b) {
    return a.name < b.name || (a.name == b.name && a.labels < b.labels);
  }
  friend bool operator==(const SeriesId& a, const SeriesId& b) {
    return a.name == b.name && a.labels == b.labels;
  }
};

enum class SeriesKind : std::uint8_t { kCounter, kGauge };

/// One series' reading within a closed window.
struct SeriesSample {
  SeriesKind kind = SeriesKind::kGauge;
  double value = 0.0;  ///< cumulative (counter) or instantaneous (gauge)
  double delta = 0.0;  ///< counter increase within the window (0 for gauges)
  double rate = 0.0;   ///< delta per second of window span (0 for gauges)
};

/// Windowed distribution summary for a RunningStat-backed series,
/// derived from log2-bucket deltas between consecutive samples — the
/// quantiles describe only the observations that landed in this
/// window.
struct StatWindow {
  std::uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// One closed sampling window.
struct TelemetryWindow {
  std::uint64_t index = 0;  ///< 0-based; == windows closed before this one
  sim::Time start = 0;      ///< exclusive (previous sample point)
  sim::Time end = 0;        ///< inclusive (this sample point)
  std::map<SeriesId, SeriesSample> series;
  std::map<SeriesId, StatWindow> stats;
};

/// The mutable view handed to collectors during sample(): collectors
/// report current cumulative/instantaneous values and the registry
/// derives deltas/rates against its previous sample.
class SampleFrame {
 public:
  /// Report a cumulative counter. If the value ever decreases (agent
  /// restart, view migration), the delta clamps to the new value — a
  /// counter reset, not a negative rate.
  void counter(std::string_view name, double cumulative, TsLabels labels = {});
  /// Report an instantaneous gauge.
  void gauge(std::string_view name, double value, TsLabels labels = {});
  /// Report a RunningStat for windowed quantiles.
  void stat(std::string_view name, const sim::RunningStat& s,
            TsLabels labels = {});
  /// Same for a SampleSet (folded into log2 buckets at sampling time).
  void stat(std::string_view name, const sim::SampleSet& s,
            TsLabels labels = {});
  /// Fold a whole CounterSet in as counters, names prefixed
  /// ("dm." + name). Every entry runs through prom::split_family, so
  /// dotted category families ("flow.shed.Pull") arrive as labeled
  /// series rather than one series per category value; `labels` is
  /// appended to every resulting series.
  void counters(const sim::CounterSet& set, std::string_view prefix,
                const TsLabels& labels = {});

 private:
  friend class TimeSeriesRegistry;
  /// Cumulative RunningStat reading (count/sum/buckets) a collector
  /// reported; the registry diffs consecutive readings per window.
  struct StatReading {
    std::uint64_t count = 0;
    double sum = 0.0;
    std::uint64_t buckets[sim::RunningStat::kBuckets] = {};
  };
  std::map<SeriesId, SeriesSample> series_;
  std::map<SeriesId, StatReading> stats_;
};

/// Samples registered collectors into a bounded ring of
/// TelemetryWindows. Collectors run on the sampling thread (the sim
/// thread, in every current use); snapshot accessors are safe to call
/// from other threads.
class TimeSeriesRegistry {
 public:
  /// `capacity` windows are retained in the ring; older windows fall
  /// off. Each sample() call closes one window at the time it is given,
  /// so the caller's schedule sets the sampling cadence.
  explicit TimeSeriesRegistry(std::size_t capacity = 64)
      : capacity_(capacity) {}

  using Collector = std::function<void(SampleFrame&)>;
  /// Register a collector; the returned token deregisters it again.
  /// Collectors typically capture the component they read, so anything
  /// shorter-lived than the registry (a testbed handing a shared hub
  /// from run to run) MUST remove_collector() before it dies.
  std::size_t add_collector(Collector c);
  void remove_collector(std::size_t token);
  [[nodiscard]] std::size_t collector_count() const {
    return collectors_.size();
  }

  /// Run every collector, close the window ending at `now`, derive
  /// deltas/rates/windowed quantiles against the previous sample, and
  /// publish the window into the ring.
  void sample(sim::Time now);

  [[nodiscard]] std::uint64_t windows_closed() const;
  /// Copy of the most recent window (nullopt before the first sample).
  [[nodiscard]] std::optional<TelemetryWindow> latest() const;
  /// Copies of up to the `n` most recent windows, oldest first.
  [[nodiscard]] std::vector<TelemetryWindow> recent(std::size_t n) const;
  /// Distinct series (counter/gauge + stat) in the latest window.
  [[nodiscard]] std::size_t series_count() const;

 private:
  std::size_t capacity_;
  std::vector<std::pair<std::size_t, Collector>> collectors_;
  std::size_t next_token_ = 0;
  // Previous cumulative readings for delta derivation (sampler thread
  // only — no lock needed).
  std::map<SeriesId, double> prev_counter_;
  std::map<SeriesId, SampleFrame::StatReading> prev_stat_;
  sim::Time last_sample_ = 0;

  mutable std::mutex mu_;  // guards ring_ and closed_
  std::deque<TelemetryWindow> ring_;
  std::uint64_t closed_ = 0;
};

}  // namespace flecc::obs

#include "obs/timeseries.hpp"

#include <algorithm>

#include "obs/prom.hpp"

namespace flecc::obs {

namespace {

SeriesId make_id(std::string_view name, TsLabels labels) {
  std::sort(labels.begin(), labels.end());
  return SeriesId{std::string(name), std::move(labels)};
}

/// Quantile of the observations that landed in this window, from the
/// per-window deltas of RunningStat's log2 buckets (linear
/// interpolation inside the winning bucket).
double window_quantile(const std::uint64_t (&db)[sim::RunningStat::kBuckets],
                       std::uint64_t dcount, double q) {
  if (dcount == 0) return 0.0;
  const double target = q * static_cast<double>(dcount);
  double cum = 0.0;
  for (std::size_t i = 0; i < sim::RunningStat::kBuckets; ++i) {
    if (db[i] == 0) continue;
    const double next = cum + static_cast<double>(db[i]);
    if (next >= target) {
      const double lo = sim::RunningStat::bucket_lo(i);
      const double hi = i + 1 < sim::RunningStat::kBuckets
                            ? sim::RunningStat::bucket_lo(i + 1)
                            : lo * 2.0;
      const double frac =
          (target - cum) / static_cast<double>(db[i]);
      return lo + frac * (hi - lo);
    }
    cum = next;
  }
  return sim::RunningStat::bucket_lo(sim::RunningStat::kBuckets - 1);
}

}  // namespace

void SampleFrame::counter(std::string_view name, double cumulative,
                          TsLabels labels) {
  SeriesSample& s = series_[make_id(name, std::move(labels))];
  s.kind = SeriesKind::kCounter;
  s.value += cumulative;  // += so two reports of one id accumulate
}

void SampleFrame::gauge(std::string_view name, double value, TsLabels labels) {
  SeriesSample& s = series_[make_id(name, std::move(labels))];
  s.kind = SeriesKind::kGauge;
  s.value += value;
}

void SampleFrame::stat(std::string_view name, const sim::RunningStat& st,
                       TsLabels labels) {
  StatReading& r = stats_[make_id(name, std::move(labels))];
  r.count += st.count();
  r.sum += st.sum();
  for (std::size_t i = 0; i < sim::RunningStat::kBuckets; ++i) {
    r.buckets[i] += st.bucket(i);
  }
}

void SampleFrame::stat(std::string_view name, const sim::SampleSet& s,
                       TsLabels labels) {
  sim::RunningStat rs;
  for (const double v : s.samples()) rs.add(v);
  stat(name, rs, std::move(labels));
}

void SampleFrame::counters(const sim::CounterSet& set, std::string_view prefix,
                           const TsLabels& labels) {
  for (const auto& [name, value] : set.all()) {
    std::string full(prefix);
    full += name;
    TsLabels series_labels = labels;
    const auto split = prom::split_family(full);
    if (split) {
      series_labels.push_back({split->label_k, split->label_v});
      full = split->base;
    }
    counter(full, static_cast<double>(value), std::move(series_labels));
  }
}

std::size_t TimeSeriesRegistry::add_collector(Collector c) {
  const std::size_t token = next_token_++;
  collectors_.emplace_back(token, std::move(c));
  return token;
}

void TimeSeriesRegistry::remove_collector(std::size_t token) {
  for (auto it = collectors_.begin(); it != collectors_.end(); ++it) {
    if (it->first == token) {
      collectors_.erase(it);
      return;
    }
  }
}

void TimeSeriesRegistry::sample(sim::Time now) {
  // Simulated time running backwards means a fresh run (new simulator)
  // took over a long-lived hub — restart the window clock so the new
  // run's first window doesn't span into the previous run's timeline.
  if (now < last_sample_) last_sample_ = 0;

  SampleFrame frame;
  for (const auto& [token, c] : collectors_) c(frame);

  TelemetryWindow w;
  w.start = last_sample_;
  w.end = now;
  const double span_sec =
      sim::to_sec(now > last_sample_ ? now - last_sample_ : 0);

  for (auto& [id, s] : frame.series_) {
    if (s.kind == SeriesKind::kCounter) {
      const auto prev = prev_counter_.find(id);
      const double before = prev == prev_counter_.end() ? 0.0 : prev->second;
      // A shrinking counter is a reset (restarted agent, migrated
      // view): count the new value as this window's increase.
      s.delta = s.value >= before ? s.value - before : s.value;
      s.rate = span_sec > 0.0 ? s.delta / span_sec : 0.0;
      prev_counter_[id] = s.value;
    }
    w.series.emplace(id, s);
  }

  for (const auto& [id, cur] : frame.stats_) {
    const auto it = prev_stat_.find(id);
    SampleFrame::StatReading prev;
    if (it != prev_stat_.end()) prev = it->second;
    StatWindow sw;
    std::uint64_t db[sim::RunningStat::kBuckets];
    const bool reset = cur.count < prev.count;
    for (std::size_t i = 0; i < sim::RunningStat::kBuckets; ++i) {
      db[i] = reset ? cur.buckets[i] : cur.buckets[i] - prev.buckets[i];
    }
    sw.count = reset ? cur.count : cur.count - prev.count;
    const double dsum = reset ? cur.sum : cur.sum - prev.sum;
    sw.mean = sw.count > 0 ? dsum / static_cast<double>(sw.count) : 0.0;
    sw.p50 = window_quantile(db, sw.count, 0.50);
    sw.p90 = window_quantile(db, sw.count, 0.90);
    sw.p99 = window_quantile(db, sw.count, 0.99);
    prev_stat_[id] = cur;
    w.stats.emplace(id, sw);
  }

  last_sample_ = now;

  std::lock_guard<std::mutex> lock(mu_);
  w.index = closed_++;
  ring_.push_back(std::move(w));
  while (ring_.size() > capacity_) ring_.pop_front();
}

std::uint64_t TimeSeriesRegistry::windows_closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::optional<TelemetryWindow> TimeSeriesRegistry::latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return std::nullopt;
  return ring_.back();
}

std::vector<TelemetryWindow> TimeSeriesRegistry::recent(std::size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t take = std::min(n, ring_.size());
  return std::vector<TelemetryWindow>(ring_.end() - static_cast<long>(take),
                                      ring_.end());
}

std::size_t TimeSeriesRegistry::series_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return 0;
  return ring_.back().series.size() + ring_.back().stats.size();
}

}  // namespace flecc::obs

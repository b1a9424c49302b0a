// Measurement plumbing shared by tests, benches, and the protocol
// implementations: streaming moments with log2 buckets,
// quantile-capable sample sets, and named counters.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace flecc::sim {

/// Streaming mean/variance/min/max (Welford's algorithm), plus a
/// fixed set of power-of-two buckets over the non-negative range so
/// tail quantiles (p99, p99.9) can be estimated without retaining
/// samples (obs::TimeSeriesRegistry's windowed quantiles read them).
/// Bucket i counts values in [2^(i-1), 2^i) (bucket 0 is [0, 1));
/// negative values land in bucket 0.
class RunningStat {
 public:
  /// Number of log2 buckets; covers the whole non-negative double
  /// range that fits in 63 bits (plenty for microsecond latencies).
  static constexpr std::size_t kBuckets = 64;

  void add(double x) noexcept;
  void reset() noexcept { *this = RunningStat{}; }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  // sample variance
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

  /// Count in log2 bucket `i` (see class comment for the ranges).
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return i < kBuckets ? buckets_[i] : 0;
  }
  /// Lower edge of bucket i: 0 for bucket 0, else 2^(i-1).
  [[nodiscard]] static double bucket_lo(std::size_t i) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
  std::uint64_t buckets_[kBuckets] = {};
};

/// Stores every sample; supports exact quantiles. Use for small-N series.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }
  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] double mean() const noexcept;
  /// Exact quantile by linear interpolation, q in [0,1]. Pre: !empty().
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }
  void clear() { samples_.clear(); sorted_ = false; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Named monotonic counters ("messages.pull", "bytes.total", ...).
/// The transparent comparator lets hot paths bump existing counters
/// from a string_view without materializing a heap key; only the
/// first-ever hit of a name allocates (the stored map key).
class CounterSet {
 public:
  void inc(std::string_view name, std::uint64_t by = 1) {
    auto it = counters_.find(name);
    if (it == counters_.end()) {
      it = counters_.emplace(std::string(name), 0).first;
    }
    it->second += by;
  }
  /// inc(prefix + suffix) without the concatenation temporary — the
  /// per-message-type counters ("msg.sent.<type>") are bumped once per
  /// send, which made the key concat a measurable allocation source.
  void inc_cat(std::string_view prefix, std::string_view suffix,
               std::uint64_t by = 1) {
    char buf[96];
    if (prefix.size() + suffix.size() <= sizeof(buf)) {
      std::memcpy(buf, prefix.data(), prefix.size());
      std::memcpy(buf + prefix.size(), suffix.data(), suffix.size());
      inc(std::string_view(buf, prefix.size() + suffix.size()), by);
    } else {
      std::string key(prefix);
      key += suffix;
      inc(key, by);
    }
  }
  /// Raise `name` to at least `v` — a peak gauge (e.g. the maximum
  /// queue depth "flow.queue.peak") living alongside the monotonic
  /// counters so snapshots/exports need no second container.
  void set_max(std::string_view name, std::uint64_t v) {
    auto it = counters_.find(name);
    if (it == counters_.end()) {
      counters_.emplace(std::string(name), v);
    } else if (it->second < v) {
      it->second = v;
    }
  }
  [[nodiscard]] std::uint64_t get(const std::string& name) const;
  [[nodiscard]] std::uint64_t total() const;
  [[nodiscard]] const std::map<std::string, std::uint64_t, std::less<>>&
  all() const {
    return counters_;
  }
  void reset() { counters_.clear(); }
  /// "name=value" lines, sorted by name.
  [[nodiscard]] std::string to_string() const;

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
};

}  // namespace flecc::sim

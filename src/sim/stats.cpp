#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace flecc::sim {

namespace {

/// Log2 bucket index for a sample: 0 for x < 1 (including negatives),
/// else 1 + floor(log2(x)), clamped to the last bucket.
std::size_t log2_bucket(double x) noexcept {
  if (!(x >= 1.0)) return 0;  // also catches NaN
  const auto v = static_cast<std::uint64_t>(std::min(
      x, 9.2e18));  // below 2^63 so the shift below stays defined
  std::size_t i = 1;
  for (std::uint64_t w = v; w > 1; w >>= 1) ++i;
  return std::min(i, RunningStat::kBuckets - 1);
}

}  // namespace

void RunningStat::add(double x) noexcept {
  ++buckets_[log2_bucket(x)];
  ++n_;
  sum_ += x;
  if (n_ == 1) {
    mean_ = min_ = max_ = x;
    m2_ = 0.0;
    return;
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStat::bucket_lo(std::size_t i) noexcept {
  if (i == 0) return 0.0;
  return std::ldexp(1.0, static_cast<int>(i) - 1);  // 2^(i-1)
}

double RunningStat::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

double SampleSet::mean() const noexcept {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double SampleSet::quantile(double q) const {
  if (samples_.empty()) {
    throw std::logic_error("SampleSet::quantile on empty set");
  }
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("SampleSet::quantile: q outside [0,1]");
  }
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

std::uint64_t CounterSet::get(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::uint64_t CounterSet::total() const {
  std::uint64_t t = 0;
  for (const auto& [_, v] : counters_) t += v;
  return t;
}

std::string CounterSet::to_string() const {
  std::ostringstream os;
  for (const auto& [k, v] : counters_) os << k << "=" << v << "\n";
  return os.str();
}

}  // namespace flecc::sim

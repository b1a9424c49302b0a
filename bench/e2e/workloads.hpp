// The benchmark's five workloads. Each round builds a fresh deployment,
// sets it up (registration, init_image, one warm-up op per view), runs
// a closed-loop measured phase ending with a kill wave, and checks the
// result. Rounds of one seed repeat bit-for-bit on SimFabric.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "span.hpp"

namespace flecc::e2e {

struct RoundInput {
  std::uint64_t seed = 1;
  /// Stack the decorators (timed.hpp) and record spans.
  bool traced = false;
  /// Run 1/50 of the measured ops.
  bool smoke = false;
  /// Keep individual spans for the first kSpanOps ops (traced only).
  bool log_spans = false;
};

/// Ops whose spans a traced round keeps for the spans file.
inline constexpr std::uint64_t kSpanOps = 2000;

/// The directory's conflict queries, timed on seeded views.
struct ProbeStats {
  std::uint64_t conflicting_ns = 0;
  std::uint64_t quality_ns = 0;
  std::uint64_t calls = 0;
  double useful_sum = 0.0;  // sum of conflict degree / registered views
};

/// Simulated latencies (us) and how often each occurred: exact
/// quantiles in a few kilobytes, where a sample vector of a million-op
/// round would dominate the process's peak RSS.
using LatencyHist = std::map<std::int64_t, std::uint64_t>;

/// What one round measured. Latencies are simulated microseconds on
/// SimFabric and wall microseconds on ThreadFabric.
struct RoundResult {
  bool threaded = false;
  double setup_s = 0.0;
  /// This round's set-up plus any repeated set-ups (untraced rounds).
  std::vector<double> setup_samples;
  double measured_s = 0.0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t give_ups = 0;
  std::uint64_t msgs = 0;    // logical sends
  std::uint64_t hops = 0;    // physical sends
  std::uint64_t bytes = 0;   // wire bytes
  std::uint64_t allocs = 0;
  std::uint64_t events = 0;  // simulator events (SimFabric only)
  std::uint64_t pulls = 0;
  std::uint64_t unseen = 0;
  std::uint64_t pushes_issued = 0;
  /// STRONG grants the directory had already revoked on arrival.
  std::uint64_t stale_grants = 0;
  /// Every op's latency (SimFabric; empty on ThreadFabric, whose
  /// latencies are summarised per slice below).
  LatencyHist op_lat;
  /// p99 latency of pull_image, push_image and STRONG start_use_image
  /// calls; empty when the round made none.
  std::optional<double> pull_p99;
  std::optional<double> push_p99;
  std::optional<double> acquire_p99;
  /// Ops per wall second in each equal slice of the measured phase.
  std::vector<double> slice_rates;
  /// ThreadFabric only: op latency p50, p99 and mean of each slice.
  std::vector<double> slice_p50;
  std::vector<double> slice_p99;
  std::vector<double> slice_mean;
  /// Counter deltas over the measured phase.
  std::map<std::string, std::uint64_t> net;
  std::map<std::string, std::uint64_t> dm;
  std::map<std::string, std::uint64_t> cm;
  std::int64_t total_reserved = 0;
  bool batched = false;
  bool write_buffer = false;
  bool durable = false;
  /// Correctness-check failures (empty = all passed).
  std::vector<std::string> failures;
  // Traced rounds only.
  Totals spans;
  ProbeStats probe;
  std::uint64_t mailbox_peak = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Linear-interpolated q-quantile (0 for an empty sample), and the mean.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double mean(const std::vector<double>& v);
[[nodiscard]] double quantile(const LatencyHist& h, double q);
[[nodiscard]] double mean(const LatencyHist& h);

/// Run one round of `workload` (a name from workload_names()).
[[nodiscard]] RoundResult run_round(const std::string& workload,
                                    const RoundInput& in);

}  // namespace flecc::e2e

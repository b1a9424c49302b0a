// Layer spans for the traced benchmark run.
//
// Every call the benchmark's decorators (timed.hpp) forward into a layer
// opens a Scope: a span {kind, start, end, parent} on a thread-local
// stack. Closing it charges the span's self time (duration minus child
// spans) and self allocations (operator new calls minus those of child
// spans) to its kind. Allocations made by the tracer itself run under a
// Quiet guard and are counted nowhere, so a traced run allocates exactly
// what an untraced one does.
//
// Totals are kept per thread and summed by collect(), which must only be
// called while no traced thread is running (SimFabric: between
// Simulator::run() calls; ThreadFabric: after drain()).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace flecc::e2e {

/// What a span measures. The layer of each kind is the module it calls
/// into (kKindInfo).
enum class Kind : std::uint8_t {
  kSimRun,          ///< flecc_e2e's Simulator::run() calls
  kNetSend,         ///< Fabric::send from the protocol
  kNetWire,         ///< SimFabric::send below a BatchFabric (one hop)
  kNetSched,        ///< Fabric::schedule / schedule_daemon / cancel_timer
  kNetFlush,        ///< a BatchFabric window-flush timer firing
  kNetDeliver,      ///< a BatchFabric frame fanned out at its terminal
  kDmHandle,        ///< DirectoryManager::on_message
  kDmTimer,         ///< a timer the directory armed, firing
  kCmHandle,        ///< CacheManager::on_message
  kCmTimer,         ///< a timer a cache manager armed, firing
  kCmApi,           ///< a Figure-3 API call issued by flecc_e2e
  kWalDmAppend,     ///< DurabilityStore::append by the directory
  kWalCmAppend,     ///< DurabilityStore::append by a cache-manager journal
  kWalFlush,        ///< DurabilityStore::flush
  kWalCompact,      ///< DurabilityStore::compact
  kWalOther,        ///< load / generation / entry_count
  kPrimaryExtract,  ///< PrimaryAdapter::extract_from_object
  kPrimaryMerge,    ///< PrimaryAdapter::merge_into_object
  kPrimaryOther,    ///< PrimaryAdapter::variables / data_properties
  kViewExtract,     ///< ViewAdapter::extract_from_view
  kViewMerge,       ///< ViewAdapter::merge_into_view
  kViewPeek,        ///< ViewAdapter::peek_from_view
  kViewOther,       ///< ViewAdapter::variables
  kBench,           ///< flecc_e2e's own events (issuing the next op)
  kCount,
};

inline constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::kCount);

/// Span name and the layer (module) it belongs to.
struct KindInfo {
  const char* name;
  const char* layer;
};
extern const std::array<KindInfo, kKinds> kKindInfo;

/// Per-kind sums over closed spans.
struct Totals {
  std::array<std::uint64_t, kKinds> calls{};
  std::array<std::uint64_t, kKinds> total_ns{};
  std::array<std::uint64_t, kKinds> self_ns{};
  std::array<std::uint64_t, kKinds> self_allocs{};

  Totals& operator+=(const Totals& o);
  [[nodiscard]] std::uint64_t calls_of(Kind k) const {
    return calls[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t self_ns_of(Kind k) const {
    return self_ns[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t total_ns_of(Kind k) const {
    return total_ns[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t self_allocs_of(Kind k) const {
    return self_allocs[static_cast<std::size_t>(k)];
  }
};

/// Process-wide operator new calls outside Quiet sections (all threads).
[[nodiscard]] std::uint64_t allocs();

/// Turn span recording on or off. Only flip it while no traced thread
/// runs; untraced Scopes cost one relaxed load.
void set_tracing(bool on);

/// Keep every closed span (not only the totals) for write_spans().
void set_logging(bool on);

/// Sum the per-thread totals, then zero them. Quiescent callers only.
[[nodiscard]] Totals collect();

/// One benchmark op, written beside the spans it overlapped.
struct OpRecord {
  std::uint64_t index = 0;
  std::size_t view = 0;
  const char* kind = "";
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
};

/// Record an op while logging is on (thread-safe).
void log_op(const OpRecord& op);

/// Write the logged spans and ops as JSON Lines, then drop them.
/// Returns false if the file cannot be written.
bool write_spans(const std::string& path);

/// RAII span of one call into a layer.
class Scope {
 public:
  explicit Scope(Kind k);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool on_;
};

/// Marks tracer bookkeeping: allocations inside are not counted.
class Quiet {
 public:
  Quiet();
  ~Quiet();
  Quiet(const Quiet&) = delete;
  Quiet& operator=(const Quiet&) = delete;
};

}  // namespace flecc::e2e

// Protocol observability: typed trace events, per-agent single-writer
// ring buffers, and the instrumentation macro used by the FSMs and
// fabrics (OBSERVABILITY.md is the canonical event reference).
//
// Design constraints:
//   * Switched at run time. Every emission site is one branch on a
//     nullable TraceBuffer*: when it is null, FLECC_TRACE_EVENT skips
//     the emission and does not evaluate its arguments, and the owning
//     endpoint registers no CausalClock, so an untraced component does
//     no trace work and its messages carry clock 0.
//   * Lock-free recording. Each protocol agent (one cache manager, the
//     directory, one fabric) owns a private TraceBuffer and is its only
//     writer, so emission is one relaxed load, one 80-byte store and
//     one release store — no CAS, no mutex, no allocation (plus one
//     virtual call when a TraceSink is attached). Buffers are
//     bounded rings: when full the oldest events are overwritten and a
//     drop counter advances (observability must never OOM the system
//     it observes).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "sim/time.hpp"

namespace flecc::obs {

/// Everything the protocol can tell the trace about itself. One event
/// kind per observable protocol fact; see OBSERVABILITY.md for the
/// per-kind semantics of the `a`/`b` detail fields.
enum class EventKind : std::uint8_t {
  kOpEnqueued,        ///< user op queued behind the in-flight one (CM)
  kOpStarted,         ///< user op issued for the first time (CM)
  kOpCompleted,       ///< user op's reply accepted, callback fired (CM)
  kMsgSent,           ///< first transmission of a protocol message
  kMsgReceived,       ///< message accepted by an endpoint FSM
  kMsgDropped,        ///< fabric dropped a message (loss/partition/...)
  kMsgRetransmitted,  ///< re-transmission (CM op retry or DM command resend)
  kDedupHit,          ///< duplicate suppressed or replayed from cache
  kHeartbeatMiss,     ///< heartbeat tick found the previous one unacked
  kViewEvicted,       ///< directory evicted a silent view (liveness)
  kTriggerFired,      ///< quality trigger demanded work (push/pull/validity)
  kMergeApplied,        ///< directory merged a dirty image into the primary
  kModeSwitch,          ///< consistency mode changed (weak <-> strong)
  kInvariantViolation,  ///< conformance monitor: protocol invariant broken
  kMonitorWarning,      ///< conformance monitor: liveness/health warning
  kMsgFenced,           ///< stale-generation message rejected (recovery)
  kRecoveryBegin,       ///< directory restarted; rebuild round opened
  kRecoveryEnd,         ///< rebuild finished; normal processing resumed
  kLoadShed,            ///< admission control refused a request (Busy sent)
  kBreakerTransition,   ///< CM circuit breaker changed state (a=from, b=to)
  kRetryExhausted,      ///< retry deadline/budget spent; op abandoned (CM)
  kMigrateBegin,        ///< view migration opened (a=view, b=epoch)
  kMigrateDone,         ///< view rebound to its destination (a=view, b=epoch)
  kMigrateAborted,      ///< migration aborted; view stays put (a=view, b=epoch)
  kJournalReplay,       ///< CM restarted from its journal (a=view, b=intents)
  kAlertRaised,         ///< SLO alert rule began firing (a=window index)
  kAlertCleared,        ///< SLO alert rule stopped firing (a=window index)
};

/// Highest EventKind value. Keep in sync when appending kinds: the
/// JSONL parser iterates `[0, kMaxEventKind]`, so a kind past this
/// bound round-trips to "malformed line" instead of an event.
inline constexpr EventKind kMaxEventKind = EventKind::kAlertCleared;

/// Which protocol role emitted an event.
enum class Role : std::uint8_t {
  kCacheManager,  ///< a view's cache manager
  kDirectory,     ///< the directory manager
  kFabric,        ///< a message fabric (sim or thread)
  kOther,         ///< benches / tests / tools
};

/// Stable lower_snake_case name for JSONL/CSV output ("op_started", ...).
[[nodiscard]] constexpr const char* to_string(EventKind k) noexcept {
  switch (k) {
    case EventKind::kOpEnqueued: return "op_enqueued";
    case EventKind::kOpStarted: return "op_started";
    case EventKind::kOpCompleted: return "op_completed";
    case EventKind::kMsgSent: return "msg_sent";
    case EventKind::kMsgReceived: return "msg_received";
    case EventKind::kMsgDropped: return "msg_dropped";
    case EventKind::kMsgRetransmitted: return "msg_retransmitted";
    case EventKind::kDedupHit: return "dedup_hit";
    case EventKind::kHeartbeatMiss: return "heartbeat_miss";
    case EventKind::kViewEvicted: return "view_evicted";
    case EventKind::kTriggerFired: return "trigger_fired";
    case EventKind::kMergeApplied: return "merge_applied";
    case EventKind::kModeSwitch: return "mode_switch";
    case EventKind::kInvariantViolation: return "invariant_violation";
    case EventKind::kMonitorWarning: return "monitor_warning";
    case EventKind::kMsgFenced: return "msg_fenced";
    case EventKind::kRecoveryBegin: return "recovery_begin";
    case EventKind::kRecoveryEnd: return "recovery_end";
    case EventKind::kLoadShed: return "load_shed";
    case EventKind::kBreakerTransition: return "breaker_transition";
    case EventKind::kRetryExhausted: return "retry_exhausted";
    case EventKind::kMigrateBegin: return "migrate_begin";
    case EventKind::kMigrateDone: return "migrate_done";
    case EventKind::kMigrateAborted: return "migrate_aborted";
    case EventKind::kJournalReplay: return "journal_replay";
    case EventKind::kAlertRaised: return "alert_raised";
    case EventKind::kAlertCleared: return "alert_cleared";
  }
  return "unknown";
}

[[nodiscard]] constexpr const char* to_string(Role r) noexcept {
  switch (r) {
    case Role::kCacheManager: return "cm";
    case Role::kDirectory: return "dm";
    case Role::kFabric: return "fabric";
    case Role::kOther: return "other";
  }
  return "unknown";
}

/// Reason codes carried in TraceEvent::a by kMsgDropped events.
enum DropReason : std::uint64_t {
  kDropLoss = 0,       ///< random loss (fabric loss_rate / chaos)
  kDropPartition = 1,  ///< sender and receiver in separate partitions
  kDropNoRoute = 2,    ///< no fabric route between the nodes
  kDropUnbound = 3,    ///< destination endpoint not bound at delivery
  kDropOverload = 4,   ///< bounded queue shed the message (flow control)
};

/// Packs a fabric address into the 64-bit `agent` field of an event.
[[nodiscard]] constexpr std::uint64_t agent_key(net::Address a) noexcept {
  return (static_cast<std::uint64_t>(a.node) << 32) |
         static_cast<std::uint64_t>(a.port);
}

/// Recovers the address packed by agent_key().
[[nodiscard]] constexpr net::Address agent_addr(std::uint64_t key) noexcept {
  return net::Address{static_cast<std::uint32_t>(key >> 32),
                      static_cast<std::uint32_t>(key & 0xffffffffu)};
}

/// Span (operation lifecycle) id: every framed request is uniquely
/// identified protocol-wide by (cache-manager address, request id), and
/// both ends can compute it — the CM from (self, op.req), the directory
/// from (msg.from, rid). Collision-free while node ids stay below 2^16
/// and request ids below 2^32, which holds for every bench and test in
/// this repo. Span 0 means "no associated operation".
[[nodiscard]] constexpr std::uint64_t span_id(net::Address cache,
                                              std::uint64_t req) noexcept {
  if (req == 0) return 0;
  return (static_cast<std::uint64_t>(cache.node) << 48) ^
         (static_cast<std::uint64_t>(cache.port) << 32) ^ req;
}

/// One trace record. Trivially copyable and fixed-size so ring storage
/// is a flat array and emission is a struct store. The `label` is a
/// short NUL-terminated tag (message type, op kind, trigger kind, drop
/// detail); longer strings are truncated.
struct TraceEvent {
  /// Label capacity including the terminating NUL.
  static constexpr std::size_t kLabelCap = 30;

  sim::Time at = 0;          ///< fabric time, microseconds
  std::uint64_t span = 0;    ///< operation lifecycle id; 0 = none
  std::uint64_t a = 0;       ///< kind-specific detail (OBSERVABILITY.md)
  std::uint64_t b = 0;       ///< kind-specific detail (OBSERVABILITY.md)
  std::uint64_t agent = 0;   ///< emitting endpoint, agent_key() packed
  /// Lamport clock of the emitting agent at emission time; 0 when the
  /// emitter carries no clock (fabric drop events, old traces). Gives
  /// cross-node events a causal order independent of wall-clock ties.
  std::uint64_t clock = 0;
  EventKind kind = EventKind::kOpEnqueued;
  Role role = Role::kOther;
  char label[kLabelCap] = {};
};
static_assert(std::is_trivially_copyable_v<TraceEvent>);
static_assert(sizeof(TraceEvent) <= 80, "keep events small; rings are flat");

/// Builds an event, truncating `label` to TraceEvent::kLabelCap-1.
[[nodiscard]] inline TraceEvent make_event(sim::Time at, EventKind kind,
                                           Role role, std::uint64_t agent,
                                           std::uint64_t span,
                                           const char* label,
                                           std::uint64_t a = 0,
                                           std::uint64_t b = 0) noexcept {
  TraceEvent e;
  e.at = at;
  e.span = span;
  e.a = a;
  e.b = b;
  e.agent = agent;
  e.kind = kind;
  e.role = role;
  if (label != nullptr) {
    std::strncpy(e.label, label, TraceEvent::kLabelCap - 1);
    e.label[TraceEvent::kLabelCap - 1] = '\0';
  }
  return e;
}

/// Push-style consumer of trace events, attached to buffers via
/// TraceRecorder::attach_sink (or TraceBuffer::set_sink). on_event runs
/// inline on the emitting agent's thread, synchronously after the ring
/// store — implementations must be cheap and must never call back into
/// the protocol (observers may not perturb the observed system).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& e) = 0;
};

/// Per-agent Lamport clock. A traced endpoint registers it with its
/// fabric (net::Fabric::set_clock) so sends tick it and deliveries
/// observe the sender's stamp, and with its TraceBuffer so every
/// emitted event carries the current value; an untraced one registers
/// nothing, so its sends carry stamp 0. Atomic because ThreadFabric
/// ticks from sender threads while the owner emits from its mailbox.
class CausalClock {
 public:
  /// Local/send step: advance and return the new value.
  std::uint64_t tick() noexcept {
    return v_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Delivery step: advance past the received stamp (max(local, other)+1).
  std::uint64_t observe(std::uint64_t other) noexcept {
    std::uint64_t cur = v_.load(std::memory_order_relaxed);
    std::uint64_t next = 0;
    do {
      next = (cur > other ? cur : other) + 1;
    } while (!v_.compare_exchange_weak(cur, next, std::memory_order_relaxed));
    return next;
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Bounded single-writer ring of trace events.
///
/// Exactly one thread may call emit() (each protocol agent owns its
/// buffer); snapshot()/counters may be called from any thread once the
/// writer has quiesced (simulation drained, fabric stopped). A
/// concurrent snapshot is safe memory-wise but may observe a torn
/// in-flight event at the write head; offline analysis should read
/// post-run.
class TraceBuffer {
 public:
  /// `capacity` is rounded up to a power of two (minimum 8).
  explicit TraceBuffer(std::size_t capacity) {
    std::size_t cap = 8;
    while (cap < capacity) cap <<= 1;
    ring_.resize(cap);
    mask_ = cap - 1;
  }

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Stamp every emitted event with this agent's Lamport clock
  /// (nullptr disables stamping; events then carry clock 0). Set by the
  /// owning endpoint before it starts emitting.
  void set_clock(const CausalClock* clock) noexcept { clock_ = clock; }

  /// Forward every emitted event to `sink` (after the ring store);
  /// nullptr detaches. Must be set before the writer emits concurrently
  /// — see TraceRecorder::attach_sink for the ordering contract.
  void set_sink(TraceSink* sink) noexcept { sink_ = sink; }

  /// Append one event (single writer). When the ring is full the
  /// oldest retained event is overwritten; dropped() advances.
  void emit(const TraceEvent& e) noexcept {
    TraceEvent stamped = e;
    if (clock_ != nullptr) stamped.clock = clock_->value();
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    ring_[static_cast<std::size_t>(h) & mask_] = stamped;
    head_.store(h + 1, std::memory_order_release);
    if (sink_ != nullptr) sink_->on_event(stamped);
  }

  /// Total events ever emitted (including overwritten ones).
  [[nodiscard]] std::uint64_t emitted() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Events lost to ring wraparound.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return h > ring_.size() ? h - ring_.size() : 0;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(h, ring_.size());
    std::vector<TraceEvent> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = h - n; i < h; ++i) {
      out.push_back(ring_[static_cast<std::size_t>(i) & mask_]);
    }
    return out;
  }

 private:
  std::vector<TraceEvent> ring_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
  const CausalClock* clock_ = nullptr;
  TraceSink* sink_ = nullptr;
};

/// Owns one TraceBuffer per protocol agent and merges them into a
/// single time-ordered event stream for the sinks and the analysis
/// tool. Buffer creation is not thread-safe (wire agents up before the
/// run); recording into distinct buffers is concurrent by design.
class TraceRecorder {
 public:
  /// `default_capacity` sizes buffers created without an explicit
  /// capacity; 4096 events comfortably covers one agent's lifetime in
  /// every bench while keeping a 100-agent soak around 30 MB.
  explicit TraceRecorder(std::size_t default_capacity = 4096)
      : default_capacity_(default_capacity) {}

  /// Creates (or returns the existing) buffer named `name`. The pointer
  /// stays valid for the recorder's lifetime. A sink attached via
  /// attach_sink() is propagated to buffers created later, so attaching
  /// before agents are wired up covers the whole run.
  TraceBuffer* make_buffer(const std::string& name, std::size_t capacity = 0) {
    for (auto& [n, b] : buffers_) {
      if (n == name) return b.get();
    }
    buffers_.emplace_back(name, std::make_unique<TraceBuffer>(
                                    capacity ? capacity : default_capacity_));
    TraceBuffer* buf = buffers_.back().second.get();
    if (sink_ != nullptr) buf->set_sink(sink_);
    return buf;
  }

  /// Attach `sink` to every buffer this recorder owns — existing ones
  /// now, future make_buffer() calls as they happen (benches typically
  /// attach the monitor before the testbed creates per-agent buffers).
  /// Ordering contract: attach before any buffer's writer emits from
  /// another thread; set_sink is a plain store, not synchronized with
  /// emit(). All SimFabric-driven runs are single-threaded, and
  /// ThreadFabric benches attach before starting the fabric.
  /// nullptr detaches everywhere.
  void attach_sink(TraceSink* sink) noexcept {
    sink_ = sink;
    for (auto& [name, b] : buffers_) b->set_sink(sink);
  }

  [[nodiscard]] std::size_t buffer_count() const noexcept {
    return buffers_.size();
  }

  [[nodiscard]] std::uint64_t total_emitted() const noexcept {
    std::uint64_t n = 0;
    for (const auto& [name, b] : buffers_) n += b->emitted();
    return n;
  }

  [[nodiscard]] std::uint64_t total_dropped() const noexcept {
    std::uint64_t n = 0;
    for (const auto& [name, b] : buffers_) n += b->dropped();
    return n;
  }

  /// All retained events, merged and stably sorted by timestamp (ties
  /// keep buffer registration order, then ring order — deterministic).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const {
    std::vector<TraceEvent> out;
    for (const auto& [name, b] : buffers_) {
      auto part = b->snapshot();
      out.insert(out.end(), part.begin(), part.end());
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent& x, const TraceEvent& y) {
                       return x.at < y.at;
                     });
    return out;
  }

 private:
  std::size_t default_capacity_;
  std::vector<std::pair<std::string, std::unique_ptr<TraceBuffer>>> buffers_;
  TraceSink* sink_ = nullptr;
};

}  // namespace flecc::obs

// ---- instrumentation macro --------------------------------------------
//
// FLECC_TRACE_EVENT(sink, at, kind, role, agent, span, label[, a[, b]])
// emits into the nullable obs::TraceBuffer* `sink`. When `sink` is null
// the remaining arguments are not evaluated, so an untraced hot path
// pays one branch; consequently trace arguments must be side-effect
// free.
#define FLECC_TRACE_EVENT(sink, ...)                          \
  do {                                                        \
    if ((sink) != nullptr) {                                  \
      (sink)->emit(::flecc::obs::make_event(__VA_ARGS__));    \
    }                                                         \
  } while (0)

// Flow control & overload (PROTOCOL.md "Flow control & overload").
//
// Three cooperating pieces make overload a first-class, degradable
// state instead of unbounded queue growth:
//
//   * fabric bounding — net::FlowControl (bounded per-destination
//     queues with hysteresis, Busy synthesis); this header
//     provides the canonical Flecc wiring: the control/bulk lane
//     classifier and the Busy factory (make_fabric_flow).
//   * DM admission control — DirectoryManager::Config caps concurrent
//     fetch rounds / the acquire queue and answers excess load with
//     msg::Busy (shed.* counters) instead of opening more rounds.
//   * CM cooperation — the CircuitBreaker below suspends bulk traffic
//     toward a drowning directory (closed -> open -> half-open,
//     honoring Busy's retry_after) and optionally degrades STRONG mode
//     to buffered WEAK writes until the breaker closes again.
//
// Everything here defaults OFF; the lossless default path is untouched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

#include "net/flow.hpp"
#include "sim/time.hpp"

namespace flecc::core::flow {

// ---- circuit breaker -------------------------------------------------------

/// Breaker states (PROTOCOL.md degradation ladder):
///   kClosed   — traffic flows; consecutive failures are counted.
///   kOpen     — bulk traffic suspended until open_until.
///   kHalfOpen — one probe in flight decides: success closes, another
///               Busy/failure re-opens.
enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

[[nodiscard]] constexpr const char* to_string(BreakerState s) noexcept {
  switch (s) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "?";
}

/// Per-destination circuit breaker. Pure state machine — no fabric or
/// clock dependency (callers pass `now`), so it unit-tests in isolation
/// and works under both SimFabric and ThreadFabric time.
///
/// `failure_threshold == 0` disables the breaker entirely: allow()
/// always passes and the event methods are no-ops.
class CircuitBreaker {
 public:
  struct Config {
    /// Consecutive Busy/failure events that trip kClosed -> kOpen.
    /// 0 disables the breaker.
    std::size_t failure_threshold = 0;
    /// Minimum time the breaker stays open; a Busy's retry_after
    /// extends (never shortens) the open window.
    sim::Duration open_timeout = sim::msec(500);
  };

  /// Observes every state transition (old, new) — the CM hangs
  /// breaker.* counters, trace events, and the degradation ladder off
  /// this hook.
  using TransitionHook = std::function<void(BreakerState, BreakerState)>;

  CircuitBreaker() = default;
  explicit CircuitBreaker(Config cfg) : cfg_(cfg) {}

  void set_transition_hook(TransitionHook hook) { hook_ = std::move(hook); }

  [[nodiscard]] bool enabled() const noexcept {
    return cfg_.failure_threshold > 0;
  }
  [[nodiscard]] BreakerState state() const noexcept { return state_; }
  [[nodiscard]] std::size_t consecutive_failures() const noexcept {
    return failures_;
  }

  /// May this bulk request go out now? kOpen past its window flips to
  /// kHalfOpen and admits exactly one probe; further calls are denied
  /// until the probe resolves (on_success / on_busy / on_failure).
  [[nodiscard]] bool allow(sim::Time now) {
    if (!enabled()) return true;
    switch (state_) {
      case BreakerState::kClosed:
        return true;
      case BreakerState::kOpen:
        if (now < open_until_) return false;
        transition(BreakerState::kHalfOpen);
        probe_in_flight_ = true;
        return true;
      case BreakerState::kHalfOpen:
        if (probe_in_flight_) return false;
        probe_in_flight_ = true;
        return true;
    }
    return true;
  }

  /// The destination answered Busy(retry_after).
  void on_busy(sim::Time now, sim::Duration retry_after) {
    if (!enabled()) return;
    ++failures_;
    const sim::Duration hold =
        retry_after > cfg_.open_timeout ? retry_after : cfg_.open_timeout;
    switch (state_) {
      case BreakerState::kClosed:
        if (failures_ >= cfg_.failure_threshold) {
          open_until_ = now + hold;
          transition(BreakerState::kOpen);
        }
        break;
      case BreakerState::kHalfOpen:
        probe_in_flight_ = false;
        open_until_ = now + hold;
        transition(BreakerState::kOpen);
        break;
      case BreakerState::kOpen:
        // late Busy for an earlier send: extend, never shorten
        if (now + retry_after > open_until_) open_until_ = now + retry_after;
        break;
    }
  }

  /// A non-Busy delivery failure (retry budget exhausted, failover).
  void on_failure(sim::Time now) { on_busy(now, cfg_.open_timeout); }

  /// A bulk request completed normally.
  void on_success() {
    if (!enabled()) return;
    failures_ = 0;
    probe_in_flight_ = false;
    if (state_ != BreakerState::kClosed) transition(BreakerState::kClosed);
  }

  /// Time until allow() could next pass (>= 1 so timers always fire).
  [[nodiscard]] sim::Duration retry_in(sim::Time now) const noexcept {
    if (state_ == BreakerState::kOpen && open_until_ > now) {
      return open_until_ - now;
    }
    return 1;
  }

 private:
  void transition(BreakerState to) {
    const BreakerState from = state_;
    state_ = to;
    if (hook_) hook_(from, to);
  }

  Config cfg_{};
  BreakerState state_ = BreakerState::kClosed;
  std::size_t failures_ = 0;
  sim::Time open_until_ = 0;
  bool probe_in_flight_ = false;
  TransitionHook hook_;
};

// ---- fabric wiring ---------------------------------------------------------

/// Lane classifier for Flecc traffic: bulk (sheddable) requests are the
/// load generators — init/pull/push/acquire. Everything else is control
/// lane and is never shed: acks, replies, grants, heartbeats,
/// invalidations, fetches, recovery probes, nacks, Busy itself, mode
/// changes (the degradation path must get through) and non-Flecc frames
/// (e.g. batch frames, which carry mixed traffic).
[[nodiscard]] bool is_control_lane(std::string_view type) noexcept;

/// The canonical Flecc fabric flow config: `bounds` (queue_capacity,
/// retry_after) with is_control_lane and a Busy factory installed; the
/// factory recovers the request id / view from the shed bulk message so
/// the sender's retransmission layer can match it.
[[nodiscard]] net::FlowControl make_fabric_flow(net::FlowControl bounds);

}  // namespace flecc::core::flow

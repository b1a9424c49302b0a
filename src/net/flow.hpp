// Fabric-level flow control: bounded queues with hysteresis and Busy
// synthesis.
//
// Without a bound, a fabric's pending set grows without limit, so a
// hot-object storm turns into unbounded memory growth instead of a
// bounded, observable brown-out. SimFabric, the one fabric that accepts
// a FlowControl config, bounds each per-destination queue and, instead
// of silently dropping excess *bulk* traffic, answers the sender with a
// protocol-level Busy carrying a retry_after hint.
//
// The net layer stays protocol-agnostic: it does not know what a
// "flecc.busy" looks like or which message types are sheddable. Both
// decisions are injected as hooks (`is_control`, `make_busy`); the
// canonical Flecc wiring lives in core/flow_control.hpp
// (flow::make_fabric_flow) and is installed by the testbed.
//
// Defaults leave flow control OFF (queue_capacity == 0): the lossless
// default path adds zero messages and zero behavior change.
#pragma once

#include <any>
#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace flecc::net {

struct Message;

/// A reply synthesized by a fabric on behalf of an overloaded
/// destination. An empty `type` means "no reply" (the shed message is
/// not one the protocol can answer — it is dropped with a counter).
struct BusyReply {
  std::string type;
  std::any payload;
  std::size_t bytes = 0;
};

/// Per-destination queue bound with hysteresis.
///
/// Shedding engages when a destination's outstanding (queued, not yet
/// delivered) depth reaches `queue_capacity` and disengages once it
/// drains to half of it (low()), so a queue hovering at the boundary
/// does not flap. Control-lane messages (acks, heartbeats, recovery,
/// grants — anything `is_control` says yes to) are NEVER shed: they are
/// what drains the queue. Bulk messages over the bound are answered
/// with `make_busy` instead of being enqueued.
struct FlowControl {
  /// Hard bound on sheddable (bulk) messages queued toward one
  /// destination. 0 = unbounded: flow control off (the default).
  std::size_t queue_capacity = 0;
  /// retry_after hint stamped into synthesized Busy replies.
  sim::Duration retry_after = sim::msec(100);
  /// Lane classifier: true = control lane (never shed). Unset treats
  /// everything as control, i.e. nothing is ever shed.
  std::function<bool(std::string_view type)> is_control;
  /// Busy factory: given the shed message, build the protocol-level
  /// reply sent back to its sender. Unset = shed silently (counted).
  std::function<BusyReply(const Message& shed, sim::Duration retry_after)>
      make_busy;

  [[nodiscard]] bool enabled() const noexcept { return queue_capacity > 0; }
  /// Depth at which shedding disengages again.
  [[nodiscard]] std::size_t low() const noexcept {
    return queue_capacity / 2;
  }
  /// True when `type` rides the control lane (or no classifier is set).
  [[nodiscard]] bool control(std::string_view type) const {
    return !is_control || is_control(type);
  }
};

}  // namespace flecc::net

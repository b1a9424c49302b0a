// Discrete-event Fabric implementation.
//
// Messages traverse the Topology's minimum-latency route; end-to-end
// delay is propagation + bottleneck transmission + a fixed software
// overhead. Optional loss injection drops messages with a configured
// probability (deterministic given the seed).
#pragma once

#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/fabric.hpp"
#include "net/flow.hpp"
#include "net/topology.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace flecc::net {

class SimFabric : public Fabric {
 public:
  struct Config {
    /// Per-message software overhead added to every delivery.
    sim::Duration per_message_overhead = sim::usec(50);
    /// Probability that any message is silently dropped (fault injection).
    double loss_probability = 0.0;
    /// Seed for the loss process.
    std::uint64_t seed = 1;
    /// Bounded per-destination queues + Busy synthesis (net/flow.hpp).
    /// Depth tracking (the flow.queue.peak gauge) engages as soon as
    /// `flow.is_control` is set, even with queue_capacity == 0, so an
    /// unbounded baseline run still reports its peak; shedding needs
    /// flow.enabled(). Default: fully off, zero behavior change.
    FlowControl flow{};
  };

  SimFabric(sim::Simulator& simulator, Topology topology, Config cfg);
  SimFabric(sim::Simulator& simulator, Topology topology)
      : SimFabric(simulator, std::move(topology), Config{}) {}

  [[nodiscard]] sim::Time now() const override { return sim_.now(); }
  void bind(const Address& addr, Endpoint& ep) override;
  void unbind(const Address& addr) override;
  void send(Address from, Address to, std::string type, std::any payload,
            std::size_t bytes) override;
  TimerId schedule(const Address& owner, sim::Duration delay,
                   std::function<void()> fn) override;
  TimerId schedule_daemon(const Address& owner, sim::Duration delay,
                          std::function<void()> fn) override;
  bool cancel_timer(TimerId id) override;
  void set_clock(const Address& addr, obs::CausalClock* clock) override;
  [[nodiscard]] sim::CounterSet& counters() override { return counters_; }
  [[nodiscard]] const sim::CounterSet& counters() const override {
    return counters_;
  }

  /// The underlying graph (mutable for fault injection in tests).
  [[nodiscard]] Topology& topology() noexcept { return topology_; }
  [[nodiscard]] const Topology& topology() const noexcept {
    return topology_;
  }

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }

  /// Observe every delivered message (nullptr to disable).
  void set_trace_hook(TraceHook hook) { trace_ = std::move(hook); }

  /// Protocol-event sink (obs layer, not owned; nullptr disables). The
  /// fabric contributes msg_dropped events with the drop reason — the
  /// one protocol fact endpoints cannot see themselves.
  void set_trace_buffer(obs::TraceBuffer* buffer) { obs_trace_ = buffer; }

  /// Loss injection control.
  void set_loss_probability(double p) { cfg_.loss_probability = p; }

  /// Inflate delivery latency into one endpoint (a "slow DM" for
  /// overload experiments): every message to `addr` pays `extra` on top
  /// of the modeled network delay. 0 removes the inflation.
  void set_endpoint_delay(const Address& addr, sim::Duration extra) {
    if (extra <= 0) {
      endpoint_delay_.erase(addr);
    } else {
      endpoint_delay_[addr] = extra;
    }
  }

  /// Cut every link between the two address groups: messages whose
  /// endpoints fall on opposite sides are dropped
  /// (counter `msg.dropped.partition`) until heal() is called. Grouping
  /// is by node — ports on one node are never split. Calling partition()
  /// again replaces the previous partition.
  void partition(const std::vector<Address>& group_a,
                 const std::vector<Address>& group_b);
  /// Restore connectivity cut by partition().
  void heal();
  /// True while a partition() cut is in effect.
  [[nodiscard]] bool partitioned() const noexcept {
    return !partition_a_.empty() && !partition_b_.empty();
  }

  /// Total protocol messages successfully delivered so far.
  [[nodiscard]] std::uint64_t delivered_count() const noexcept {
    return delivered_;
  }
  /// Total messages sent (delivered or not).
  [[nodiscard]] std::uint64_t sent_count() const noexcept { return sent_; }

 private:
  [[nodiscard]] bool partition_blocks(NodeId from, NodeId to) const;

  /// Per-destination bulk-queue state (flow control). `shedding` is the
  /// hysteresis latch: set at queue_capacity, cleared at low().
  struct DestFlow {
    std::size_t outstanding = 0;
    bool shedding = false;
  };

  /// A tracked bulk delivery completed toward `to`.
  void note_drained(const Address& to);

  /// A sent message waiting for its delivery event. Records are reused
  /// through a free list, so the event captures only the record's index
  /// and std::function stores it without allocating.
  struct InFlight {
    Message msg;
    sim::Time sent_at = 0;
    bool tracked = false;  // counted in dest_flow_ (flow control)
  };

  /// The delivery event of in-flight record `slot`.
  void deliver(std::uint32_t slot);

  sim::Simulator& sim_;
  Topology topology_;
  Config cfg_;
  sim::Rng loss_rng_;
  std::set<NodeId> partition_a_;
  std::set<NodeId> partition_b_;
  std::unordered_map<Address, Endpoint*, AddressHash> endpoints_;
  std::unordered_map<Address, obs::CausalClock*, AddressHash> clocks_;
  std::unordered_map<Address, DestFlow, AddressHash> dest_flow_;
  std::unordered_map<Address, sim::Duration, AddressHash> endpoint_delay_;
  std::vector<InFlight> in_flight_;
  std::vector<std::uint32_t> free_in_flight_;
  sim::CounterSet counters_;
  TraceHook trace_;
  obs::TraceBuffer* obs_trace_ = nullptr;
  std::uint64_t next_msg_id_ = 1;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace flecc::net

#include "net/sim_fabric.hpp"

#include <stdexcept>
#include <utility>

namespace flecc::net {

SimFabric::SimFabric(sim::Simulator& simulator, Topology topology, Config cfg)
    : sim_(simulator),
      topology_(std::move(topology)),
      cfg_(cfg),
      loss_rng_(cfg.seed) {}

void SimFabric::bind(const Address& addr, Endpoint& ep) {
  auto [it, inserted] = endpoints_.emplace(addr, &ep);
  (void)it;
  if (!inserted) {
    throw std::logic_error("SimFabric::bind: address already bound: " +
                           addr.to_string());
  }
}

void SimFabric::unbind(const Address& addr) { endpoints_.erase(addr); }

void SimFabric::set_clock(const Address& addr, obs::CausalClock* clock) {
  if (clock == nullptr) {
    clocks_.erase(addr);
  } else {
    clocks_[addr] = clock;
  }
}

void SimFabric::send(Address from, Address to, std::string type,
                     std::any payload, std::size_t bytes) {
  ++sent_;
  counters_.inc_cat("msg.sent.", type);
  counters_.inc("msg.sent");
  counters_.inc("bytes.sent", bytes);

  if (partition_blocks(from.node, to.node)) {
    counters_.inc("msg.dropped.partition");
    FLECC_TRACE_EVENT(obs_trace_, sim_.now(), obs::EventKind::kMsgDropped,
                      obs::Role::kFabric, obs::agent_key(from), 0,
                      type.c_str(), obs::kDropPartition, obs::agent_key(to));
    return;
  }
  if (cfg_.loss_probability > 0.0 && loss_rng_.chance(cfg_.loss_probability)) {
    counters_.inc("msg.dropped.loss");
    FLECC_TRACE_EVENT(obs_trace_, sim_.now(), obs::EventKind::kMsgDropped,
                      obs::Role::kFabric, obs::agent_key(from), 0,
                      type.c_str(), obs::kDropLoss, obs::agent_key(to));
    return;
  }
  const std::optional<Route>& route = topology_.route(from.node, to.node);
  if (!route) {
    counters_.inc("msg.dropped.no_route");
    FLECC_TRACE_EVENT(obs_trace_, sim_.now(), obs::EventKind::kMsgDropped,
                      obs::Role::kFabric, obs::agent_key(from), 0,
                      type.c_str(), obs::kDropNoRoute, obs::agent_key(to));
    return;
  }
  sim::Duration delay =
      (cfg_.model_contention ? contended_delay(*route, bytes)
                             : Topology::transfer_delay(*route, bytes)) +
      cfg_.per_message_overhead;
  if (!endpoint_delay_.empty()) {
    if (auto dit = endpoint_delay_.find(to); dit != endpoint_delay_.end()) {
      delay += dit->second;  // slow-endpoint service-time inflation
    }
  }

  // Flow control: bulk messages toward a destination whose queue is
  // full are shed with a synthesized Busy instead of growing the queue.
  // Depth tracking runs whenever a lane classifier is installed so an
  // unbounded baseline still reports its peak.
  bool tracked = false;
  if (cfg_.flow.is_control && !cfg_.flow.is_control(type)) {
    DestFlow& df = dest_flow_[to];
    if (cfg_.flow.enabled()) {
      if (df.shedding && df.outstanding <= cfg_.flow.low()) {
        df.shedding = false;
      }
      if (!df.shedding && df.outstanding >= cfg_.flow.queue_capacity) {
        df.shedding = true;
      }
      if (df.shedding) {
        counters_.inc("flow.shed");
        counters_.inc_cat("flow.shed.", type);
        FLECC_TRACE_EVENT(obs_trace_, sim_.now(), obs::EventKind::kMsgDropped,
                          obs::Role::kFabric, obs::agent_key(from), 0,
                          type.c_str(), obs::kDropOverload,
                          obs::agent_key(to));
        if (cfg_.flow.make_busy) {
          Message shed;
          shed.from = from;
          shed.to = to;
          shed.type = std::move(type);
          shed.payload = std::move(payload);
          shed.bytes = bytes;
          BusyReply busy = cfg_.flow.make_busy(shed, cfg_.flow.retry_after);
          if (!busy.type.empty()) {
            // The Busy is a normal control-lane message: it pays the
            // return latency and is subject to loss like anything else.
            send(to, from, std::move(busy.type), std::move(busy.payload),
                 busy.bytes);
          }
        }
        return;
      }
    }
    ++df.outstanding;
    counters_.set_max("flow.queue.peak", df.outstanding);
    tracked = true;
  }

  std::uint32_t slot = 0;
  if (free_in_flight_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    slot = free_in_flight_.back();
    free_in_flight_.pop_back();
  }
  InFlight& rec = in_flight_[slot];
  Message& msg = rec.msg;
  msg.id = next_msg_id_++;
  msg.from = from;
  msg.to = to;
  msg.type = std::move(type);
  msg.payload = std::move(payload);
  msg.bytes = bytes;
  msg.clock = 0;
  if (auto cit = clocks_.find(from); cit != clocks_.end()) {
    msg.clock = cit->second->tick();
  }
  rec.sent_at = sim_.now();
  rec.tracked = tracked;
  sim_.schedule_after(delay, [this, slot] { deliver(slot); });
}

void SimFabric::deliver(std::uint32_t slot) {
  // Free the record first: the handler may send, which may reuse it or
  // grow the vector. The message itself dies after the handler returns.
  InFlight& rec = in_flight_[slot];
  const Message msg = std::move(rec.msg);
  const sim::Time sent_at = rec.sent_at;
  const bool tracked = rec.tracked;
  free_in_flight_.push_back(slot);

  if (tracked) note_drained(msg.to);
  auto it = endpoints_.find(msg.to);
  if (it == endpoints_.end()) {
    counters_.inc("msg.dropped.unbound");
    FLECC_TRACE_EVENT(obs_trace_, sim_.now(), obs::EventKind::kMsgDropped,
                      obs::Role::kFabric, obs::agent_key(msg.from), 0,
                      msg.type.c_str(), obs::kDropUnbound,
                      obs::agent_key(msg.to));
    return;
  }
  ++delivered_;
  counters_.inc_cat("msg.delivered.", msg.type);
  counters_.inc("msg.delivered");
  if (trace_) {
    trace_(TraceEntry{msg.id, msg.from, msg.to, msg.type, msg.bytes, sent_at,
                      sim_.now()});
  }
  if (auto cit = clocks_.find(msg.to); cit != clocks_.end()) {
    cit->second->observe(msg.clock);
  }
  it->second->on_message(msg);
}

void SimFabric::note_drained(const Address& to) {
  auto it = dest_flow_.find(to);
  if (it == dest_flow_.end() || it->second.outstanding == 0) return;
  --it->second.outstanding;
  if (it->second.shedding && it->second.outstanding <= cfg_.flow.low()) {
    it->second.shedding = false;
  }
}

sim::Duration SimFabric::contended_delay(const Route& route,
                                         std::size_t bytes) {
  sim::Time at = sim_.now();
  for (const LinkId link : route.links) {
    const LinkSpec& spec = topology_.link(link);
    auto& free_at = link_free_at_[link];
    const sim::Time start = std::max(at, free_at);
    if (start > at) counters_.inc("msg.queued");
    const auto tx = static_cast<sim::Duration>(
        static_cast<double>(bytes) / spec.bandwidth_bytes_per_us);
    free_at = start + tx;            // the link is busy while transmitting
    at = start + tx + spec.latency;  // then the bits propagate
  }
  return at - sim_.now();
}

void SimFabric::partition(const std::vector<Address>& group_a,
                          const std::vector<Address>& group_b) {
  partition_a_.clear();
  partition_b_.clear();
  for (const Address& a : group_a) partition_a_.insert(a.node);
  for (const Address& b : group_b) partition_b_.insert(b.node);
}

void SimFabric::heal() {
  partition_a_.clear();
  partition_b_.clear();
}

bool SimFabric::partition_blocks(NodeId from, NodeId to) const {
  if (partition_a_.empty() || partition_b_.empty()) return false;
  const bool a_to_b =
      partition_a_.count(from) != 0 && partition_b_.count(to) != 0;
  const bool b_to_a =
      partition_b_.count(from) != 0 && partition_a_.count(to) != 0;
  return a_to_b || b_to_a;
}

TimerId SimFabric::schedule(const Address& owner, sim::Duration delay,
                            std::function<void()> fn) {
  // Under the single-threaded simulator no extra serialization per owner
  // is needed; the owner address matters only for ThreadFabric.
  (void)owner;
  return sim_.schedule_after(delay, std::move(fn));
}

TimerId SimFabric::schedule_daemon(const Address& owner, sim::Duration delay,
                                   std::function<void()> fn) {
  (void)owner;
  return sim_.schedule_after(delay, std::move(fn), /*daemon=*/true);
}

bool SimFabric::cancel_timer(TimerId id) { return sim_.cancel(id); }

}  // namespace flecc::net

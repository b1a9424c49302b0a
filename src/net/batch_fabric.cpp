#include "net/batch_fabric.hpp"

#include <utility>

#include "obs/trace.hpp"

namespace flecc::net {

BatchFabric::BatchFabric(Fabric& inner, Config cfg)
    : inner_(inner), cfg_(cfg), unbatcher_(*this) {
  if (cfg_.max_batch == 0) cfg_.max_batch = 1;
}

BatchFabric::~BatchFabric() {
  // Pending batches die with the fabric, like any in-flight message at
  // teardown. Terminal bindings are ours to release; pass-through
  // endpoint bindings belong to their owners.
  std::vector<TimerId> timers;
  std::vector<NodeId> terminals;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, p] : pending_) {
      if (p.timer != kInvalidTimerId) timers.push_back(p.timer);
    }
    pending_.clear();
    terminals.assign(terminals_.begin(), terminals_.end());
    terminals_.clear();
  }
  for (const TimerId t : timers) inner_.cancel_timer(t);
  for (const NodeId n : terminals) inner_.unbind(Address{n, kBatchPort});
}

void BatchFabric::bind(const Address& addr, Endpoint& ep) {
  inner_.bind(addr, ep);  // throws on duplicates, same as unbatched
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_[addr] = &ep;
}

void BatchFabric::unbind(const Address& addr) {
  inner_.unbind(addr);
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_.erase(addr);
}

void BatchFabric::set_clock(const Address& addr, obs::CausalClock* clock) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (clock == nullptr) {
      clocks_.erase(addr);
    } else {
      clocks_[addr] = clock;
    }
  }
  inner_.set_clock(addr, clock);
}

void BatchFabric::ensure_terminal(NodeId node) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!terminals_.insert(node).second) return;
  }
  inner_.bind(Address{node, kBatchPort}, unbatcher_);
}

void BatchFabric::send(Address from, Address to, std::string type,
                       std::any payload, std::size_t bytes) {
  const PendKey key{from.node, to.node};
  bool flush_now = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Message sub;
    sub.id = next_sub_id_++;
    sub.from = from;
    sub.to = to;
    sub.type = std::move(type);
    sub.payload = std::move(payload);
    sub.bytes = bytes;
    // Stamp the sender's clock as the message enters the batch; the
    // inner fabric only sees the frame (whose terminal has no clock).
    if (auto it = clocks_.find(from); it != clocks_.end()) {
      sub.clock = it->second->tick();
    }
    Pending& p = pending_[key];
    p.subs.push_back(std::move(sub));
    if (p.subs.size() >= cfg_.max_batch) {
      flush_now = true;
    } else if (p.timer == kInvalidTimerId) {
      // Plain (non-daemon) timer: a pending batch must hold a
      // run-to-quiescence simulation open until it is delivered.
      p.timer = inner_.schedule(from, cfg_.batch_window, [this, key] {
        flush(key, FlushReason::kWindow);
      });
    }
  }
  if (flush_now) flush(key, FlushReason::kCapacity);
}

void BatchFabric::flush(PendKey key, FlushReason reason) {
  // Take the train and its timer out under the lock. A lone message is
  // moved out; a longer train is swapped into a recycled frame, and the
  // record keeps the frame's old buffer (emptied at delivery, or cleared
  // here if that frame was dropped on the way).
  Message single;
  PoolPtr<BatchFrame> frame;
  std::size_t n = 0;
  TimerId timer = kInvalidTimerId;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(key);
    if (it == pending_.end()) return;
    Pending& p = it->second;
    timer = std::exchange(p.timer, kInvalidTimerId);
    n = p.subs.size();
    if (n == 1) {
      single = std::move(p.subs.front());
    } else if (n > 1) {
      frame = frames_.acquire();
      frame->subs.swap(p.subs);
    }
    p.subs.clear();
  }
  if (timer != kInvalidTimerId && reason != FlushReason::kWindow) {
    inner_.cancel_timer(timer);
  }
  if (n == 0) return;

  sim::CounterSet& ctr = inner_.counters();
  if (n == 1) {
    // No train to coalesce: skip the framing entirely. The inner fabric
    // counts this send (and re-stamps the clock — monotonic, harmless).
    ctr.inc("batch.flush.single");
    inner_.send(single.from, single.to, std::move(single.type),
                std::move(single.payload), single.bytes);
    return;
  }

  ctr.inc(reason == FlushReason::kWindow ? "batch.flush.window"
                                         : "batch.flush.capacity");
  ctr.inc("batch.frames");
  ctr.inc("batch.subs", n);
  ctr.inc("batch.coalesced", n - 1);
  std::size_t frame_bytes = kBatchHeaderBytes;
  for (const Message& s : frame->subs) {
    frame_bytes += s.bytes;
    // Per-type accounting stays per sub-message; only the inner
    // fabric's bare hop counters (msg.sent, bytes.sent) see the frame.
    ctr.inc_cat("msg.sent.", s.type);
  }
  ensure_terminal(key.to_node);
  inner_.send(Address{key.from_node, kBatchPort},
              Address{key.to_node, kBatchPort}, kBatchFrame,
              std::any(std::move(frame)), frame_bytes);
}

void BatchFabric::flush_all() {
  std::vector<PendKey> keys;
  {
    std::lock_guard<std::mutex> lock(mu_);
    keys.reserve(pending_.size());
    for (const auto& [key, p] : pending_) {
      if (!p.subs.empty()) keys.push_back(key);
    }
  }
  for (const PendKey& key : keys) flush(key, FlushReason::kCapacity);
}

void BatchFabric::deliver_frame(const Message& m) {
  // Frames are this batcher's own and each arrives once, so the fan-out
  // empties it: the subs' payloads are released now, not when the pool
  // hands the frame out again.
  BatchFrame& frame = *std::any_cast<const PoolPtr<BatchFrame>&>(m.payload);
  sim::CounterSet& ctr = inner_.counters();
  for (const Message& sub : frame.subs) {
    Endpoint* ep = nullptr;
    obs::CausalClock* clock = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (auto it = endpoints_.find(sub.to); it != endpoints_.end()) {
        ep = it->second;
      }
      if (auto it = clocks_.find(sub.to); it != clocks_.end()) {
        clock = it->second;
      }
    }
    if (ep == nullptr) {
      // The endpoint unbound while the frame was in flight — the same
      // fate a direct message to it would have met.
      ctr.inc("batch.sub.unbound");
      ctr.inc("msg.dropped.unbound");
      continue;
    }
    ctr.inc_cat("msg.delivered.", sub.type);
    if (clock != nullptr) clock->observe(sub.clock);
    ep->on_message(sub);
  }
  frame.subs.clear();
}

}  // namespace flecc::net

// Fabric-level send batching — one framed hop per message train.
//
// BatchFabric is a decorator over any inner Fabric. Messages between
// the same pair of nodes are coalesced into a single BatchFrame that
// traverses the inner fabric as ONE message (one per-hop software
// overhead, one loss/partition roll, one `msg.sent` hop), then fan out
// to their individual endpoints on arrival. A pending batch is flushed
// when it reaches `max_batch` messages or when its `batch_window` timer
// fires, whichever comes first; a batch holding a single message is
// sent unwrapped (no framing overhead, exactly the unbatched path).
//
// Semantics preserved:
//   * per-type traffic counters (`msg.sent.<type>`, `msg.delivered.<type>`,
//     `bytes.sent`) still count every sub-message exactly once — only
//     the bare `msg.sent`/`msg.delivered` hop counters see frames;
//   * causal clocks: a sub-message is stamped from the sender's clock
//     when it enters the batch, and the receiver's clock observes each
//     sub-message stamp at unbatch, so Lamport causality is identical
//     to the unbatched fabric;
//   * frame delivery replays sub-messages in send order, so ordering
//     within one (sender node, receiver node) train is FIFO — stronger
//     than the inner fabric's size-dependent delivery, never weaker in
//     a way the protocol could observe (the protocol already tolerates
//     reordering);
//   * a dropped frame drops its whole train (correlated loss); the
//     reliability layer's retransmissions recover exactly as they do
//     for independent losses.
//
// Determinism: flush timers run on the inner fabric's scheduler and the
// batch keyed state is touched only from sends and those timers, so a
// simulated run is bit-for-bit reproducible. A mutex guards the pending
// state for rt::ThreadFabric use.
//
// Counters (on the inner fabric's CounterSet, `net.` prefix when
// aggregated by the benches — see OBSERVABILITY.md):
//   batch.frames          frames sent (multi-message flushes)
//   batch.subs            messages that traveled inside frames
//   batch.coalesced       hops saved (subs - frames)
//   batch.flush.window    flushes forced by the window timer
//   batch.flush.capacity  flushes forced by max_batch
//   batch.flush.single    single-message flushes sent unwrapped
//   batch.sub.unbound     sub-messages whose endpoint vanished mid-hop
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "net/fabric.hpp"
#include "net/pool.hpp"

namespace flecc::net {

/// Wire type tag of a batch frame on the inner fabric.
inline constexpr const char* kBatchFrame = "net.batch.frame";
/// Terminal port frames travel between (one per node, lazily bound);
/// chosen far outside the application port range.
inline constexpr PortId kBatchPort = 0xfffffffe;
/// Simulated framing overhead added to the sum of sub-message bytes.
inline constexpr std::size_t kBatchHeaderBytes = 16;

/// The payload of a kBatchFrame message, boxed as a PoolPtr<BatchFrame>
/// from the sending batcher's pool: the coalesced sub-messages, in send
/// order, each with its original addressing/type/clock intact.
struct BatchFrame {
  std::vector<Message> subs;
};

class BatchFabric : public Fabric {
 public:
  struct Config {
    /// How long a pending batch may wait for more traffic to coalesce
    /// with before it is flushed. Also the latency cost of batching.
    sim::Duration batch_window = sim::usec(25);
    /// Flush immediately once this many messages are pending.
    std::size_t max_batch = 16;
  };

  BatchFabric(Fabric& inner, Config cfg);
  ~BatchFabric() override;

  BatchFabric(const BatchFabric&) = delete;
  BatchFabric& operator=(const BatchFabric&) = delete;

  [[nodiscard]] sim::Time now() const override { return inner_.now(); }
  void bind(const Address& addr, Endpoint& ep) override;
  void unbind(const Address& addr) override;
  void send(Address from, Address to, std::string type, std::any payload,
            std::size_t bytes) override;
  TimerId schedule(const Address& owner, sim::Duration delay,
                   std::function<void()> fn) override {
    return inner_.schedule(owner, delay, std::move(fn));
  }
  TimerId schedule_daemon(const Address& owner, sim::Duration delay,
                          std::function<void()> fn) override {
    return inner_.schedule_daemon(owner, delay, std::move(fn));
  }
  bool cancel_timer(TimerId id) override { return inner_.cancel_timer(id); }
  void set_clock(const Address& addr, obs::CausalClock* clock) override;
  [[nodiscard]] sim::CounterSet& counters() override {
    return inner_.counters();
  }
  [[nodiscard]] const sim::CounterSet& counters() const override {
    return inner_.counters();
  }

  [[nodiscard]] Fabric& inner() noexcept { return inner_; }

  /// Flush every pending batch now (tests / orderly shutdown).
  void flush_all();

 private:
  /// One pending train: same (sender node -> receiver node) pair.
  struct PendKey {
    NodeId from_node;
    NodeId to_node;
    friend auto operator<=>(const PendKey&, const PendKey&) = default;
  };
  /// A node pair's record lives as long as the fabric, so its `subs`
  /// buffer is reused by every train; an empty record has no train.
  struct Pending {
    std::vector<Message> subs;
    TimerId timer = kInvalidTimerId;
  };

  /// Receives kBatchFrame messages at a node's terminal port and fans
  /// the sub-messages out to their bound endpoints.
  class Unbatcher : public Endpoint {
   public:
    explicit Unbatcher(BatchFabric& parent) : parent_(parent) {}
    void on_message(const Message& m) override { parent_.deliver_frame(m); }

   private:
    BatchFabric& parent_;
  };

  enum class FlushReason { kWindow, kCapacity };
  void flush(PendKey key, FlushReason reason);
  void deliver_frame(const Message& frame);
  /// Bind the shared unbatcher at `node`'s terminal port once.
  void ensure_terminal(NodeId node);

  Fabric& inner_;
  Config cfg_;
  std::mutex mu_;
  std::map<PendKey, Pending> pending_;
  std::map<Address, Endpoint*> endpoints_;
  std::map<Address, obs::CausalClock*> clocks_;
  std::set<NodeId> terminals_;
  /// Multi-message frames travel as PoolPtr handles, which std::any
  /// stores inline; a recycled frame brings back its `subs` capacity.
  ObjectPool<BatchFrame> frames_;
  Unbatcher unbatcher_;
  std::uint64_t next_sub_id_ = 1;
};

}  // namespace flecc::net

// The message path below the FSMs allocates nothing per message or
// timer once warmed up: SimFabric sends and deliveries, timers that are
// scheduled, fire or are cancelled, and BatchFabric trains flushed by
// capacity and by window. Above it, the directory's handlers cost a
// fixed number of allocations per fetch round whatever the round's
// fan-out (its ledgers are flat and the targets' property sets are
// shared, not copied), and evaluating a trigger allocates nothing. This
// executable replaces the global operator new to count every heap
// allocation, so it must stay its own test binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/directory_manager.hpp"
#include "core/messages.hpp"
#include "net/batch_fabric.hpp"
#include "net/sim_fabric.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "trigger/trigger.hpp"

static std::atomic<std::uint64_t> g_allocs{0};

// The replaced operators pair malloc/posix_memalign with free; GCC
// inlines them into callers and flags the new/free mix as a mismatch it
// is not.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     n ? n : 1) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace flecc::net {
namespace {

/// Allocations made by `round()` the second time it runs; the first run
/// is the warm-up that grows every buffer and counter key.
template <typename Round>
std::uint64_t allocs_after_warmup(Round&& round) {
  round();
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  round();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

struct Sink : Endpoint {
  std::uint64_t received = 0;
  void on_message(const Message& m) override {
    if (payload_as<const int*>(m) != nullptr) ++received;
  }
};

/// Two hosts on a LAN, one sink bound on each.
struct TwoHosts {
  sim::Simulator sim;
  std::vector<NodeId> hosts;
  SimFabric fabric;
  Sink sink_a;
  Sink sink_b;
  Address a;
  Address b;
  const int value = 7;

  TwoHosts() : fabric(sim, Topology::lan(2, {}, &hosts)) {
    a = Address{hosts[0], 1};
    b = Address{hosts[1], 1};
    fabric.bind(a, sink_a);
    fabric.bind(b, sink_b);
  }
};

TEST(AllocFreePathTest, SimFabricSendAndDeliver) {
  TwoHosts net;
  const std::uint64_t allocs = allocs_after_warmup([&net] {
    for (int i = 0; i < 1000; ++i) {
      // A pointer-sized payload and a tag short enough for the string's
      // inline buffer: the caller's side allocates nothing either.
      net.fabric.send(net.a, net.b, "test.ping", &net.value, 64);
      net.sim.run();
    }
  });
  EXPECT_EQ(net.sink_b.received, 2000u);
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocFreePathTest, TimersScheduledFiredAndCancelled) {
  TwoHosts net;
  std::uint64_t fired = 0;
  bool cancelled_all = true;
  const std::uint64_t allocs = allocs_after_warmup([&] {
    for (int i = 0; i < 1000; ++i) {
      net.fabric.schedule(net.a, sim::usec(10), [&fired] { ++fired; });
      net.fabric.schedule_daemon(net.a, sim::usec(5), [&fired] { ++fired; });
      const TimerId doomed =
          net.fabric.schedule(net.a, sim::usec(20), [&fired] { fired += 100; });
      cancelled_all = net.fabric.cancel_timer(doomed) && cancelled_all;
      net.sim.run();
    }
  });
  EXPECT_TRUE(cancelled_all);
  EXPECT_EQ(fired, 4000u);
  EXPECT_EQ(allocs, 0u);
}

/// 4-message trains between two hosts through a BatchFabric; every
/// train leaves as one frame.
void run_trains(std::size_t max_batch, const char* flush_counter) {
  TwoHosts net;
  BatchFabric batch(net.fabric, BatchFabric::Config{sim::usec(25), max_batch});
  Sink sink_a;
  Sink sink_b;
  const Address a{net.hosts[0], 2};
  const Address b{net.hosts[1], 2};
  batch.bind(a, sink_a);
  batch.bind(b, sink_b);
  const std::uint64_t allocs = allocs_after_warmup([&] {
    for (int i = 0; i < 250; ++i) {
      for (int m = 0; m < 4; ++m) {
        batch.send(a, b, "test.train", &net.value, 64);
      }
      net.sim.run();
    }
  });
  EXPECT_EQ(sink_b.received, 2000u);
  EXPECT_EQ(net.fabric.counters().get("batch.frames"), 500u);
  EXPECT_EQ(net.fabric.counters().get(flush_counter), 500u);
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocFreePathTest, BatchTrainsFlushedByCapacity) {
  run_trains(4, "batch.flush.capacity");
}

TEST(AllocFreePathTest, BatchTrainsFlushedByWindow) {
  run_trains(16, "batch.flush.window");
}

TEST(AllocFreePathTest, TriggerReadingTimeEvaluates) {
  const trigger::Trigger trigger("t > 5 && pendingSales < 3");
  const trigger::VariableStore vars{{"pendingSales", 1.0}};
  bool all = true;
  const std::uint64_t allocs = allocs_after_warmup([&] {
    for (int i = 0; i < 1000; ++i) all = trigger.evaluate(10.0, vars) && all;
  });
  EXPECT_TRUE(all);
  EXPECT_EQ(allocs, 0u);
}

// ---- the directory's fetch rounds -------------------------------------------

/// A primary whose images are empty: the directory's own bookkeeping is
/// all that allocates.
class EmptyPrimary final : public core::PrimaryAdapter {
 public:
  [[nodiscard]] core::ObjectImage extract_from_object(
      const props::PropertySet& /*vpl*/) const override {
    return {};
  }
  void merge_into_object(const core::ObjectImage& /*image*/,
                         const props::PropertySet& /*vpl*/) override {}
  [[nodiscard]] props::PropertySet data_properties() const override {
    props::PropertySet ps;
    ps.set("Flights", props::Domain::interval(0, 99));
    return ps;
  }
};

/// Every view's property set: five flights, a set node each, as the
/// airline's views hold theirs.
props::PropertySet five_flights() {
  props::PropertySet ps;
  ps.set("Flights", props::Domain::discrete_range(0, 4));
  return ps;
}

/// A cache manager played by the test: it keeps its view id and the
/// token of the last FetchReq it received.
struct Peer : Endpoint {
  core::ViewId view = core::kInvalidViewId;
  std::uint64_t token = 0;
  void on_message(const Message& m) override {
    if (m.type == core::msg::kRegisterAck) {
      view = payload_as<core::msg::RegisterAck>(m).view;
    } else if (m.type == core::msg::kFetchReq) {
      token = payload_as<core::msg::FetchReq>(m).token;
    }
  }
};

/// A directory, a requester whose validity trigger always fails, and
/// `targets` active views that all conflict with it. The test hands the
/// directory each message itself, and counts only inside on_message().
class FetchRounds {
 public:
  explicit FetchRounds(std::size_t targets)
      : fabric_(sim_, Topology::lan(targets + 2, {}, &hosts_)),
        dir_addr_{hosts_.back(), 1},
        dm_(fabric_, dir_addr_, primary_),
        peers_(targets + 1) {
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      const Address addr{hosts_[i], 1};
      fabric_.bind(addr, peers_[i]);
      core::msg::RegisterReq reg;
      reg.view_name = "kv.View";
      reg.properties = five_flights();
      reg.validity_trigger = i == 0 ? "false" : "";
      reg.req = next_req_++;
      deliver(addr, core::msg::kRegisterReq, reg);
      settle();
      deliver(addr, core::msg::kInitReq,
              core::msg::InitReq{peers_[i].view, next_req_++});
      settle();
    }
  }
  ~FetchRounds() {
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      fabric_.unbind(Address{hosts_[i], 1});
    }
  }
  FetchRounds(const FetchRounds&) = delete;
  FetchRounds& operator=(const FetchRounds&) = delete;

  /// The requester pulls, every target answers clean, and the round
  /// completes. Returns the allocations made inside on_message().
  std::uint64_t round() {
    std::uint64_t allocs = 0;
    const Message pull = message(
        0, core::msg::kPullReq,
        core::msg::PullReq{peers_[0].view, core::AccessIntent::kReadWrite,
                           next_req_++});
    allocs += counted(pull);
    settle();
    std::vector<Message> replies;
    for (std::size_t i = 1; i < peers_.size(); ++i) {
      core::msg::FetchReply rep;
      rep.view = peers_[i].view;
      rep.token = peers_[i].token;
      replies.push_back(message(i, core::msg::kFetchReply, rep));
    }
    for (const Message& rep : replies) allocs += counted(rep);
    settle();
    return allocs;
  }

  [[nodiscard]] std::uint64_t stat(const std::string& name) const {
    return dm_.stats().get(name);
  }

 private:
  template <typename T>
  Message message(std::size_t peer, const char* type, T payload) {
    Message m;
    m.from = Address{hosts_[peer], 1};
    m.to = dir_addr_;
    m.type = type;
    m.bytes = core::msg::wire_size(payload);
    m.payload = std::move(payload);
    return m;
  }
  template <typename T>
  void deliver(const Address& from, const char* type, T payload) {
    const std::size_t bytes = core::msg::wire_size(payload);
    fabric_.send(from, dir_addr_, type, std::move(payload), bytes);
  }
  std::uint64_t counted(const Message& m) {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    dm_.on_message(m);
    return g_allocs.load(std::memory_order_relaxed) - before;
  }
  /// Deliver what is in flight, well before any round timer fires.
  void settle() { sim_.run_until(sim_.now() + sim::msec(5)); }

  sim::Simulator sim_;
  std::vector<NodeId> hosts_;
  SimFabric fabric_;
  Address dir_addr_;
  EmptyPrimary primary_;
  core::DirectoryManager dm_;
  std::vector<Peer> peers_;
  std::uint64_t next_req_ = 1;
};

TEST(AllocFreePathTest, FetchRoundCostIsFlatInItsTargets) {
  // Both sizes pay a round's fixed costs (its node and lists, its
  // archive slot, the reply's tag); the slack absorbs a deque's
  // occasional new block landing in one count and not the other.
  constexpr std::uint64_t kSlack = 8;
  std::uint64_t allocs[2] = {0, 0};
  const std::size_t sizes[2] = {4, 40};
  for (int i = 0; i < 2; ++i) {
    FetchRounds rounds(sizes[i]);
    for (int warm = 0; warm < 3; ++warm) rounds.round();
    allocs[i] = rounds.round();
    EXPECT_EQ(rounds.stat("op.pull.fetch_round"), 4u);
    EXPECT_EQ(rounds.stat("op.fetch.timeout"), 0u);
  }
  EXPECT_LE(allocs[1], allocs[0] + kSlack)
      << "4 targets: " << allocs[0] << ", 40 targets: " << allocs[1];
}

}  // namespace
}  // namespace flecc::net

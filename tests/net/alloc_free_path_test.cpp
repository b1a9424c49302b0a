// The message path below the FSMs allocates nothing per message or
// timer once warmed up: SimFabric sends and deliveries, timers that are
// scheduled, fire or are cancelled, and BatchFabric trains flushed by
// capacity and by window. This executable replaces the global operator
// new to count every heap allocation, so it must stay its own test
// binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "net/batch_fabric.hpp"
#include "net/sim_fabric.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

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

}  // namespace
}  // namespace flecc::net

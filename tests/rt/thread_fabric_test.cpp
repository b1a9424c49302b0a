// ThreadFabric tests: the Fabric contract under real threads, and the
// full Flecc protocol running multi-threaded.
#include "rt/thread_fabric.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "../core/test_support.hpp"
#include "core/cache_manager.hpp"
#include "core/directory_manager.hpp"

namespace flecc::rt {
namespace {

struct CountingEndpoint : net::Endpoint {
  std::atomic<int> count{0};
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  void on_message(const net::Message&) override {
    const int c = ++concurrent;
    int prev = max_concurrent.load();
    while (c > prev && !max_concurrent.compare_exchange_weak(prev, c)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    ++count;
    --concurrent;
  }
};

TEST(ThreadFabricTest, DeliversMessages) {
  ThreadFabric fabric;
  CountingEndpoint ep;
  fabric.bind(net::Address{0, 1}, ep);
  for (int i = 0; i < 10; ++i) {
    fabric.send(net::Address{0, 2}, net::Address{0, 1}, "t.msg", i, 8);
  }
  fabric.drain();
  EXPECT_EQ(ep.count.load(), 10);
}

TEST(ThreadFabricTest, HandlersNeverRunConcurrentlyPerEndpoint) {
  ThreadFabric fabric;
  CountingEndpoint ep;
  fabric.bind(net::Address{0, 1}, ep);
  // Blast from several sender threads.
  std::vector<std::thread> senders;
  for (int s = 0; s < 4; ++s) {
    senders.emplace_back([&fabric, s] {
      for (int i = 0; i < 25; ++i) {
        fabric.send(net::Address{1, static_cast<net::PortId>(s)},
                    net::Address{0, 1}, "t.blast", i, 8);
      }
    });
  }
  for (auto& t : senders) t.join();
  fabric.drain();
  EXPECT_EQ(ep.count.load(), 100);
  EXPECT_EQ(ep.max_concurrent.load(), 1);  // the Fabric contract
}

TEST(ThreadFabricTest, DistinctEndpointsRunConcurrently) {
  ThreadFabric fabric;
  CountingEndpoint a, b;
  fabric.bind(net::Address{0, 1}, a);
  fabric.bind(net::Address{0, 2}, b);
  for (int i = 0; i < 50; ++i) {
    fabric.send(net::Address{9, 9}, net::Address{0, 1}, "t.a", i, 8);
    fabric.send(net::Address{9, 9}, net::Address{0, 2}, "t.b", i, 8);
  }
  fabric.drain();
  EXPECT_EQ(a.count.load(), 50);
  EXPECT_EQ(b.count.load(), 50);
}

TEST(ThreadFabricTest, UnboundDestinationCounted) {
  ThreadFabric fabric;
  fabric.send(net::Address{0, 1}, net::Address{0, 2}, "t.void", 0, 8);
  fabric.drain();
  EXPECT_EQ(fabric.counters().get("msg.dropped.unbound"), 1u);
}

// post_to's unbound branch is the only place the in-flight count drops
// outside a mailbox thread: without it drain() would wait forever.
TEST(ThreadFabricTest, PostToUnboundEndpointIsDroppedAndDrains) {
  ThreadFabric fabric;
  CountingEndpoint ep;
  const net::Address gone{0, 1};
  fabric.bind(gone, ep);
  fabric.unbind(gone);
  fabric.post(gone, [] {});
  fabric.schedule(gone, 0, [] {});
  // The timer is due at once; wait for the scheduler thread to drop it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fabric.counters_snapshot().get("task.dropped.unbound") < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fabric.counters_snapshot().get("task.dropped.unbound"), 2u);
  fabric.drain();
  EXPECT_EQ(ep.count.load(), 0);
}

TEST(ThreadFabricTest, TimersFireAndCancel) {
  ThreadFabric fabric;
  CountingEndpoint ep;
  fabric.bind(net::Address{0, 1}, ep);
  std::atomic<int> fired{0};
  fabric.schedule(net::Address{0, 1}, sim::msec(5), [&] { ++fired; });
  const auto id =
      fabric.schedule(net::Address{0, 1}, sim::msec(200), [&] { ++fired; });
  EXPECT_TRUE(fabric.cancel_timer(id));
  EXPECT_FALSE(fabric.cancel_timer(id));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fabric.drain();
  EXPECT_EQ(fired.load(), 1);
}

TEST(ThreadFabricTest, NowIsMonotonic) {
  ThreadFabric fabric;
  const auto t0 = fabric.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(fabric.now(), t0);
}

/// Holds its mailbox thread hostage on the first "t.block" message until
/// released, so the test can fill the queue behind it deterministically.
struct BlockingEndpoint : net::Endpoint {
  std::atomic<int> count{0};
  std::atomic<bool> entered{false};
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;

  void on_message(const net::Message& m) override {
    if (m.type == "t.block") {
      entered = true;
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [this] { return release; });
      return;
    }
    ++count;
  }

  void unblock() {
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
  }
};

TEST(ThreadFabricTest, PeakCountsSendsQueuedBehindABlockedHandler) {
  ThreadFabric fabric;
  BlockingEndpoint ep;
  fabric.bind(net::Address{0, 1}, ep);

  fabric.send(net::Address{0, 2}, net::Address{0, 1}, "t.block", 0, 8);
  while (!ep.entered.load()) std::this_thread::yield();

  // The worker is wedged, so all ten sends queue behind it.
  for (int i = 0; i < 10; ++i) {
    fabric.send(net::Address{0, 2}, net::Address{0, 1}, "t.queued", i, 8);
  }
  ep.unblock();
  fabric.drain();

  EXPECT_EQ(ep.count.load(), 10);
  EXPECT_EQ(fabric.peak_mailbox_depth(), 10u);
  EXPECT_EQ(fabric.counters().get("flow.queue.peak"), 10u);
}

// ---- the actual protocol over threads ------------------------------------

TEST(ThreadFabricProtocolTest, FleccRunsUnchangedOverThreads) {
  using core::testing::KvPrimary;
  using core::testing::KvView;

  ThreadFabric fabric;
  KvPrimary primary(100);
  const net::Address dir_addr{100, 1};
  core::DirectoryManager directory(fabric, dir_addr, primary);

  constexpr int kAgents = 4;
  constexpr int kOpsEach = 10;
  std::vector<std::unique_ptr<KvView>> views;
  std::vector<std::unique_ptr<core::CacheManager>> cms;
  for (int i = 0; i < kAgents; ++i) {
    views.push_back(std::make_unique<KvView>(0, 9));
    core::CacheManager::Config cfg;
    cfg.view_name = "kv.View";
    cfg.properties = views.back()->properties();
    cfg.mode = core::Mode::kStrong;
    cms.push_back(std::make_unique<core::CacheManager>(
        fabric, net::Address{static_cast<net::NodeId>(i), 1}, dir_addr,
        *views.back(), cfg));
  }

  // Each agent thread performs strong-mode increments via the blocking
  // facade. Every CacheManager call is posted to the manager's own
  // mailbox (the rt threading rule), so the protocol object never sees
  // concurrent calls; exclusivity must serialize the agents without
  // losing updates.
  std::vector<std::thread> workers;
  for (int i = 0; i < kAgents; ++i) {
    workers.emplace_back([&, i] {
      const auto idx = static_cast<size_t>(i);
      const net::Address self = cms[idx]->address();
      for (int op = 0; op < kOpsEach; ++op) {
        wait_for([&](auto done) {
          fabric.post(self, [&, done = std::move(done)] {
            cms[idx]->start_use_image(done);
          });
        });
        wait_for([&](auto done) {
          fabric.post(self, [&, done = std::move(done)] {
            views[idx]->increment(3, 1);
            cms[idx]->end_use_image(true);
            done();
          });
        });
      }
      wait_for([&](auto done) {
        fabric.post(self, [&, done = std::move(done)] {
          cms[idx]->kill_image(done);
        });
      });
    });
  }
  for (auto& w : workers) w.join();
  fabric.drain();

  EXPECT_EQ(primary.cell(3), kAgents * kOpsEach);
  // Tear down the cache managers before the fabric.
  cms.clear();
}

}  // namespace
}  // namespace flecc::rt

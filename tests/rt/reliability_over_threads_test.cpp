// The reliability layer under real concurrency: message loss injected
// into rt::ThreadFabric, recovered by request retransmission and the
// directory's idempotent-replay window. Same invariant as the simulator
// tests — every operation completes and the primary ends up exact.
#include <gtest/gtest.h>

#include <thread>

#include "../core/test_support.hpp"
#include "core/cache_manager.hpp"
#include "core/directory_manager.hpp"
#include "rt/thread_fabric.hpp"

namespace flecc::rt {
namespace {

using core::testing::KvPrimary;
using core::testing::KvView;

struct Member {
  std::unique_ptr<KvView> view;
  std::unique_ptr<core::CacheManager> cm;
};

/// Tight retry cadence: wall-clock timeouts, so keep the test fast.
core::RetryPolicy fast_retry() {
  core::RetryPolicy p;
  p.base_timeout = sim::msec(20);
  p.max_timeout = sim::msec(100);
  p.max_attempts = 8;
  return p;
}

Member make_member(ThreadFabric& fabric, net::Address self,
                   net::Address directory,
                   core::CacheManager::Config cfg = {}) {
  Member m;
  m.view = std::make_unique<KvView>(0, 9);
  cfg.view_name = "kv.View";
  cfg.properties = m.view->properties();
  cfg.retry = fast_retry();
  m.cm = std::make_unique<core::CacheManager>(fabric, self, directory,
                                              *m.view, std::move(cfg));
  return m;
}

template <typename Op>
void call(ThreadFabric& fabric, Member& m, Op op) {
  wait_for([&](auto done) {
    fabric.post(m.cm->address(),
                [&, done = std::move(done)] { op(*m.cm, done); });
  });
}

TEST(ThreadedReliabilityTest, LossyFabricStillConservesEveryUpdate) {
  ThreadFabric::Config fcfg;
  fcfg.loss_probability = 0.10;
  fcfg.loss_seed = 0xabcd;
  ThreadFabric fabric(fcfg);
  KvPrimary primary(100);
  const net::Address dir_addr{100, 1};
  core::DirectoryManager directory(fabric, dir_addr, primary);

  constexpr int kAgents = 3;
  constexpr int kOpsEach = 6;
  std::vector<Member> members;
  for (int i = 0; i < kAgents; ++i) {
    members.push_back(make_member(
        fabric, net::Address{static_cast<net::NodeId>(i), 1}, dir_addr));
  }

  std::vector<std::thread> workers;
  for (int i = 0; i < kAgents; ++i) {
    workers.emplace_back([&, i] {
      Member& m = members[static_cast<size_t>(i)];
      call(fabric, m, [](core::CacheManager& cm, auto done) {
        cm.init_image(done);
      });
      for (int op = 0; op < kOpsEach; ++op) {
        call(fabric, m, [&](core::CacheManager& cm, auto done) {
          cm.start_use_image(done);
        });
        call(fabric, m, [&, i](core::CacheManager& cm, auto done) {
          members[static_cast<size_t>(i)].view->increment(i, 1);
          cm.end_use_image(true);
          done();
        });
        call(fabric, m, [](core::CacheManager& cm, auto done) {
          cm.push_image(done);
        });
      }
      call(fabric, m, [](core::CacheManager& cm, auto done) {
        cm.kill_image(done);
      });
    });
  }
  for (auto& w : workers) w.join();
  fabric.drain();

  // Dropped requests were retransmitted; replayed pushes were answered
  // from the dedup window, never re-merged: the totals are exact.
  for (int i = 0; i < kAgents; ++i) {
    EXPECT_EQ(primary.cell(i), kOpsEach) << "agent " << i;
  }
  EXPECT_EQ(primary.total(), kAgents * kOpsEach);
  EXPECT_EQ(directory.registered_count(), 0u);  // all kills completed
}

TEST(ThreadedReliabilityTest, HeartbeatsDetectDirectoryRestartOverThreads) {
  ThreadFabric fabric;
  KvPrimary primary(100);
  const net::Address dir_addr{100, 1};
  auto directory =
      std::make_unique<core::DirectoryManager>(fabric, dir_addr, primary);

  core::CacheManager::Config cfg;
  cfg.heartbeat_interval = sim::msec(20);
  cfg.heartbeat_miss_limit = 3;
  Member m = make_member(fabric, net::Address{0, 1}, dir_addr,
                         std::move(cfg));
  call(fabric, m, [](core::CacheManager& cm, auto done) {
    cm.init_image(done);
  });
  ASSERT_TRUE(m.cm->registered());

  // Restart the directory with an empty registry: the next heartbeat
  // comes back known=false and the manager re-registers by itself.
  directory.reset();
  fabric.drain();
  directory =
      std::make_unique<core::DirectoryManager>(fabric, dir_addr, primary);

  // Each endpoint's state is read on its own mailbox thread, which the
  // protocol keeps running (heartbeats) while this thread polls.
  const auto on_mailbox = [&](net::Address addr, const auto& read) {
    wait_for([&](auto done) {
      fabric.post(addr, [&, done = std::move(done)] {
        read();
        done();
      });
    });
  };
  std::size_t registered = 0;
  const auto count_registered = [&] {
    on_mailbox(dir_addr, [&] { registered = directory->registered_count(); });
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  count_registered();
  while (registered == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    count_registered();
  }
  fabric.drain();
  count_registered();
  EXPECT_EQ(registered, 1u);
  bool cm_registered = false;
  std::uint64_t lost = 0;
  on_mailbox(m.cm->address(), [&] {
    cm_registered = m.cm->registered();
    lost = m.cm->stats().get("heartbeat.lost_registration");
  });
  EXPECT_TRUE(cm_registered);
  EXPECT_GE(lost, 1u);

  call(fabric, m, [](core::CacheManager& cm, auto done) {
    cm.kill_image(done);
  });
}

}  // namespace
}  // namespace flecc::rt

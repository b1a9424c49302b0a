// Causal-clock propagation and span stitching over the REAL protocol:
// Lamport stamps must never regress within an agent's event stream —
// across loss, partitions, mid-op mode switches, and
// eviction/reconnect — and every completed operation must stitch back
// to its op_started through one span id. The same properties are
// re-checked by the online InvariantMonitor (zero causality
// violations, non-trivial check counts). A ThreadFabric variant covers
// the concurrent-runtime clock plumbing, and a last case pins that only
// a traced endpoint stamps its messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "airline/testbed.hpp"
#include "airline/travel_agent_view.hpp"
#include "core/cache_manager.hpp"
#include "core/directory_manager.hpp"
#include "core/messages.hpp"
#include "net/sim_fabric.hpp"
#include "obs/monitor/invariant_monitor.hpp"
#include "rt/thread_fabric.hpp"

namespace flecc::obs {
namespace {

/// Per-agent Lamport monotonicity over a merged snapshot (events from
/// one agent appear in emission order after the stable time sort).
void expect_clocks_monotone(const std::vector<TraceEvent>& events) {
  std::map<std::uint64_t, std::uint64_t> last;
  for (const auto& e : events) {
    if (e.clock == 0) continue;  // fabric drops carry no clock
    auto [it, inserted] = last.try_emplace(e.agent, e.clock);
    if (!inserted) {
      EXPECT_GE(e.clock, it->second)
          << "clock regressed at agent " << e.agent << " ("
          << to_string(e.kind) << " '" << e.label << "' t=" << e.at << ")";
      it->second = std::max(it->second, e.clock);
    }
  }
}

/// Every completed span has a matching op_started (span stitching).
void expect_spans_stitched(const std::vector<TraceEvent>& events) {
  std::set<std::uint64_t> started;
  for (const auto& e : events) {
    if (e.kind == EventKind::kOpStarted && e.span != 0) {
      started.insert(e.span);
    }
  }
  for (const auto& e : events) {
    if (e.kind != EventKind::kOpCompleted || e.span == 0) continue;
    EXPECT_TRUE(started.count(e.span) != 0)
        << "op_completed span " << e.span << " ('" << e.label
        << "') has no op_started";
  }
}

TEST(TraceCausalityTest, ChaosRunKeepsClocksMonotoneAndSpansStitched) {
  // Mini chaos soak: loss, a partition long enough for eviction (the
  // cut agents reconnect and re-register afterwards), heartbeats on.
  TraceRecorder rec;
  monitor::InvariantMonitor checker;
  rec.attach_sink(&checker);

  airline::TestbedOptions opts;
  opts.trace = &rec;
  opts.n_agents = 10;
  opts.group_size = 5;
  opts.capacity = 1 << 20;
  opts.cm_cfg.mode = core::Mode::kWeak;
  opts.cm_cfg.validity_trigger = "(_age < 500)";
  opts.think_time = sim::msec(200);
  opts.fabric_cfg.loss_probability = 0.10;
  opts.fabric_cfg.seed = 0x5eed;
  opts.cm_cfg.heartbeat_interval = sim::msec(500);
  opts.cm_cfg.heartbeat_miss_limit = 3;
  opts.dir_cfg.liveness_timeout = sim::seconds(2);
  airline::FleccTestbed tb(opts);
  tb.init_all_agents();

  std::size_t loops = 0;
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    const auto flight = tb.assignment().agent_flights[i][0];
    tb.agent(i).run_reservation_loop(6, flight, 1, /*pull_first=*/true,
                                     [&] { ++loops; });
  }
  tb.run_until(tb.simulator().now() + sim::msec(800));
  tb.partition_agents({2, 3});
  tb.run_until(tb.simulator().now() + sim::seconds(4));  // long: eviction
  tb.heal_partition();
  tb.run_until(tb.simulator().now() + sim::seconds(30));
  tb.run();
  EXPECT_EQ(loops, tb.agent_count());

  const auto events = rec.snapshot();
  ASSERT_FALSE(events.empty());
  expect_clocks_monotone(events);
  expect_spans_stitched(events);

  // The partition must actually have evicted someone, or the
  // reconnect path was never exercised.
  const auto evictions =
      std::count_if(events.begin(), events.end(), [](const TraceEvent& e) {
        return e.kind == EventKind::kViewEvicted;
      });
  EXPECT_GE(evictions, 1);

  checker.finalize();
  EXPECT_EQ(checker.violation_count(monitor::Invariant::kCausality), 0u)
      << checker.health_report();
  EXPECT_GT(checker.check_count(monitor::Invariant::kCausality), 100u);
  EXPECT_TRUE(checker.violations().empty()) << checker.health_report();
}

TEST(TraceCausalityTest, MidOpModeSwitchKeepsSpanAndClocks) {
  TraceRecorder rec;
  airline::TestbedOptions opts;
  opts.trace = &rec;
  opts.n_agents = 2;
  opts.group_size = 2;
  opts.capacity = 1 << 20;
  opts.cm_cfg.mode = core::Mode::kWeak;
  airline::FleccTestbed tb(opts);
  tb.init_all_agents();

  // Queue work, then switch modes while the queue is non-empty: the
  // mode_change op rides the same FIFO and must trace like any other.
  const auto flight = tb.assignment().agent_flights[0][0];
  bool switched = false;
  bool looped = false;
  tb.agent(0).run_reservation_loop(3, flight, 1, /*pull_first=*/true,
                                   [&] { looped = true; });
  tb.agent(0).switch_mode(core::Mode::kStrong, [&] { switched = true; });
  tb.run();
  ASSERT_TRUE(switched);
  ASSERT_TRUE(looped);

  const auto events = rec.snapshot();
  expect_clocks_monotone(events);
  expect_spans_stitched(events);

  // The mode_change op is span-framed and the switch event carries the
  // same span: stitching survives the mid-op switch.
  std::uint64_t mode_span = 0;
  for (const auto& e : events) {
    if (e.kind == EventKind::kOpStarted &&
        std::string(e.label) == "mode_change") {
      mode_span = e.span;
    }
  }
  ASSERT_NE(mode_span, 0u);
  bool saw_switch = false;
  bool saw_completed = false;
  for (const auto& e : events) {
    if (e.span != mode_span) continue;
    if (e.kind == EventKind::kModeSwitch) saw_switch = true;
    if (e.kind == EventKind::kOpCompleted) saw_completed = true;
  }
  EXPECT_TRUE(saw_switch);
  EXPECT_TRUE(saw_completed);

  monitor::InvariantMonitor offline;
  std::vector<TraceEvent> sorted = events;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     return x.at < y.at;
                   });
  offline.run(sorted);
  EXPECT_TRUE(offline.violations().empty()) << offline.health_report();
}

TEST(TraceCausalityTest, ThreadFabricStampsAndNeverRegresses) {
  // Concurrent runtime: two agent threads and the directory emit into
  // per-writer buffers; the monitor consumes inline from all three.
  rt::ThreadFabric fabric;
  TraceRecorder rec;
  monitor::InvariantMonitor checker;
  rec.attach_sink(&checker);

  auto db = airline::FlightDatabase::uniform(100, 1, 1 << 20);
  airline::FlightDatabaseAdapter adapter(db);
  const net::Address dir_addr{99, 1};
  core::DirectoryManager::Config dcfg;
  dcfg.trace = rec.make_buffer("dm");
  core::DirectoryManager directory(fabric, dir_addr, adapter, dcfg);

  auto agent_main = [&](net::Address self, TraceBuffer* buf) {
    airline::TravelAgentView ars({100});
    core::CacheManager::Config cfg;
    cfg.view_name = "causality.Agent";
    cfg.properties = ars.properties();
    cfg.mode = core::Mode::kWeak;
    cfg.trace = buf;
    core::CacheManager cm(fabric, self, dir_addr, ars, cfg);
    auto call = [&](auto method) {
      rt::wait_for([&](auto done) {
        fabric.post(self, [&, done = std::move(done)] { method(done); });
      });
    };
    call([&](auto done) { cm.init_image(done); });
    for (int i = 0; i < 5; ++i) {
      call([&](auto done) { cm.pull_image(done); });
      call([&](auto done) { cm.start_use_image(done); });
      call([&](auto done) {
        ars.confirm_tickets(100, 1);
        cm.end_use_image(true);
        done();
      });
    }
    call([&](auto done) { cm.kill_image(done); });
  };

  TraceBuffer* b1 = rec.make_buffer("cm.1");
  TraceBuffer* b2 = rec.make_buffer("cm.2");
  std::thread t1(agent_main, net::Address{1, 1}, b1);
  std::thread t2(agent_main, net::Address{2, 1}, b2);
  t1.join();
  t2.join();
  fabric.drain();

  const auto events = rec.snapshot();
  ASSERT_FALSE(events.empty());
  expect_clocks_monotone(events);
  expect_spans_stitched(events);
  checker.finalize();
  EXPECT_EQ(checker.violation_count(monitor::Invariant::kCausality), 0u)
      << checker.health_report();
  EXPECT_GT(checker.check_count(monitor::Invariant::kCausality), 50u);
}

/// Keeps every message delivered to it, clock stamp included.
struct KeepAll : net::Endpoint {
  std::vector<net::Message> received;
  void on_message(const net::Message& m) override { received.push_back(m); }
};

/// The RegisterReqs a cache manager sends to a directory that never
/// answers: the first transmission and its retransmissions.
std::vector<net::Message> register_reqs_sent(TraceBuffer* trace) {
  sim::Simulator sim;
  std::vector<net::NodeId> hosts;
  net::SimFabric fabric(sim, net::Topology::lan(2, {}, &hosts));
  KeepAll directory;
  const net::Address dir_addr{hosts[0], 1};
  fabric.bind(dir_addr, directory);
  airline::TravelAgentView ars({100});
  core::CacheManager::Config cfg;
  cfg.view_name = "causality.Agent";
  cfg.properties = ars.properties();
  cfg.trace = trace;
  core::CacheManager cm(fabric, net::Address{hosts[1], 1}, dir_addr, ars,
                        cfg);
  sim.run_until(sim::seconds(4));
  return directory.received;
}

/// The RegisterAcks a directory sends for two framed RegisterReqs.
std::vector<net::Message> register_acks_sent(TraceBuffer* trace) {
  sim::Simulator sim;
  std::vector<net::NodeId> hosts;
  net::SimFabric fabric(sim, net::Topology::lan(2, {}, &hosts));
  auto db = airline::FlightDatabase::uniform(100, 1, 1 << 20);
  airline::FlightDatabaseAdapter adapter(db);
  core::DirectoryManager::Config dcfg;
  dcfg.trace = trace;
  const net::Address dir_addr{hosts[0], 1};
  core::DirectoryManager directory(fabric, dir_addr, adapter, dcfg);
  KeepAll cache;
  const net::Address cache_addr{hosts[1], 1};
  fabric.bind(cache_addr, cache);
  core::msg::RegisterReq rr;
  rr.view_name = "causality.Agent";
  rr.properties = airline::TravelAgentView({100}).properties();
  for (const std::uint64_t req : {1u, 2u}) {
    rr.req = req;
    fabric.send(cache_addr, dir_addr, core::msg::kRegisterReq, rr, 64);
    sim.run_until(sim.now() + sim::msec(10));
  }
  return cache.received;
}

/// `sent` all have type `type`, and carry clock 0 when untraced, else
/// non-zero clocks that rise from send to send.
void expect_stamps(const std::vector<net::Message>& sent, const char* type,
                   bool traced) {
  ASSERT_GE(sent.size(), 2u);
  std::uint64_t last = 0;
  for (const net::Message& m : sent) {
    EXPECT_EQ(m.type, type);
    if (traced) {
      EXPECT_GT(m.clock, last);
      last = m.clock;
    } else {
      EXPECT_EQ(m.clock, 0u);
    }
  }
}

TEST(TraceCausalityTest, OnlyTracedEndpointsStampTheirMessages) {
  // Only a traced cache manager or directory registers its Lamport
  // clock with the fabric; an untraced one does no clock work, so what
  // it sends carries stamp 0.
  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    TraceBuffer cm_buf(64);
    TraceBuffer dm_buf(64);
    expect_stamps(register_reqs_sent(traced ? &cm_buf : nullptr),
                  core::msg::kRegisterReq, traced);
    expect_stamps(register_acks_sent(traced ? &dm_buf : nullptr),
                  core::msg::kRegisterAck, traced);
  }
}

}  // namespace
}  // namespace flecc::obs

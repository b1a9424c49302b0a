// Flow control & overload (PROTOCOL.md "Flow control & overload"):
// the circuit-breaker state machine in isolation, the canonical fabric
// wiring (lane classifier + Busy factory), DM-side admission control
// shedding with Busy-and-retry convergence, the CM degradation ladder,
// and terminal retransmission exhaustion (RetryPolicy::deadline).
#include "core/flow_control.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/messages.hpp"
#include "net/message.hpp"
#include "test_support.hpp"

namespace flecc::core {
namespace {

using testing::Harness;

// ---- CircuitBreaker state machine ------------------------------------------

flow::CircuitBreaker make_breaker(std::size_t threshold,
                                  sim::Duration open_timeout) {
  flow::CircuitBreaker::Config cfg;
  cfg.failure_threshold = threshold;
  cfg.open_timeout = open_timeout;
  return flow::CircuitBreaker(cfg);
}

TEST(CircuitBreakerTest, DisabledPassesEverythingThrough) {
  flow::CircuitBreaker b;  // threshold 0 = disabled
  EXPECT_FALSE(b.enabled());
  for (int i = 0; i < 10; ++i) b.on_busy(i, sim::msec(100));
  EXPECT_EQ(b.state(), flow::BreakerState::kClosed);
  EXPECT_TRUE(b.allow(0));
  EXPECT_TRUE(b.allow(0));  // no single-probe limit when disabled
}

TEST(CircuitBreakerTest, TripsAtThresholdNotBefore) {
  auto b = make_breaker(3, sim::msec(500));
  b.on_busy(0, 0);
  b.on_busy(1, 0);
  EXPECT_EQ(b.state(), flow::BreakerState::kClosed);
  EXPECT_TRUE(b.allow(2));
  b.on_busy(2, 0);  // third consecutive failure
  EXPECT_EQ(b.state(), flow::BreakerState::kOpen);
  EXPECT_FALSE(b.allow(3));
}

TEST(CircuitBreakerTest, RetryAfterExtendsTheOpenWindow) {
  auto b = make_breaker(1, sim::msec(100));
  b.on_busy(0, sim::msec(400));  // longer than open_timeout: honored
  EXPECT_EQ(b.state(), flow::BreakerState::kOpen);
  EXPECT_FALSE(b.allow(sim::msec(100)));
  EXPECT_FALSE(b.allow(sim::msec(399)));
  EXPECT_EQ(b.retry_in(sim::msec(100)), sim::msec(300));
  EXPECT_TRUE(b.allow(sim::msec(400)));  // window over: half-open probe
  EXPECT_EQ(b.state(), flow::BreakerState::kHalfOpen);
}

TEST(CircuitBreakerTest, HalfOpenAdmitsExactlyOneProbe) {
  auto b = make_breaker(1, sim::msec(100));
  b.on_busy(0, 0);
  EXPECT_TRUE(b.allow(sim::msec(100)));   // the probe
  EXPECT_FALSE(b.allow(sim::msec(100)));  // everyone else waits
  EXPECT_FALSE(b.allow(sim::msec(200)));
}

TEST(CircuitBreakerTest, ProbeFailureReopensProbeSuccessCloses) {
  auto b = make_breaker(1, sim::msec(100));
  b.on_busy(0, 0);
  ASSERT_TRUE(b.allow(sim::msec(100)));
  b.on_busy(sim::msec(100), sim::msec(50));  // probe answered Busy
  EXPECT_EQ(b.state(), flow::BreakerState::kOpen);
  ASSERT_TRUE(b.allow(sim::msec(200)));  // next probe
  b.on_success();
  EXPECT_EQ(b.state(), flow::BreakerState::kClosed);
  EXPECT_EQ(b.consecutive_failures(), 0u);
  EXPECT_TRUE(b.allow(sim::msec(200)));
}

TEST(CircuitBreakerTest, TransitionHookSeesEveryEdge) {
  auto b = make_breaker(1, sim::msec(100));
  std::vector<std::pair<flow::BreakerState, flow::BreakerState>> edges;
  b.set_transition_hook([&](flow::BreakerState from, flow::BreakerState to) {
    edges.emplace_back(from, to);
  });
  b.on_busy(0, 0);                     // closed -> open
  ASSERT_TRUE(b.allow(sim::msec(100)));  // open -> half_open
  b.on_success();                      // half_open -> closed
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0].second, flow::BreakerState::kOpen);
  EXPECT_EQ(edges[1].second, flow::BreakerState::kHalfOpen);
  EXPECT_EQ(edges[2].second, flow::BreakerState::kClosed);
}

// ---- lane classifier & Busy factory ----------------------------------------

TEST(FabricFlowTest, OnlyBulkRequestsAreSheddable) {
  for (const char* bulk : {msg::kInitReq, msg::kPullReq, msg::kPushUpdate,
                           msg::kAcquireReq}) {
    EXPECT_FALSE(flow::is_control_lane(bulk)) << bulk;
  }
  for (const char* control :
       {msg::kInitReply, msg::kPullReply, msg::kPushAck, msg::kAcquireGrant,
        msg::kInvalidateReq, msg::kInvalidateAck, msg::kFetchReq,
        msg::kFetchReply, msg::kHeartbeat, msg::kHeartbeatAck,
        msg::kRegisterReq, msg::kModeChangeReq, msg::kBusy, msg::kOpNack,
        "net.batch.frame"}) {
    EXPECT_TRUE(flow::is_control_lane(control)) << control;
  }
}

TEST(FabricFlowTest, WatermarksDeriveFromCapacity) {
  net::FlowControl bounds;
  bounds.queue_capacity = 16;
  const net::FlowControl fc = flow::make_fabric_flow(bounds);
  EXPECT_TRUE(fc.enabled());
  EXPECT_EQ(fc.queue_capacity, 16u);
  EXPECT_EQ(fc.low(), 8u);
  EXPECT_FALSE(fc.control(msg::kAcquireReq));
  EXPECT_TRUE(fc.control(msg::kAcquireGrant));
}

TEST(FabricFlowTest, BusyFactoryRecoversTheRequestIdentity) {
  net::FlowControl bounds;
  bounds.queue_capacity = 4;
  const net::FlowControl fc = flow::make_fabric_flow(bounds);
  net::Message shed;
  shed.type = msg::kAcquireReq;
  shed.payload = msg::AcquireReq{/*view=*/7, AccessIntent::kReadWrite,
                                 /*req=*/42, /*gen=*/3};
  const net::BusyReply reply = fc.make_busy(shed, sim::msec(75));
  ASSERT_EQ(reply.type, std::string(msg::kBusy));
  net::Message carrier;
  carrier.payload = reply.payload;
  const auto& busy = net::payload_as<msg::Busy>(carrier);
  EXPECT_EQ(busy.view, 7u);
  EXPECT_EQ(busy.req, 42u);
  EXPECT_EQ(busy.retry_after, sim::msec(75));
  EXPECT_EQ(busy.gen, 0u);  // fabric-synthesized: never fenced
}

TEST(FabricFlowTest, UnanswerableTypesShedSilently) {
  net::FlowControl bounds;
  bounds.queue_capacity = 4;
  const net::FlowControl fc = flow::make_fabric_flow(bounds);
  net::Message shed;
  shed.type = "t.unknown";
  shed.payload = 0;
  EXPECT_TRUE(fc.make_busy(shed, sim::msec(75)).type.empty());
}

// ---- DM admission control ---------------------------------------------------

TEST(AdmissionControlTest, FullAcquireQueueShedsWithBusyAndRetryConverges) {
  DirectoryManager::Config dir_cfg;
  dir_cfg.max_acquire_queue = 1;
  dir_cfg.busy_retry_after = sim::msec(50);
  Harness h(4, 100, dir_cfg);

  // Three conflicting strong-mode members race for exclusivity: one
  // acquire in flight + one queued + the third answered Busy.
  CacheManager::Config cm_cfg;
  cm_cfg.mode = Mode::kStrong;
  std::vector<Harness::Member> members;
  for (int i = 0; i < 3; ++i) members.push_back(h.make_member(0, 9, cm_cfg));
  h.run();

  int completed = 0;
  for (auto& m : members) {
    m.cm->init_image();
    m.cm->start_use_image([&completed, cm = m.cm.get()] {
      ++completed;
      cm->end_use_image(false);
    });
  }
  h.run();

  EXPECT_EQ(completed, 3);
  EXPECT_GE(h.directory_->stats().get("shed.acquire"), 1u);
  EXPECT_GE(h.directory_->stats().get("flow.busy.sent"), 1u);
  std::uint64_t busy_received = 0;
  for (auto& m : members) {
    busy_received += m.cm->stats().get("flow.busy.received");
  }
  EXPECT_GE(busy_received, 1u);
}

TEST(AdmissionControlTest, FetchRoundCapShedsAPullAndServesItsRetry) {
  DirectoryManager::Config dir_cfg;
  dir_cfg.max_fetch_rounds = 1;
  dir_cfg.busy_retry_after = sim::msec(50);
  Harness h(3, 100, dir_cfg);
  const auto dm = [&h](const char* counter) {
    return h.directory_->stats().get(counter);
  };
  const auto settle = [&h] { h.run_until(h.sim_.now() + sim::msec(5)); };

  // Two requesters whose validity trigger always fails, so each pull
  // needs a fetch round, and a third view both conflict with.
  CacheManager::Config req_cfg;
  req_cfg.validity_trigger = "false";
  auto a = h.make_member(0, 9, req_cfg);
  auto b = h.make_member(0, 9, req_cfg);
  auto target = h.make_member(0, 9);
  for (auto* m : {&a, &b, &target}) m->cm->init_image();
  h.run();

  // Inside its use section the target defers its FetchReq, so A's round
  // stays open and takes the only slot.
  target.cm->start_use_image();
  settle();
  bool a_done = false;
  bool b_done = false;
  a.cm->pull_image([&a_done] { a_done = true; });
  settle();
  ASSERT_EQ(dm("op.pull.fetch_round"), 1u);
  b.cm->pull_image([&b_done] { b_done = true; });
  settle();
  EXPECT_EQ(dm("shed.pull"), 1u);
  EXPECT_EQ(dm("shed.pull.global"), 1u);
  EXPECT_EQ(b.cm->stats().get("flow.busy.received"), 1u);
  EXPECT_FALSE(a_done);
  EXPECT_FALSE(b_done);

  // The first round closes; B's retry under the same request id then
  // opens the next one and is served, not dropped as a duplicate of the
  // round that never opened.
  target.cm->end_use_image(/*modified=*/false);
  settle();
  EXPECT_TRUE(a_done);
  EXPECT_FALSE(b_done);
  h.run_until(h.sim_.now() + dir_cfg.busy_retry_after * 2);
  EXPECT_TRUE(b_done);
  EXPECT_EQ(dm("op.pull.fetch_round"), 2u);
  EXPECT_EQ(dm("shed.pull"), 1u);
  EXPECT_EQ(dm("msg.duplicate.dropped"), 0u);
}

// ---- CM degradation ladder --------------------------------------------------

TEST(DegradationTest, BusyStormDegradesStrongToWeakAndRestores) {
  DirectoryManager::Config dir_cfg;
  dir_cfg.max_acquire_queue = 1;
  dir_cfg.busy_retry_after = sim::msec(50);
  Harness h(5, 100, dir_cfg);

  CacheManager::Config cm_cfg;
  cm_cfg.mode = Mode::kStrong;
  cm_cfg.breaker_threshold = 1;  // a single Busy trips the ladder
  cm_cfg.breaker_open_timeout = sim::msec(200);
  cm_cfg.degrade_on_overload = true;
  cm_cfg.write_buffer_ops = 4;
  std::vector<Harness::Member> members;
  for (int i = 0; i < 4; ++i) members.push_back(h.make_member(0, 9, cm_cfg));
  for (auto& m : members) m.cm->init_image();
  h.run();

  // Each member runs a chain of 8 use/modify ops. Degraded members
  // buffer writes; the buffer flush (every 4 ops) is the bulk probe
  // that eventually closes the breaker again and restores STRONG.
  constexpr int kOpsEach = 8;
  int completed = 0;
  std::function<void(std::size_t, int)> run_ops =
      [&members, &run_ops, &completed](std::size_t i, int remaining) {
        CacheManager* cm = members[i].cm.get();
        cm->start_use_image([&members, &run_ops, &completed, i, remaining] {
          members[i].view->increment(static_cast<std::int64_t>(i));
          members[i].cm->end_use_image(true);
          ++completed;
          if (remaining > 1) run_ops(i, remaining - 1);
        });
      };
  for (std::size_t i = 0; i < members.size(); ++i) run_ops(i, kOpsEach);
  h.run();

  EXPECT_EQ(completed, kOpsEach * static_cast<int>(members.size()));
  std::uint64_t degraded = 0, restored = 0;
  for (auto& m : members) {
    degraded += m.cm->stats().get("breaker.degrade");
    restored += m.cm->stats().get("breaker.restore");
    // Transient: every degraded manager climbed back to STRONG.
    EXPECT_FALSE(m.cm->degraded());
    EXPECT_EQ(m.cm->mode(), Mode::kStrong);
    EXPECT_EQ(m.cm->breaker_state(), flow::BreakerState::kClosed);
  }
  EXPECT_GE(degraded, 1u);
  EXPECT_EQ(degraded, restored);
}

// ---- terminal retransmission exhaustion ------------------------------------

TEST(RetryExhaustionTest, DeadlineGivesUpTerminallyInsteadOfRetryingForever) {
  Harness h(2);
  CacheManager::Config cfg;
  cfg.retry.base_timeout = sim::msec(20);
  cfg.retry.max_timeout = sim::msec(40);
  cfg.retry.max_attempts = 100;  // attempts alone would retry ~forever
  cfg.retry.deadline = sim::msec(500);
  std::string gave_up;
  cfg.on_give_up = [&gave_up](const char* what) { gave_up = what; };
  auto m = h.make_member(0, 9, cfg);
  bool init_done = false;
  m.cm->init_image([&init_done] { init_done = true; });
  h.run();
  ASSERT_TRUE(init_done);

  // The directory vanishes; the next op retries until the deadline,
  // then gives up terminally — its completion still fires.
  h.fabric_->partition({m.cm->address()}, {h.dir_addr_});
  bool pull_done = false;
  m.cm->pull_image([&pull_done] { pull_done = true; });
  h.run_until(sim::seconds(5));

  EXPECT_TRUE(pull_done);
  EXPECT_EQ(gave_up, "pull");
  EXPECT_GE(m.cm->stats().get("reliability.exhausted"), 1u);
  EXPECT_FALSE(m.cm->op_in_flight());
}

TEST(RetryExhaustionTest, UnreachableDirectoryFailsRegistrationAtDeadline) {
  Harness h(2);
  h.directory_.reset();  // nobody listening: register_req drops unbound
  CacheManager::Config cfg;
  cfg.retry.base_timeout = sim::msec(20);
  cfg.retry.max_timeout = sim::msec(40);
  cfg.retry.max_attempts = 100;
  cfg.retry.deadline = sim::msec(500);
  std::string gave_up;
  cfg.on_give_up = [&gave_up](const char* what) { gave_up = what; };
  auto m = h.make_member(0, 9, cfg);
  bool init_done = false;
  m.cm->init_image([&init_done] { init_done = true; });
  h.run_until(sim::seconds(5));

  EXPECT_TRUE(init_done);  // flushed, not wedged
  EXPECT_TRUE(m.cm->rejected());
  EXPECT_FALSE(m.cm->registered());
  EXPECT_EQ(m.cm->reject_reason(), "registration deadline exhausted");
  EXPECT_EQ(gave_up, "register");
  EXPECT_GE(m.cm->stats().get("reliability.exhausted"), 1u);
}

}  // namespace
}  // namespace flecc::core

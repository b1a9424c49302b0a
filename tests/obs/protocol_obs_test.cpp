// End-to-end observability: run real protocol deployments through the
// airline testbed with a TraceRecorder attached and assert the trace
// tells the true story — spans pair up, lossy runs show retransmits
// and dedup hits, evictions show up on crash, and recording never
// changes what the protocol sends.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "airline/testbed.hpp"
#include "obs/analysis.hpp"
#include "obs/trace.hpp"

namespace flecc {
namespace {

using airline::FleccTestbed;
using airline::TestbedOptions;

TestbedOptions small_opts() {
  TestbedOptions opts;
  opts.n_agents = 6;
  opts.group_size = 3;
  opts.flights_per_group = 2;
  opts.cm_cfg.validity_trigger = "(_age < 500)";
  return opts;
}

/// Drive a few reservation loops to completion.
void run_workload(FleccTestbed& tb, std::size_t ops = 3) {
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    const auto flight = tb.assignment().agent_flights[i][0];
    tb.agent(i).run_reservation_loop(ops, flight, 1, /*pull_first=*/true);
  }
  tb.run();
}

TEST(ProtocolObsTest, CleanRunProducesPairedSpans) {
  if (!obs::kTraceEnabled) GTEST_SKIP() << "built with FLECC_TRACE=OFF";
  obs::TraceRecorder rec;
  TestbedOptions opts = small_opts();
  opts.trace = &rec;
  FleccTestbed tb(opts);
  tb.init_all_agents();
  run_workload(tb);

  const auto events = rec.snapshot();
  ASSERT_FALSE(events.empty());
  const auto s = obs::summarize(events);
  EXPECT_EQ(s.ops_started, s.ops_completed);
  EXPECT_EQ(s.ops_unfinished, 0u);
  EXPECT_EQ(s.retransmits, 0u);  // lossless fabric
  EXPECT_EQ(s.drops, 0u);
  // 6 agents * (1 init + 3 pulls) at minimum.
  EXPECT_GE(s.ops_completed, 24u);
  ASSERT_TRUE(s.op_latency_us.count("pull"));
  // 6 agents x 3 explicit pulls (plus any trigger-driven ones).
  EXPECT_GE(s.op_latency_us.at("pull").count(), 18u);
}

TEST(ProtocolObsTest, EveryOpSpanCrossesCmAndDm) {
  if (!obs::kTraceEnabled) GTEST_SKIP() << "built with FLECC_TRACE=OFF";
  obs::TraceRecorder rec;
  TestbedOptions opts = small_opts();
  opts.trace = &rec;
  FleccTestbed tb(opts);
  tb.init_all_agents();
  run_workload(tb, 1);

  const auto events = rec.snapshot();
  // For each span with an op_started, the directory must have logged at
  // least one msg_received under the same span (request id correlation).
  std::map<std::uint64_t, bool> dm_saw;
  for (const auto& e : events) {
    if (e.role == obs::Role::kDirectory && e.span != 0 &&
        e.kind == obs::EventKind::kMsgReceived) {
      dm_saw[e.span] = true;
    }
  }
  std::size_t started = 0;
  for (const auto& e : events) {
    if (e.kind != obs::EventKind::kOpStarted) continue;
    ++started;
    EXPECT_TRUE(dm_saw.count(e.span))
        << "span " << e.span << " (" << e.label
        << ") never reached the directory";
  }
  EXPECT_GE(started, 6u);
}

TEST(ProtocolObsTest, LossyRunShowsRetransmitsDropsAndDedup) {
  if (!obs::kTraceEnabled) GTEST_SKIP() << "built with FLECC_TRACE=OFF";
  obs::TraceRecorder rec;
  TestbedOptions opts = small_opts();
  opts.trace = &rec;
  opts.fabric_cfg.loss_probability = 0.25;
  opts.fabric_cfg.seed = 7;
  FleccTestbed tb(opts);
  tb.init_all_agents();
  run_workload(tb);

  const auto s = obs::summarize(rec.snapshot());
  EXPECT_GT(s.drops, 0u);
  EXPECT_GT(s.drops_by_reason.at("loss"), 0u);
  EXPECT_GT(s.retransmits, 0u);
  // Retransmitted requests whose originals got through produce replays.
  EXPECT_GT(s.dedup_hits, 0u);
  // The protocol still converged: every started op finished.
  EXPECT_EQ(s.ops_started, s.ops_completed);
}

TEST(ProtocolObsTest, CrashedViewGetsEvicted) {
  if (!obs::kTraceEnabled) GTEST_SKIP() << "built with FLECC_TRACE=OFF";
  obs::TraceRecorder rec;
  TestbedOptions opts = small_opts();
  opts.trace = &rec;
  opts.cm_cfg.heartbeat_interval = sim::msec(100);
  opts.cm_cfg.heartbeat_miss_limit = 2;
  opts.dir_cfg.liveness_timeout = sim::msec(400);
  FleccTestbed tb(opts);
  tb.init_all_agents();
  tb.crash_agent(0);
  tb.run_until(tb.simulator().now() + sim::seconds(5));
  tb.run();

  const auto s = obs::summarize(rec.snapshot());
  EXPECT_GE(s.evictions, 1u);
}

TEST(ProtocolObsTest, RecordingDoesNotPerturbTheProtocol) {
  auto count_messages = [](obs::TraceRecorder* rec) {
    TestbedOptions opts = small_opts();
    opts.trace = rec;
    opts.fabric_cfg.loss_probability = 0.10;
    opts.fabric_cfg.seed = 3;
    FleccTestbed tb(opts);
    tb.init_all_agents();
    run_workload(tb);
    return tb.fabric().sent_count();
  };
  obs::TraceRecorder rec;
  EXPECT_EQ(count_messages(nullptr), count_messages(&rec));
}

TEST(ProtocolObsTest, ModeSwitchIsTraced) {
  if (!obs::kTraceEnabled) GTEST_SKIP() << "built with FLECC_TRACE=OFF";
  obs::TraceRecorder rec;
  TestbedOptions opts = small_opts();
  opts.trace = &rec;
  FleccTestbed tb(opts);
  tb.init_all_agents();
  tb.agent(0).switch_mode(core::Mode::kStrong);
  tb.run();

  const auto s = obs::summarize(rec.snapshot());
  EXPECT_GE(s.mode_switches, 1u);
}

}  // namespace
}  // namespace flecc

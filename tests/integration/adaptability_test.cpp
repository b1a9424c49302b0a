// End-to-end checks of the behaviors the paper's evaluation highlights:
// the adaptability trade-off (Figure 5) and the trigger flexibility
// effect (Figure 6), asserted qualitatively so the benches can report
// the quantitative series.
#include <gtest/gtest.h>

#include <algorithm>

#include "airline/testbed.hpp"

namespace flecc::airline {
namespace {

TEST(AdaptabilityTest, StrongModeCostsLatencyButBuysFreshData) {
  TestbedOptions opts;
  opts.n_agents = 5;
  opts.group_size = 5;
  opts.cm_cfg.mode = core::Mode::kWeak;
  opts.capacity = 100000;
  FleccTestbed tb(opts);
  tb.init_all_agents();
  const FlightNumber flight = tb.assignment().agent_flights[0][0];

  // WEAK phase: no pulls — cheap ops, growing staleness. Each agent
  // pushes once at the end so the directory sees the updates.
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    tb.agent(i).run_reservation_loop(5, flight, 1, /*pull_first=*/false);
  }
  tb.run();
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    tb.agent(i).push_now();
  }
  tb.run();
  sim::RunningStat weak_latency;
  std::uint64_t weak_quality = 0;
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    for (const double l : tb.agent(i).op_latencies().samples()) {
      weak_latency.add(l);
    }
    weak_quality += tb.directory().quality(tb.agent(i).cache().id());
  }
  // The views never re-synchronized, so the other agents' pushes are
  // unseen remote updates — but the weak ops were (near-)local.
  EXPECT_GT(weak_quality, 0u);

  // STRONG phase: sample quality at the moment each method executes
  // (Figure 5 reports "the quality of the data used during the
  // execution").
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    tb.agent(i).switch_mode(core::Mode::kStrong);
  }
  tb.run();
  std::uint64_t strong_quality_max = 0;
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    TravelAgent& agent = tb.agent(i);
    agent.set_op_probe([&tb, &agent, &strong_quality_max](std::size_t,
                                                          sim::Time) {
      strong_quality_max =
          std::max(strong_quality_max,
                   tb.directory().quality(agent.cache().id()));
    });
    agent.run_reservation_loop(5, flight, 1, false);
  }
  tb.run();
  sim::RunningStat strong_latency;
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    const auto& samples = tb.agent(i).op_latencies().samples();
    for (std::size_t k = 5; k < samples.size(); ++k) {
      strong_latency.add(samples[k]);
    }
  }
  // In strong mode every use section starts from fresh merged state.
  EXPECT_EQ(strong_quality_max, 0u);
  // The paper's trade-off: strong execution is slower than weak.
  EXPECT_GT(strong_latency.mean(), weak_latency.mean());
}

TEST(AdaptabilityTest, PullTriggerImprovesQualityAtMessageCost) {
  auto run_scenario = [](bool with_trigger) {
    TestbedOptions opts;
    opts.n_agents = 2;
    opts.group_size = 2;
    opts.capacity = 100000;
    opts.cm_cfg.trigger_poll = sim::msec(50);
    if (with_trigger) opts.cm_cfg.pull_trigger = "(t > 200)";
    FleccTestbed tb(opts);
    tb.init_all_agents();
    const FlightNumber flight = tb.assignment().agent_flights[0][0];

    // Agent 0 produces updates periodically; agent 1 idles (except its
    // trigger, if any).
    for (int k = 0; k < 10; ++k) {
      tb.simulator().schedule_at(
          sim::msec(100 * (k + 1)), [&tb, flight] {
            tb.agent(0).view().confirm_tickets(flight, 1);
            tb.agent(0).push_now();
          });
    }
    tb.run_until(sim::msec(1500));
    struct Result {
      std::uint64_t quality;
      std::uint64_t messages;
    };
    return Result{tb.directory().quality(tb.agent(1).cache().id()),
                  tb.fabric().sent_count()};
  };

  const auto without = run_scenario(false);
  const auto with = run_scenario(true);
  // Figure 6's trade-off: triggers keep the data fresher (lower unseen
  // count at the end) but cost additional messages (182 vs 116 in the
  // paper's run).
  EXPECT_LT(with.quality, without.quality);
  EXPECT_GT(with.messages, without.messages);
}

TEST(AdaptabilityTest, ValidityTriggerAdaptsFetchBehaviorAtRuntime) {
  // An agent whose validity trigger tolerates staleness below a
  // threshold: fetch rounds happen only once enough unseen updates pile
  // up — consistency requirements enforced by the system, not the app.
  TestbedOptions opts;
  opts.n_agents = 2;
  opts.group_size = 2;
  opts.capacity = 100000;
  opts.cm_cfg.validity_trigger = "(_unseen < 3)";
  FleccTestbed tb(opts);
  tb.init_all_agents();
  const FlightNumber flight = tb.assignment().agent_flights[0][0];

  // One remote update → pull stays cheap (no fetch round).
  tb.agent(0).view().confirm_tickets(flight, 1);
  tb.agent(0).push_now();
  tb.run();
  tb.agent(1).pull_now();
  tb.run();
  EXPECT_EQ(tb.directory().stats().get("op.pull.fetch_round"), 0u);

  // Four remote updates → threshold crossed → demand fetch.
  for (int k = 0; k < 4; ++k) {
    tb.agent(0).view().confirm_tickets(flight, 1);
    tb.agent(0).push_now();
    tb.run();
  }
  tb.agent(1).pull_now();
  tb.run();
  EXPECT_EQ(tb.directory().stats().get("op.pull.fetch_round"), 1u);
}

}  // namespace
}  // namespace flecc::airline

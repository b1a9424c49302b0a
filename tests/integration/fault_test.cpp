// Failure-injection tests: crashed cache managers, partitions, and
// straggler handling across the protocol stack.
#include <gtest/gtest.h>

#include "airline/testbed.hpp"
#include "core/directory_manager.hpp"

namespace flecc::airline {
namespace {

TEST(FaultTest, CrashedAgentDoesNotWedgeDemandFetch) {
  TestbedOptions opts;
  opts.n_agents = 3;
  opts.group_size = 3;
  opts.cm_cfg.validity_trigger = "false";
  opts.dir_cfg.fetch_timeout = sim::msec(100);
  FleccTestbed tb(opts);
  tb.init_all_agents();

  // Agent 0 crashes silently (endpoint vanishes, no kill handshake).
  tb.fabric().unbind(tb.agent(0).cache().address());

  bool done = false;
  tb.agent(1).reserve_once(tb.assignment().agent_flights[1][0], 1, true,
                           [&] { done = true; });
  tb.run();
  EXPECT_TRUE(done);
  EXPECT_GE(tb.directory().stats().get("op.fetch.timeout"), 1u);
}

TEST(FaultTest, CrashedOwnerDoesNotWedgeStrongAcquire) {
  TestbedOptions opts;
  opts.n_agents = 2;
  opts.group_size = 2;
  opts.cm_cfg.mode = core::Mode::kStrong;
  opts.dir_cfg.fetch_timeout = sim::msec(100);
  FleccTestbed tb(opts);

  bool a_done = false;
  tb.agent(0).reserve_once(tb.assignment().agent_flights[0][0], 1, false,
                           [&] { a_done = true; });
  tb.run();
  ASSERT_TRUE(a_done);

  // The exclusive owner crashes; the next acquire must proceed after the
  // invalidation timeout.
  tb.fabric().unbind(tb.agent(0).cache().address());
  bool b_done = false;
  tb.agent(1).reserve_once(tb.assignment().agent_flights[1][0], 1, false,
                           [&] { b_done = true; });
  tb.run();
  EXPECT_TRUE(b_done);
  EXPECT_GE(tb.directory().stats().get("op.acquire.timeout"), 1u);
}

TEST(FaultTest, GracefulKillDuringFetchRoundSettlesIt) {
  TestbedOptions opts;
  opts.n_agents = 3;
  opts.group_size = 3;
  opts.cm_cfg.validity_trigger = "false";
  // Long timeout: if the kill did not settle the round, the test's pull
  // would only complete after 10 simulated seconds.
  opts.dir_cfg.fetch_timeout = sim::seconds(10);
  FleccTestbed tb(opts);
  tb.init_all_agents();

  bool pulled = false;
  // Agent 1 enters its use section so its fetch reply is deferred; agent
  // 2's pull therefore waits on agent 1... who then deregisters. The
  // kill must settle the pending fetch round without the 10 s timeout.
  tb.agent(1).cache().start_use_image();
  tb.run();
  tb.agent(2).pull_now([&] { pulled = true; });
  tb.run_until(tb.simulator().now() + sim::seconds(1));
  EXPECT_FALSE(pulled);  // round blocked on agent 1
  tb.agent(1).shutdown();
  tb.run();
  EXPECT_TRUE(pulled);
  EXPECT_LT(tb.simulator().now(), sim::seconds(10));
}

TEST(FaultTest, PartitionedPullRetransmitsAndCompletesAfterHeal) {
  TestbedOptions opts;
  opts.n_agents = 2;
  opts.group_size = 2;
  FleccTestbed tb(opts);
  tb.init_all_agents();

  // Cut agent 0 off from the directory and agent 1.
  tb.partition_agents({0});
  bool done = false;
  tb.agent(0).pull_now([&] { done = true; });
  tb.run_until(tb.simulator().now() + sim::seconds(1));
  EXPECT_FALSE(done);  // every attempt dropped at the partition
  EXPECT_GE(tb.fabric().counters().get("msg.dropped.partition"), 1u);

  // Heal; the reliability layer retransmits the SAME pull (same request
  // id) until it gets through — no application-level reissue needed.
  tb.heal_partition();
  tb.run();
  EXPECT_TRUE(done);
  EXPECT_GE(tb.agent(0).cache().stats().get("op.retry"), 1u);
  EXPECT_TRUE(tb.agent(0).cache().registered());
  EXPECT_EQ(tb.agent(0).cache().queued_ops(), 0u);
  EXPECT_FALSE(tb.agent(0).cache().op_in_flight());
}

TEST(FaultTest, LinkOutageRetransmitsAndCompletesAfterRepair) {
  TestbedOptions opts;
  opts.n_agents = 2;
  opts.group_size = 2;
  FleccTestbed tb(opts);
  tb.init_all_agents();

  // Cut agent 0's LAN uplink (host link 0 in the star topology).
  tb.fabric().topology().set_link_up(0, false);
  bool done = false;
  tb.agent(0).pull_now([&] { done = true; });
  tb.run_until(tb.simulator().now() + sim::seconds(1));
  EXPECT_FALSE(done);  // request was dropped: no route
  EXPECT_GE(tb.fabric().counters().get("msg.dropped.no_route"), 1u);

  tb.fabric().topology().set_link_up(0, true);
  tb.run();
  EXPECT_TRUE(done);
  EXPECT_GE(tb.agent(0).cache().stats().get("op.retry"), 1u);
}

TEST(FaultTest, DirectoryRestartRecoversViaReconnect) {
  // The §4.1 fail-safe scenario: the original component (and its
  // directory manager) crashes and restarts empty; cache managers
  // reconnect, re-register, and surrender their pending updates.
  sim::Simulator simulator;
  std::vector<net::NodeId> hosts;
  auto topo = net::Topology::lan(3, net::LinkSpec{}, &hosts);
  net::SimFabric fabric(simulator, std::move(topo));

  auto db = FlightDatabase::uniform(100, 2, 1000);
  FlightDatabaseAdapter adapter(db);
  const net::Address dir_addr{hosts[2], 1};
  auto directory =
      std::make_unique<core::DirectoryManager>(fabric, dir_addr, adapter);

  TravelAgent::Config cfg;
  cfg.flights = {100};
  TravelAgent agent1(fabric, net::Address{hosts[0], 1}, dir_addr, cfg);
  TravelAgent agent2(fabric, net::Address{hosts[1], 1}, dir_addr, cfg);
  agent1.init();
  agent2.init();
  simulator.run();

  // Agent 1 does local work that has not reached the database yet.
  agent1.view().confirm_tickets(100, 7);
  agent1.cache().start_use_image();
  agent1.cache().end_use_image(true);

  // The directory crashes and restarts with a fresh registry. The
  // database object survives (it is the durable component state).
  directory.reset();
  directory =
      std::make_unique<core::DirectoryManager>(fabric, dir_addr, adapter);

  // A pull against the new incarnation would be ignored (unknown view):
  // the agents reconnect instead.
  bool r1 = false, r2 = false;
  agent1.cache().reconnect([&] { r1 = true; });
  agent2.cache().reconnect([&] { r2 = true; });
  simulator.run();
  EXPECT_TRUE(r1);
  EXPECT_TRUE(r2);
  EXPECT_TRUE(agent1.cache().registered());
  EXPECT_TRUE(agent2.cache().registered());
  EXPECT_EQ(directory->registered_count(), 2u);
  // The pending 7 seats survived the crash via the reconnect re-push.
  EXPECT_EQ(db.find(100)->reserved, 7);

  // Normal operation resumes end to end.
  agent2.run_reservation_loop(3, 100, 1, true);
  simulator.run();
  agent1.shutdown();
  agent2.shutdown();
  simulator.run();
  EXPECT_EQ(db.find(100)->reserved, 10);
}

TEST(FaultTest, ReconnectWithCleanStateJustReinitializes) {
  TestbedOptions opts;
  opts.n_agents = 1;
  opts.group_size = 1;
  FleccTestbed tb(opts);
  tb.init_all_agents();
  const auto before = tb.directory().version();
  bool done = false;
  tb.agent(0).cache().reconnect([&] { done = true; });
  tb.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(tb.agent(0).cache().valid());
  // No dirty state: no push, so the version is unchanged.
  EXPECT_EQ(tb.directory().version(), before);
  // The re-registration superseded the ghost record.
  EXPECT_EQ(tb.directory().registered_count(), 1u);
  EXPECT_EQ(tb.directory().stats().get("op.register.superseded"), 1u);
}

// ---- lossy-network airline runs ------------------------------------------
//
// With the reliability layer every operation must complete despite
// seeded message loss, and the database must end up exactly equal to
// what the agents confirmed (retransmission + idempotent replay: no
// lost op, no double-merge).

struct LossCase {
  double loss;
  core::Mode mode;
};

// gtest would otherwise print the raw bytes of the case, padding
// included, so the test names would change from build to build.
void PrintTo(const LossCase& c, std::ostream* os) {
  *os << (c.mode == core::Mode::kWeak ? "weak" : "strong") << ", "
      << static_cast<int>(c.loss * 100) << "% loss";
}

class LossyAirlineTest : public ::testing::TestWithParam<LossCase> {};

TEST_P(LossyAirlineTest, AllOpsCompleteAndDatabaseIsExact) {
  const LossCase c = GetParam();
  TestbedOptions opts;
  opts.n_agents = 4;
  opts.group_size = 4;
  opts.capacity = 100000;
  opts.cm_cfg.mode = c.mode;
  opts.fabric_cfg.loss_probability = c.loss;
  opts.fabric_cfg.seed = 0xf1ecc;
  FleccTestbed tb(opts);
  tb.init_all_agents();

  constexpr std::size_t kOps = 10;
  const FlightNumber flight = tb.assignment().agent_flights[0][0];
  std::size_t loops_done = 0;
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    tb.agent(i).run_reservation_loop(kOps, flight, 1, /*pull_first=*/true,
                                     [&] { ++loops_done; });
  }
  tb.run();
  EXPECT_EQ(loops_done, tb.agent_count());

  std::int64_t confirmed = 0;
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    EXPECT_EQ(tb.agent(i).ops_completed(), kOps) << "agent " << i;
    EXPECT_EQ(tb.agent(i).cache().queued_ops(), 0u) << "agent " << i;
    EXPECT_FALSE(tb.agent(i).cache().op_in_flight()) << "agent " << i;
    confirmed += tb.agent(i).view().confirmed_total();
  }
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    tb.agent(i).shutdown();
  }
  tb.run();
  EXPECT_EQ(confirmed,
            static_cast<std::int64_t>(tb.agent_count() * kOps));
  EXPECT_EQ(tb.database().total_reserved(), confirmed);
  // Only assert loss actually struck when enough messages flowed for
  // that to be near-certain (strong mode retains exclusivity across
  // back-to-back ops, so small runs send very few messages).
  const auto attempts = tb.fabric().sent_count() +
                        tb.fabric().counters().get("msg.dropped.loss");
  if (c.loss * static_cast<double>(attempts) >= 5.0) {
    EXPECT_GE(tb.fabric().counters().get("msg.dropped.loss"), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Loss, LossyAirlineTest,
    ::testing::Values(LossCase{0.05, core::Mode::kWeak},
                      LossCase{0.20, core::Mode::kWeak},
                      LossCase{0.05, core::Mode::kStrong},
                      LossCase{0.20, core::Mode::kStrong}),
    [](const ::testing::TestParamInfo<LossCase>& info) {
      return std::string(info.param.mode == core::Mode::kWeak ? "Weak"
                                                              : "Strong") +
             "Loss" + std::to_string(static_cast<int>(info.param.loss * 100));
    });

}  // namespace
}  // namespace flecc::airline

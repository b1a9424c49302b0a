#include "airline/testbed.hpp"

#include <gtest/gtest.h>

#include "baselines/flecc_client.hpp"

namespace flecc::airline {
namespace {

TEST(FleccTestbedTest, InitializesAgentsAgainstDirectory) {
  TestbedOptions opts;
  opts.n_agents = 6;
  opts.group_size = 3;
  FleccTestbed tb(opts);
  tb.init_all_agents();
  EXPECT_EQ(tb.directory().registered_count(), 6u);
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    EXPECT_TRUE(tb.agent(i).cache().registered());
    EXPECT_TRUE(tb.agent(i).cache().valid());
  }
}

TEST(FleccTestbedTest, ReservationLoopPropagatesToDatabase) {
  TestbedOptions opts;
  opts.n_agents = 2;
  opts.group_size = 2;
  opts.cm_cfg.validity_trigger = "false";  // always fetch freshest
  FleccTestbed tb(opts);
  tb.init_all_agents();
  const FlightNumber flight = tb.assignment().agent_flights[0][0];
  tb.agent(0).run_reservation_loop(5, flight, 1, /*pull_first=*/true);
  tb.agent(1).run_reservation_loop(5, flight, 1, /*pull_first=*/true);
  tb.run();
  // Final kill pushes any stragglers.
  tb.agent(0).shutdown();
  tb.agent(1).shutdown();
  tb.run();
  EXPECT_EQ(tb.database().find(flight)->reserved, 10);
  EXPECT_EQ(tb.agent(0).ops_completed(), 5u);
  EXPECT_EQ(tb.agent(0).op_latencies().count(), 5u);
}

TEST(FleccTestbedTest, OpProbeSamplesEachCall) {
  TestbedOptions opts;
  opts.n_agents = 1;
  opts.group_size = 1;
  FleccTestbed tb(opts);
  tb.init_all_agents();
  std::vector<std::size_t> indices;
  tb.agent(0).set_op_probe(
      [&](std::size_t idx, sim::Time) { indices.push_back(idx); });
  tb.agent(0).run_reservation_loop(3, tb.assignment().agent_flights[0][0], 1,
                                   true);
  tb.run();
  EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(FleccTestbedTest, DirectoryCrashRestartConvergesReservations) {
  TestbedOptions opts;
  opts.n_agents = 4;
  opts.group_size = 2;
  opts.durable_directory = true;
  opts.checkpoint_flush_every = 4;  // crash eats an unflushed WAL tail
  opts.cm_cfg.heartbeat_interval = sim::msec(200);
  opts.cm_cfg.retry.base_timeout = sim::msec(100);
  opts.cm_cfg.retry.max_timeout = sim::msec(500);
  opts.cm_cfg.retry.max_attempts = 10;
  FleccTestbed tb(opts);
  ASSERT_NE(tb.durability(), nullptr);
  tb.init_all_agents();
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    tb.agent(i).run_reservation_loop(3, tb.assignment().agent_flights[i][0],
                                     1, /*pull_first=*/true);
  }
  tb.run_until(tb.simulator().now() + sim::msec(300));

  tb.crash_directory();
  EXPECT_TRUE(tb.directory_crashed());
  tb.run_until(tb.simulator().now() + sim::seconds(1));
  tb.restart_directory();
  EXPECT_FALSE(tb.directory_crashed());
  tb.run();
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    tb.agent(i).shutdown();
  }
  tb.run();

  // Recovery bookkeeping and convergence: the new incarnation rebuilt
  // from the checkpoint + re-announcements, and no reservation is lost.
  EXPECT_EQ(tb.directory().generation(), 2u);
  EXPECT_GE(tb.directory().stats().get("recovery.restart"), 1u);
  EXPECT_GE(tb.directory().stats().get("recovery.completed"), 1u);
  std::int64_t reserved = 0;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    completed += tb.agent(i).ops_completed();
  }
  reserved = tb.database().total_reserved();
  EXPECT_EQ(completed, 12u);  // every loop finished despite the crash
  EXPECT_GE(reserved, 12);    // no lost update (dups possible: WAL tail)
}

class ProtocolConservationTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(ProtocolConservationTest, NoReservationIsLost) {
  // Conservation invariant: after quiescence + disconnect, every seat
  // confirmed by any agent is reflected in the primary database,
  // whatever the protocol.
  TestbedOptions opts;
  opts.n_agents = 6;
  opts.group_size = 3;
  opts.capacity = 100000;  // no clamping in this test
  CoherenceTestbed tb(GetParam(), opts);
  tb.connect_all();

  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    const FlightNumber flight = tb.assignment().agent_flights[i][0];
    for (int op = 0; op < 4; ++op) {
      tb.client(i).do_operation(
          [&tb, i, flight] { tb.view(i).confirm_tickets(flight, 1); }, {});
    }
  }
  tb.run();
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    tb.client(i).disconnect({});
  }
  tb.run();

  std::int64_t confirmed = 0;
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    confirmed += tb.view(i).confirmed_total();
  }
  EXPECT_EQ(confirmed, 24);
  EXPECT_EQ(tb.database().total_reserved(), confirmed);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolConservationTest,
                         ::testing::Values(Protocol::kFlecc,
                                           Protocol::kTimeSharing,
                                           Protocol::kMulticast));

TEST(CoherenceTestbedTest, FleccDirectoryOnlyForFlecc) {
  TestbedOptions opts;
  opts.n_agents = 2;
  CoherenceTestbed flecc(Protocol::kFlecc, opts);
  EXPECT_NE(flecc.flecc_directory(), nullptr);
  CoherenceTestbed ts(Protocol::kTimeSharing, opts);
  EXPECT_EQ(ts.flecc_directory(), nullptr);
  EXPECT_STREQ(to_string(Protocol::kMulticast), "multicast");
}

TEST(CoherenceTestbedTest, FleccClientsStartFromCmCfg) {
  TestbedOptions opts;
  opts.n_agents = 3;
  opts.cm_cfg.mode = core::Mode::kStrong;
  opts.cm_cfg.heartbeat_interval = sim::msec(100);
  CoherenceTestbed tb(Protocol::kFlecc, opts);
  tb.connect_all();
  tb.simulator().run_until(tb.simulator().now() + sim::msec(500));
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    auto* client = dynamic_cast<baselines::FleccClient*>(&tb.client(i));
    ASSERT_NE(client, nullptr);
    const core::CacheManager& cm = client->cache_manager();
    EXPECT_TRUE(cm.registered()) << "client " << i;
    EXPECT_EQ(cm.mode(), core::Mode::kStrong) << "client " << i;
    EXPECT_GT(cm.stats().get("heartbeat.sent"), 0u) << "client " << i;
  }
}

}  // namespace
}  // namespace flecc::airline

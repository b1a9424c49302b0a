// Cross-module invariants of the full system, exercised through the
// airline application over the simulated LAN.
#include <gtest/gtest.h>

#include "airline/testbed.hpp"

namespace flecc::airline {
namespace {

TEST(ConsistencyTest, StrongModeNeverLosesOrDuplicatesSeats) {
  TestbedOptions opts;
  opts.n_agents = 5;
  opts.group_size = 5;
  opts.cm_cfg.mode = core::Mode::kStrong;
  opts.capacity = 1000;
  FleccTestbed tb(opts);
  const FlightNumber flight = tb.assignment().agent_flights[0][0];

  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    tb.agent(i).run_reservation_loop(8, flight, 1, /*pull_first=*/false);
  }
  tb.run();
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    tb.agent(i).shutdown();
  }
  tb.run();

  std::int64_t confirmed = 0;
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    confirmed += tb.agent(i).view().confirmed_total();
  }
  EXPECT_EQ(confirmed, 40);
  EXPECT_EQ(tb.database().find(flight)->reserved, confirmed);
  EXPECT_EQ(tb.database().rejected_seats(), 0u);
}

TEST(ConsistencyTest, StrongModeSerializesSoNobodyOversells) {
  // Capacity below demand: in strong mode every agent works on exact
  // seat state, so local refusals happen instead of primary clamping.
  TestbedOptions opts;
  opts.n_agents = 4;
  opts.group_size = 4;
  opts.cm_cfg.mode = core::Mode::kStrong;
  opts.capacity = 10;
  FleccTestbed tb(opts);
  const FlightNumber flight = tb.assignment().agent_flights[0][0];
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    tb.agent(i).run_reservation_loop(5, flight, 1, false);
  }
  tb.run();
  for (std::size_t i = 0; i < tb.agent_count(); ++i) tb.agent(i).shutdown();
  tb.run();

  std::int64_t confirmed = 0, refused = 0;
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    confirmed += tb.agent(i).view().confirmed_total();
    refused += tb.agent(i).view().refused_total();
  }
  EXPECT_EQ(confirmed, 10);  // exactly capacity
  EXPECT_EQ(refused, 10);    // the rest correctly refused at the views
  EXPECT_EQ(tb.database().find(flight)->reserved, 10);
  EXPECT_EQ(tb.database().rejected_seats(), 0u);  // never clamped
}

TEST(ConsistencyTest, WeakModeConservesSeatsAfterQuiescence) {
  TestbedOptions opts;
  opts.n_agents = 6;
  opts.group_size = 3;
  opts.cm_cfg.mode = core::Mode::kWeak;
  opts.cm_cfg.validity_trigger = "false";
  opts.capacity = 100000;
  FleccTestbed tb(opts);
  tb.init_all_agents();
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    tb.agent(i).run_reservation_loop(
        6, tb.assignment().agent_flights[i][0], 1, true);
  }
  tb.run();
  for (std::size_t i = 0; i < tb.agent_count(); ++i) tb.agent(i).shutdown();
  tb.run();

  std::int64_t confirmed = 0;
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    confirmed += tb.agent(i).view().confirmed_total();
  }
  EXPECT_EQ(confirmed, 36);
  EXPECT_EQ(tb.database().total_reserved(), confirmed);
}

TEST(ConsistencyTest, WeakModeOverbookingIsClampedByMergePolicy) {
  // Weak mode with stale data and demand only at the primary: agents may
  // jointly oversell; the application's merge function (delta + clamp)
  // resolves the conflict, as §4.1 prescribes.
  TestbedOptions opts;
  opts.n_agents = 4;
  opts.group_size = 4;
  opts.cm_cfg.mode = core::Mode::kWeak;
  opts.capacity = 10;
  FleccTestbed tb(opts);
  tb.init_all_agents();
  const FlightNumber flight = tb.assignment().agent_flights[0][0];
  // Nobody pulls between ops: everyone believes seats are free.
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    tb.agent(i).run_reservation_loop(5, flight, 1, /*pull_first=*/false);
  }
  tb.run();
  for (std::size_t i = 0; i < tb.agent_count(); ++i) tb.agent(i).shutdown();
  tb.run();

  const auto* f = tb.database().find(flight);
  EXPECT_EQ(f->reserved, 10);                   // never exceeds capacity
  EXPECT_EQ(tb.database().rejected_seats(), 10u);  // 20 asked, 10 clamped
}

TEST(ConsistencyTest, DisjointGroupsNeverInterfere) {
  TestbedOptions opts;
  opts.n_agents = 4;
  opts.group_size = 2;
  opts.cm_cfg.validity_trigger = "false";
  FleccTestbed tb(opts);
  tb.init_all_agents();
  // Group 0 works; group 1 stays idle.
  tb.agent(0).run_reservation_loop(5, tb.assignment().agent_flights[0][0], 1,
                                   true);
  tb.agent(1).run_reservation_loop(5, tb.assignment().agent_flights[1][0], 1,
                                   true);
  tb.run();
  // Quality of the idle, disjoint group must remain pristine.
  EXPECT_EQ(tb.directory().quality(tb.agent(2).cache().id()), 0u);
  EXPECT_EQ(tb.directory().quality(tb.agent(3).cache().id()), 0u);
  // But group 0's members have seen each other's traffic settle.
  EXPECT_EQ(tb.directory().quality(tb.agent(0).cache().id()), 0u);
}

TEST(ConsistencyTest, ModeSwitchMidRunKeepsConservation) {
  TestbedOptions opts;
  opts.n_agents = 3;
  opts.group_size = 3;
  opts.cm_cfg.mode = core::Mode::kWeak;
  opts.cm_cfg.validity_trigger = "false";
  opts.capacity = 100000;
  FleccTestbed tb(opts);
  tb.init_all_agents();
  const FlightNumber flight = tb.assignment().agent_flights[0][0];

  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    TravelAgent& agent = tb.agent(i);
    agent.run_reservation_loop(3, flight, 1, true, [&agent, flight] {
      agent.switch_mode(core::Mode::kStrong, [&agent, flight] {
        agent.run_reservation_loop(3, flight, 1, false, [&agent] {
          agent.switch_mode(core::Mode::kWeak,
                            [&agent] { agent.shutdown(); });
        });
      });
    });
  }
  tb.run();

  std::int64_t confirmed = 0;
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    confirmed += tb.agent(i).view().confirmed_total();
  }
  EXPECT_EQ(confirmed, 18);
  EXPECT_EQ(tb.database().total_reserved(), confirmed);
}

}  // namespace
}  // namespace flecc::airline

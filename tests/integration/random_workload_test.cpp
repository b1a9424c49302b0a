// Randomized protocol stress: agents perform random operation sequences
// (pull / push / work / mode switches / early shutdown) over shared
// flights, and the system must uphold its global invariants at
// quiescence — whatever the interleaving.
//
// Invariants:
//   I1 (conservation): every locally confirmed seat reaches the primary
//       database, as an accepted reservation or a counted rejection:
//       db.total_reserved + db.rejected_seats == Σ confirmed_total.
//   I2 (capacity): no flight's reserved count ever exceeds capacity.
//   I3 (exclusivity): at most one exclusive view per conflict group at
//       any sampled instant.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "airline/testbed.hpp"
#include "sim/rng.hpp"
#include "sim/script.hpp"

namespace flecc::airline {
namespace {

struct Params {
  std::uint64_t seed;
  std::size_t n_agents;
  std::size_t group_size;
  std::int64_t capacity;
};

class RandomWorkloadTest : public ::testing::TestWithParam<Params> {};

TEST_P(RandomWorkloadTest, InvariantsHoldAtQuiescence) {
  const Params p = GetParam();
  TestbedOptions opts;
  opts.n_agents = p.n_agents;
  opts.group_size = p.group_size;
  opts.capacity = p.capacity;
  opts.cm_cfg.validity_trigger = "false";
  FleccTestbed tb(opts);
  tb.init_all_agents();

  sim::Rng rng(p.seed);
  std::size_t alive = p.n_agents;

  for (std::size_t i = 0; i < p.n_agents; ++i) {
    TravelAgent& agent = tb.agent(i);
    const FlightNumber flight = tb.assignment().agent_flights[i][0];
    const std::size_t ops = static_cast<std::size_t>(rng.uniform_int(3, 12));
    const bool dies_early = rng.chance(0.2);

    sim::Script script;
    for (std::size_t k = 0; k < ops; ++k) {
      const auto kind = rng.uniform_int(0, 6);
      switch (kind) {
        case 0:
          script.then([&agent](sim::Script::Next next) {
            agent.pull_now(std::move(next));
          });
          break;
        case 1:
          script.then([&agent](sim::Script::Next next) {
            agent.push_now(std::move(next));
          });
          break;
        case 2:
        case 3: {
          const auto seats = rng.uniform_int(1, 3);
          const bool pull_first = rng.chance(0.5);
          script.then([&agent, flight, seats,
                       pull_first](sim::Script::Next next) {
            agent.reserve_once(flight, seats, pull_first, std::move(next));
          });
          break;
        }
        case 4:
          script.then([&agent](sim::Script::Next next) {
            agent.switch_mode(core::Mode::kStrong, std::move(next));
          });
          break;
        case 5:
          script.then([&agent](sim::Script::Next next) {
            agent.switch_mode(core::Mode::kWeak, std::move(next));
          });
          break;
        case 6: {
          const auto seats = rng.uniform_int(1, 2);
          script.then([&agent, flight, seats](sim::Script::Next next) {
            agent.view().cancel_tickets(flight, seats);
            next();
          });
          break;
        }
      }
    }
    if (dies_early) {
      script.then([&agent, &alive](sim::Script::Next next) {
        --alive;
        agent.shutdown(std::move(next));
      });
    }
    std::move(script).run();
  }
  tb.run();

  // I3 sampled after the storm, before final teardown.
  for (std::size_t g = 0; g < tb.assignment().group_count; ++g) {
    std::size_t exclusive = 0;
    for (std::size_t i = 0; i < p.n_agents; ++i) {
      if (tb.assignment().agent_group[i] != g) continue;
      if (tb.directory().is_exclusive(tb.agent(i).cache().id())) {
        ++exclusive;
      }
    }
    EXPECT_LE(exclusive, 1u) << "group " << g;
  }

  // Orderly teardown of the survivors.
  for (std::size_t i = 0; i < p.n_agents; ++i) {
    if (tb.agent(i).cache().alive()) tb.agent(i).shutdown();
  }
  tb.run();

  // I1: conservation — every net-sold seat (confirmed minus locally
  // cancelled) reaches the database, accepted or counted as rejected.
  std::int64_t net_sold = 0;
  for (std::size_t i = 0; i < p.n_agents; ++i) {
    net_sold += tb.agent(i).view().net_sold();
  }
  EXPECT_EQ(tb.database().total_reserved() +
                static_cast<std::int64_t>(tb.database().rejected_seats()),
            net_sold)
      << "seed " << p.seed;

  // I2: capacity.
  for (const auto& [number, flight] : tb.database()) {
    (void)number;
    EXPECT_LE(flight.reserved, flight.capacity);
    EXPECT_GE(flight.reserved, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Storms, RandomWorkloadTest,
    ::testing::Values(Params{1, 8, 4, 1 << 20}, Params{2, 8, 4, 1 << 20},
                      Params{3, 8, 8, 1 << 20}, Params{4, 12, 3, 1 << 20},
                      Params{5, 6, 6, 20},    // tight capacity: clamping
                      Params{6, 6, 6, 20}, Params{7, 10, 5, 50},
                      Params{8, 16, 4, 1 << 20}, Params{9, 16, 16, 100},
                      Params{10, 4, 2, 10}));

}  // namespace
}  // namespace flecc::airline

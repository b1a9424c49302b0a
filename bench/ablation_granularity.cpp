// Ablation A2 — property granularity.
//
// The application chooses how precisely its "Flights" property describes
// the data a view actually touches. Coarse properties (one interval over
// the whole database) are cheap to declare but create *false conflicts*:
// the directory chases views that share no real data. Fine-grained
// properties (exactly the flights served) keep fetch rounds minimal.
//
// Setup: 20 agents, each actually serving its own private flight, all
// pulling with validity "false" (always fetch freshest). We sweep the
// declared property from exact to fully coarse and count messages.
#include <cstdio>
#include <memory>
#include <vector>

#include "airline/flight_database.hpp"
#include "airline/travel_agent.hpp"
#include "core/directory_manager.hpp"
#include "net/sim_fabric.hpp"
#include "sim/simulator.hpp"

using namespace flecc;

namespace {

constexpr std::size_t kAgents = 20;
constexpr int kOpsPerAgent = 3;

struct RunStats {
  std::uint64_t messages = 0;
  std::uint64_t fetches = 0;
  double avg_conflicts = 0.0;
};

/// `slack` = how many extra flights each agent over-declares on each
/// side of the flight it really serves (0 = exact, large = coarse).
RunStats run(std::size_t slack) {
  sim::Simulator simulator;
  std::vector<net::NodeId> hosts;
  net::LinkSpec lan;
  lan.latency = sim::usec(200);
  auto topo = net::Topology::lan(kAgents + 1, lan, &hosts);
  net::SimFabric fabric(simulator, std::move(topo));

  auto db = airline::FlightDatabase::uniform(0, kAgents, 1 << 20);
  airline::FlightDatabaseAdapter adapter(db);
  const net::Address dir_addr{hosts.back(), 1};
  core::DirectoryManager directory(fabric, dir_addr, adapter);

  std::vector<std::unique_ptr<airline::TravelAgent>> agents;
  for (std::size_t i = 0; i < kAgents; ++i) {
    airline::TravelAgent::Config cfg;
    // Real data: flight i. Declared data: [i-slack, i+slack] clamped.
    const auto lo = static_cast<airline::FlightNumber>(
        i >= slack ? i - slack : 0);
    const auto hi = static_cast<airline::FlightNumber>(
        std::min(kAgents - 1, i + slack));
    for (airline::FlightNumber f = lo; f <= hi; ++f) {
      cfg.flights.push_back(f);
    }
    cfg.cm_cfg.validity_trigger = "false";
    agents.push_back(std::make_unique<airline::TravelAgent>(
        fabric, net::Address{hosts[i], 1}, dir_addr, std::move(cfg)));
  }
  for (auto& a : agents) a->init();
  simulator.run();

  const auto baseline = fabric.sent_count();
  for (int op = 0; op < kOpsPerAgent; ++op) {
    for (std::size_t i = 0; i < kAgents; ++i) {
      agents[i]->reserve_once(static_cast<airline::FlightNumber>(i), 1,
                              /*pull_first=*/true);
    }
    simulator.run();
  }

  RunStats out;
  out.messages = fabric.sent_count() - baseline;
  out.fetches = fabric.counters().get("msg.sent.flecc.fetch_req");
  double conflicts = 0.0;
  for (const auto& a : agents) {
    conflicts += static_cast<double>(
        directory.conflicting_views(a->cache().id()).size());
  }
  out.avg_conflicts = conflicts / static_cast<double>(kAgents);
  return out;
}

}  // namespace

int main() {
  std::printf("# Ablation A2 — property granularity (false conflicts)\n");
  std::printf("# %zu agents, each really serving 1 private flight, "
              "%d fetch-fresh ops each\n\n", kAgents, kOpsPerAgent);
  std::printf("%-22s %14s %12s %16s\n", "declared_slack", "avg_conflicts",
              "messages", "fetch_requests");
  for (const std::size_t slack : {0u, 1u, 2u, 5u, 10u, 20u}) {
    const auto stats = run(slack);
    std::printf("%-22zu %14.1f %12llu %16llu\n", slack, stats.avg_conflicts,
                static_cast<unsigned long long>(stats.messages),
                static_cast<unsigned long long>(stats.fetches));
  }
  std::printf("\n# exact properties (slack 0) ⇒ zero false conflicts and "
              "minimal traffic;\n");
  std::printf("# coarse declarations inflate fetch rounds exactly like an "
              "application-oblivious protocol.\n");
  return 0;
}

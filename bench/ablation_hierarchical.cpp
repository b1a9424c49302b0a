// Ablation A4 — two-level hierarchical protocol (future-work ext. 2).
//
// Flat deployment: one component instance; every view in every domain
// attaches to the single directory — all synchronization traffic crosses
// the (slow) inter-domain links.
//
// Hierarchical deployment: one component instance per domain; views
// attach to their local directory (fast LAN traffic), and SyncAgents
// gossip between the instances over the slow links (decentralized — no
// primary among instances).
//
// We measure WAN messages (the scarce resource), total messages, and the
// end state agreement between domains.
#include <cstdio>
#include <memory>
#include <vector>

#include "airline/flight_database.hpp"
#include "airline/travel_agent.hpp"
#include "core/directory_manager.hpp"
#include "core/hierarchy.hpp"
#include "net/sim_fabric.hpp"
#include "sim/simulator.hpp"

using namespace flecc;

namespace {

constexpr std::size_t kDomains = 3;
constexpr std::size_t kViewsPerDomain = 4;
constexpr int kOpsPerView = 5;
// Each domain's views sell that domain's own flight (single-writer per
// flight), and every instance replicates all flights: the monotone
// state gossip then converges to the true totals.
constexpr airline::FlightNumber kFirstFlight = 100;

struct Result {
  std::uint64_t total_messages = 0;
  std::uint64_t wan_messages = 0;
  std::int64_t reserved_seen_min = 0;  // min over domains' databases
  std::int64_t reserved_seen_max = 0;
};

/// Builds kDomains LANs joined by slow WAN links; host layout per
/// domain: kViewsPerDomain agent hosts + 1 server host.
struct Net {
  sim::Simulator simulator;
  std::unique_ptr<net::SimFabric> fabric;
  std::vector<std::vector<net::NodeId>> domain_hosts;  // [domain][host]
  std::vector<net::NodeId> servers;

  Net() {
    net::Topology topo;
    std::vector<net::NodeId> routers;
    for (std::size_t d = 0; d < kDomains; ++d) {
      const auto router =
          topo.add_node("router" + std::to_string(d));
      routers.push_back(router);
      std::vector<net::NodeId> hosts;
      net::LinkSpec lan;
      lan.latency = sim::usec(100);
      for (std::size_t h = 0; h <= kViewsPerDomain; ++h) {
        // Built via append (not operator+ chaining) to dodge the GCC 12
        // -Wrestrict false positive on rvalue-string concatenation.
        std::string name = "d";
        name += std::to_string(d);
        name += 'h';
        name += std::to_string(h);
        const auto n = topo.add_node(name);
        topo.add_link(n, router, lan);
        hosts.push_back(n);
      }
      servers.push_back(hosts.back());
      hosts.pop_back();
      domain_hosts.push_back(std::move(hosts));
    }
    net::LinkSpec wan;
    wan.latency = sim::msec(30);
    wan.secure = false;
    for (std::size_t d = 0; d < kDomains; ++d) {
      topo.add_link(routers[d], routers[(d + 1) % kDomains], wan);
    }
    fabric = std::make_unique<net::SimFabric>(simulator, std::move(topo));
  }
};

/// WAN crossings are detected by comparing domain of sender/receiver.
std::size_t domain_of(net::NodeId node) {
  // Nodes are created per domain in construction order:
  // router + (kViewsPerDomain + 1) hosts per domain.
  return node / (kViewsPerDomain + 2);
}

Result run_flat() {
  Net nw;
  auto db = airline::FlightDatabase::uniform(kFirstFlight, kDomains, 1 << 20);
  airline::FlightDatabaseAdapter adapter(db);
  const net::Address dir_addr{nw.servers[0], 1};
  core::DirectoryManager directory(*nw.fabric, dir_addr, adapter);

  std::uint64_t wan = 0;
  nw.fabric->set_trace_hook([&](const net::TraceEntry& e) {
    if (domain_of(e.from.node) != domain_of(e.to.node)) ++wan;
  });

  std::vector<std::unique_ptr<airline::TravelAgent>> agents;
  for (std::size_t d = 0; d < kDomains; ++d) {
    for (std::size_t v = 0; v < kViewsPerDomain; ++v) {
      airline::TravelAgent::Config cfg;
      cfg.flights = {kFirstFlight + static_cast<airline::FlightNumber>(d)};
      cfg.cm_cfg.validity_trigger = "false";
      agents.push_back(std::make_unique<airline::TravelAgent>(
          *nw.fabric, net::Address{nw.domain_hosts[d][v], 1}, dir_addr,
          std::move(cfg)));
    }
  }
  for (auto& a : agents) a->init();
  nw.simulator.run();
  for (std::size_t i = 0; i < agents.size(); ++i) {
    const auto flight =
        kFirstFlight + static_cast<airline::FlightNumber>(i / kViewsPerDomain);
    agents[i]->run_reservation_loop(kOpsPerView, flight, 1,
                                    /*pull_first=*/true);
  }
  nw.simulator.run();
  for (auto& a : agents) a->shutdown();
  nw.simulator.run();

  Result r;
  r.total_messages = nw.fabric->sent_count();
  r.wan_messages = wan;
  r.reserved_seen_min = r.reserved_seen_max = db.total_reserved();
  return r;
}

Result run_hierarchical() {
  Net nw;
  std::vector<std::unique_ptr<airline::FlightDatabase>> dbs;
  std::vector<std::unique_ptr<airline::FlightDatabaseAdapter>> adapters;
  std::vector<std::unique_ptr<core::DirectoryManager>> dirs;
  std::vector<std::unique_ptr<core::SyncAgent>> sync;

  std::uint64_t wan = 0;
  nw.fabric->set_trace_hook([&](const net::TraceEntry& e) {
    if (domain_of(e.from.node) != domain_of(e.to.node)) ++wan;
  });

  props::PropertySet scope;
  scope.set(airline::kFlightsProperty,
            props::Domain::interval(
                kFirstFlight,
                kFirstFlight + static_cast<airline::FlightNumber>(kDomains) -
                    1));

  for (std::size_t d = 0; d < kDomains; ++d) {
    dbs.push_back(std::make_unique<airline::FlightDatabase>(
        airline::FlightDatabase::uniform(kFirstFlight, kDomains, 1 << 20)));
    adapters.push_back(
        std::make_unique<airline::FlightDatabaseAdapter>(*dbs.back()));
    dirs.push_back(std::make_unique<core::DirectoryManager>(
        *nw.fabric, net::Address{nw.servers[d], 1}, *adapters.back()));
    core::SyncAgent::Config cfg;
    cfg.instance = static_cast<core::InstanceId>(d + 1);
    cfg.interval = sim::msec(100);
    sync.push_back(std::make_unique<core::SyncAgent>(
        *nw.fabric, net::Address{nw.servers[d], 2}, *adapters.back(), scope,
        cfg));
  }
  for (std::size_t d = 0; d < kDomains; ++d) {
    for (std::size_t p = 0; p < kDomains; ++p) {
      if (p != d) sync[d]->add_peer(net::Address{nw.servers[p], 2});
    }
    sync[d]->start();
  }

  std::vector<std::unique_ptr<airline::TravelAgent>> agents;
  for (std::size_t d = 0; d < kDomains; ++d) {
    for (std::size_t v = 0; v < kViewsPerDomain; ++v) {
      airline::TravelAgent::Config cfg;
      cfg.flights = {kFirstFlight + static_cast<airline::FlightNumber>(d)};
      cfg.cm_cfg.validity_trigger = "false";
      agents.push_back(std::make_unique<airline::TravelAgent>(
          *nw.fabric, net::Address{nw.domain_hosts[d][v], 1},
          net::Address{nw.servers[d], 1}, std::move(cfg)));
    }
  }
  for (auto& a : agents) a->init();
  nw.simulator.run_until(sim::msec(50));
  for (std::size_t i = 0; i < agents.size(); ++i) {
    const auto flight =
        kFirstFlight + static_cast<airline::FlightNumber>(i / kViewsPerDomain);
    agents[i]->run_reservation_loop(kOpsPerView, flight, 1,
                                    /*pull_first=*/true);
  }
  // Let work finish and gossip settle, then stop gossip.
  nw.simulator.run_until(nw.simulator.now() + sim::seconds(2));
  for (auto& a : agents) a->shutdown();
  nw.simulator.run_until(nw.simulator.now() + sim::seconds(1));
  for (auto& s : sync) s->stop();
  nw.simulator.run();

  Result r;
  r.total_messages = nw.fabric->sent_count();
  r.wan_messages = wan;
  r.reserved_seen_min = r.reserved_seen_max = dbs[0]->total_reserved();
  for (const auto& db : dbs) {
    const auto seen = db->total_reserved();
    r.reserved_seen_min = std::min(r.reserved_seen_min, seen);
    r.reserved_seen_max = std::max(r.reserved_seen_max, seen);
  }
  return r;
}

}  // namespace

int main() {
  std::printf("# Ablation A4 — flat vs two-level hierarchical Flecc "
              "(future-work extension 2)\n");
  std::printf("# %zu domains x %zu views, %d fetch-fresh ops per view, "
              "30ms WAN hops\n\n", kDomains, kViewsPerDomain, kOpsPerView);

  const Result flat = run_flat();
  const Result hier = run_hierarchical();

  std::printf("%-14s %14s %14s %22s\n", "config", "total_msgs", "wan_msgs",
              "reserved(min..max)");
  std::printf("%-14s %14llu %14llu %15lld..%lld\n", "flat",
              static_cast<unsigned long long>(flat.total_messages),
              static_cast<unsigned long long>(flat.wan_messages),
              static_cast<long long>(flat.reserved_seen_min),
              static_cast<long long>(flat.reserved_seen_max));
  std::printf("%-14s %14llu %14llu %15lld..%lld\n", "hierarchical",
              static_cast<unsigned long long>(hier.total_messages),
              static_cast<unsigned long long>(hier.wan_messages),
              static_cast<long long>(hier.reserved_seen_min),
              static_cast<long long>(hier.reserved_seen_max));

  std::printf("\n# the hierarchy localizes coherence traffic: WAN messages "
              "shrink to the gossip\n");
  std::printf("# exchange, at the cost of eventual (not immediate) "
              "agreement between domains.\n");
  return 0;
}

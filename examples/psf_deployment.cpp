// The paper's Figure 1: view deployment across three domains.
//
// Three administrative domains hang off the Internet. Domain 1 hosts the
// original component; clients in domains 2 and 3 want the same service
// under different QoS:
//   * the domain-2 client requires privacy → the planner wraps the
//     insecure Internet hops with encryptor/decryptor pairs;
//   * the domain-3 client requires low latency → the planner deploys a
//     view (travel agent) inside domain 3, and Flecc keeps it coherent.
// The deployed view is live: a Flecc directory in domain 1 fronts the
// flight database over the spec's own topology, the view sells seats
// locally, and its push lands them in the database across the WAN.
// The monitoring module then reacts to an environment change by
// triggering re-planning (the PSF adaptation loop of §3.1).
//
// Build & run:  ./build/examples/psf_deployment
#include <cstdio>

#include "airline/flight_database.hpp"
#include "airline/psf_glue.hpp"
#include "core/directory_manager.hpp"
#include "net/sim_fabric.hpp"
#include "psf/deployer.hpp"
#include "psf/monitor.hpp"
#include "psf/planner.hpp"
#include "psf/spec.hpp"
#include "sim/simulator.hpp"

using namespace flecc;

// The declarative specification (§3.1, PSF element (i)): the
// application, the three-domain environment of Figure 1, and the two
// client QoS requests, all in one document.
constexpr const char* kSpec = R"spec(
component air.ReservationSystem
  implements AirlineReservationInterface
  requires DatabaseInterface
  method browse
  method confirmTickets
  data Flights interval 100 199
end

view air.TravelAgent of air.ReservationSystem
  method browse
  method confirmTickets
  data Flights interval 100 149
end

node internet
node domain1.server domain=1
node domain2.client domain=2
node domain3.client domain=3
link domain1.server internet latency=35ms insecure
link domain2.client internet latency=35ms insecure
link domain3.client internet latency=35ms insecure

# domain-2 client: privacy-sensitive buyer
request domain2.client domain1.server interface=AirlineReservationInterface privacy
# domain-3 client: latency-sensitive browser
request domain3.client domain1.server interface=AirlineReservationInterface max_latency=5ms view=air.TravelAgent
)spec";

int main() {
  std::printf("PSF deployment — the paper's Figure 1 scenario\n\n");

  auto spec = psf::parse_spec(kSpec);
  psf::Environment& env = spec.environment;
  std::printf("parsed declarative spec: %zu component(s), %zu view(s), "
              "%zu nodes, %zu requests\n\n",
              spec.app.components.size(), spec.app.views.size(),
              env.node_count(), spec.requests.size());

  const auto d3_uplink =
      static_cast<net::LinkId>(2);  // domain3.client <-> internet (3rd link)

  psf::Planner planner(env);
  const auto privacy_plan = planner.plan(spec.requests[0]);
  std::printf("domain-2 client (privacy QoS):\n%s\n",
              privacy_plan->to_string(env).c_str());
  const auto latency_plan = planner.plan(spec.requests[1]);
  std::printf("domain-3 client (latency QoS):\n%s\n",
              latency_plan->to_string(env).c_str());

  // ---- the runtime: Flecc over the spec's topology --------------------
  // The original component is the flight database (flights 100-199) in
  // domain 1; its directory manager runs beside it.
  sim::Simulator simulator;
  net::SimFabric fabric(simulator, env.topology());
  auto db = airline::FlightDatabase::uniform(100, 100, 50);
  airline::FlightDatabaseAdapter adapter(db);
  const net::Address dir_addr{spec.node_ids.at("domain1.server"), 1};
  core::DirectoryManager directory(fabric, dir_addr, adapter);

  // ---- deploy both plans ----------------------------------------------
  // The air.TravelAgent factory creates the view (flights 100-149, the
  // spec's view data) with its cache manager, registered at `directory`.
  psf::Deployer deployer;
  airline::TravelAgentFactoryOptions opts;
  opts.directory = dir_addr;
  for (airline::FlightNumber f = 100; f < 150; ++f) opts.flights.push_back(f);
  airline::register_travel_agent_factory(deployer, fabric, opts);
  const auto d2 = deployer.deploy(*privacy_plan);
  auto d3 = deployer.deploy(*latency_plan);
  std::printf("deployed %zu instances for domain 2, %zu for domain 3\n",
              d2.size(), d3.size());
  simulator.run();  // the view registers and fetches its first image

  // ---- the domain-3 view sells seats; Flecc pushes them home ----------
  airline::TravelAgent& agent =
      dynamic_cast<airline::TravelAgentInstance&>(d3.instance(0)).agent();
  agent.run_reservation_loop(4, 100, 2, /*pull_first=*/true);
  simulator.run();
  agent.push_now();
  simulator.run();
  std::printf("domain-3 view sold 4 x 2 seats on flight 100\n");
  std::printf("flight database at domain1.server: flight 100 reserved=%lld "
              "(t=%.0f ms)\n",
              static_cast<long long>(db.find(100)->reserved),
              sim::to_ms(simulator.now()));
  d3 = psf::Deployment{};  // stop(): the view's killImage
  simulator.run();
  std::printf("views registered after teardown: %zu\n\n",
              directory.registered_count());

  // ---- the monitoring module reacts to environment changes ------------
  psf::Monitor monitor(env);
  monitor.watch(*privacy_plan,
                [&](const psf::DeploymentPlan& broken,
                    const std::string& why) {
                  std::printf("monitor: plan violated (%s) — re-planning\n",
                              why.c_str());
                  const auto fresh = planner.plan(broken.request);
                  if (fresh.has_value()) {
                    std::printf("re-planned:\n%s", fresh->to_string(env).c_str());
                  }
                });
  monitor.watch(*latency_plan, [](const psf::DeploymentPlan&,
                                  const std::string& why) {
    std::printf("monitor: latency plan violated (%s)\n", why.c_str());
  });

  std::printf("simulating an outage of domain 3's uplink...\n");
  env.set_link_up(d3_uplink, false);
  std::printf("(local view keeps serving; no violation for domain 3)\n\n");
  env.set_link_up(d3_uplink, true);

  std::printf("simulating a route change for domain 2 (link drops)...\n");
  env.set_link_up(0, false);  // d1_server <-> internet
  std::printf("\nviolations detected so far: %llu\n",
              static_cast<unsigned long long>(monitor.violations_detected()));
  return 0;
}

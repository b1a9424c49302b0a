// End-to-end Figure 1: PSF parses a declarative spec, plans a deployment
// satisfying the client's QoS, the deployer instantiates a *live* travel
// agent through the factory glue, and Flecc keeps it coherent with the
// remote flight database — plus the monitoring module re-validating the
// plan when the environment changes.
#include <gtest/gtest.h>

#include "airline/flight_database.hpp"
#include "airline/psf_glue.hpp"
#include "core/directory_manager.hpp"
#include "net/sim_fabric.hpp"
#include "psf/monitor.hpp"
#include "psf/spec.hpp"
#include "sim/simulator.hpp"

namespace flecc::airline {
namespace {

constexpr const char* kScenario = R"spec(
component air.ReservationSystem
  implements AirlineReservationInterface
  method browse
  method confirmTickets
  data Flights interval 100 104
end

view air.TravelAgent of air.ReservationSystem
  method browse
  method confirmTickets
  data Flights interval 100 104
end

node client domain=3
node internet
node server domain=1
link client internet latency=35ms insecure
link internet server latency=35ms insecure

request client server interface=AirlineReservationInterface max_latency=5ms view=air.TravelAgent
)spec";

TEST(PsfFleccIntegration, PlannedViewIsDeployedAliveAndCoherent) {
  auto spec = psf::parse_spec(kScenario);

  // The plan must satisfy the 5ms budget with a client-side view.
  psf::Planner planner(spec.environment);
  const auto plan = planner.plan(spec.requests[0]);
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(plan->uses_local_view);

  // Build the runtime from the planned environment.
  sim::Simulator simulator;
  net::SimFabric fabric(simulator, spec.environment.topology());

  auto db = FlightDatabase::uniform(100, 5, 50);
  FlightDatabaseAdapter adapter(db);
  const net::Address dir_addr{spec.node_ids.at("server"), 1};
  core::DirectoryManager directory(fabric, dir_addr, adapter);

  psf::Deployer deployer;
  TravelAgentFactoryOptions opts;
  opts.directory = dir_addr;
  opts.flights = {100, 101, 102, 103, 104};
  opts.cm_cfg.validity_trigger = "false";
  register_travel_agent_factory(deployer, fabric, opts);

  auto deployment = deployer.deploy(*plan);
  ASSERT_EQ(deployment.size(), 1u);
  auto* instance =
      dynamic_cast<TravelAgentInstance*>(&deployment.instance(0));
  ASSERT_NE(instance, nullptr);
  EXPECT_EQ(instance->node(), spec.node_ids.at("client"));
  EXPECT_TRUE(instance->started());  // deploy() starts instances

  // start() issued initImage; drive the fabric to completion.
  simulator.run();
  TravelAgent& agent = instance->agent();
  ASSERT_TRUE(agent.cache().registered());
  ASSERT_TRUE(agent.cache().valid());
  EXPECT_EQ(agent.view().available(100), 50);

  // The deployed view sells seats; Flecc propagates them to the remote
  // database across the two 35ms hops.
  agent.run_reservation_loop(4, 100, 2, /*pull_first=*/true);
  simulator.run();
  agent.push_now();
  simulator.run();
  EXPECT_EQ(db.find(100)->reserved, 8);

  // The monitoring module accepts the plan (local views tolerate WAN
  // trouble), and watches survive even an uplink outage.
  psf::Monitor monitor(spec.environment);
  int violations = 0;
  monitor.watch(*plan, [&](const psf::DeploymentPlan&, const std::string&) {
    ++violations;
  });
  spec.environment.set_link_up(0, false);  // client uplink down
  EXPECT_EQ(violations, 0);
  spec.environment.set_link_up(0, true);

  // Teardown through the deployment destructor: stop() -> killImage.
  deployment = psf::Deployment{};
  simulator.run();
  EXPECT_EQ(directory.registered_count(), 0u);
}

TEST(PsfFleccIntegration, MultipleAgentsShareANodeViaPortAllocation) {
  auto spec = psf::parse_spec(kScenario);
  sim::Simulator simulator;
  net::SimFabric fabric(simulator, spec.environment.topology());
  auto db = FlightDatabase::uniform(100, 5, 50);
  FlightDatabaseAdapter adapter(db);
  const net::Address dir_addr{spec.node_ids.at("server"), 1};
  core::DirectoryManager directory(fabric, dir_addr, adapter);

  psf::Deployer deployer;
  TravelAgentFactoryOptions opts;
  opts.directory = dir_addr;
  opts.flights = {100};
  register_travel_agent_factory(deployer, fabric, opts);

  // Two placements on the same client node must not collide.
  psf::DeploymentPlan plan;
  plan.placements = {{"air.TravelAgent", spec.node_ids.at("client")},
                     {"air.TravelAgent", spec.node_ids.at("client")}};
  auto deployment = deployer.deploy(plan);
  simulator.run();
  EXPECT_EQ(directory.registered_count(), 2u);
  auto* a = dynamic_cast<TravelAgentInstance*>(&deployment.instance(0));
  auto* b = dynamic_cast<TravelAgentInstance*>(&deployment.instance(1));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a->agent().cache().address(), b->agent().cache().address());
  EXPECT_TRUE(directory.conflicts(a->agent().cache().id(),
                                  b->agent().cache().id()));
}

TEST(PsfFleccIntegration, FactoryForwardsCmCfg) {
  auto spec = psf::parse_spec(kScenario);
  sim::Simulator simulator;
  net::SimFabric fabric(simulator, spec.environment.topology());
  auto db = FlightDatabase::uniform(100, 5, 50);
  FlightDatabaseAdapter adapter(db);
  const net::Address dir_addr{spec.node_ids.at("server"), 1};
  core::DirectoryManager directory(fabric, dir_addr, adapter);

  psf::Deployer deployer;
  TravelAgentFactoryOptions opts;
  opts.directory = dir_addr;
  opts.flights = {100};
  opts.cm_cfg.mode = core::Mode::kStrong;
  opts.cm_cfg.heartbeat_interval = sim::msec(100);
  register_travel_agent_factory(deployer, fabric, opts);

  psf::DeploymentPlan plan;
  plan.placements = {{"air.TravelAgent", spec.node_ids.at("client")},
                     {"air.TravelAgent", spec.node_ids.at("client")}};
  auto deployment = deployer.deploy(plan);
  simulator.run_until(simulator.now() + sim::msec(500));
  ASSERT_EQ(deployment.size(), 2u);
  for (std::size_t i = 0; i < deployment.size(); ++i) {
    auto* instance =
        dynamic_cast<TravelAgentInstance*>(&deployment.instance(i));
    ASSERT_NE(instance, nullptr);
    const core::CacheManager& cm = instance->agent().cache();
    ASSERT_TRUE(cm.registered()) << "instance " << i;
    EXPECT_EQ(cm.mode(), core::Mode::kStrong) << "instance " << i;
    EXPECT_EQ(directory.mode_of(cm.id()), core::Mode::kStrong)
        << "instance " << i;
    EXPECT_GT(cm.stats().get("heartbeat.sent"), 0u) << "instance " << i;
  }
}

}  // namespace
}  // namespace flecc::airline

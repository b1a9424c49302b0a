#include "airline/psf_glue.hpp"

#include <utility>

namespace flecc::airline {

TravelAgentInstance::TravelAgentInstance(net::Fabric& fabric,
                                         net::NodeId node, net::PortId port,
                                         net::Address directory,
                                         TravelAgent::Config cfg)
    : psf::ComponentInstance(TravelAgent::kComponentType, node),
      agent_(fabric, net::Address{node, port}, directory, std::move(cfg)) {}

void TravelAgentInstance::on_start() { agent_.init(); }

void TravelAgentInstance::on_stop() {
  if (agent_.cache().alive()) agent_.shutdown();
}

void register_travel_agent_factory(psf::Deployer& deployer,
                                   net::Fabric& fabric,
                                   TravelAgentFactoryOptions options) {
  // The factory hands out consecutive ports so multiple agents can land
  // on the same node without address collisions.
  auto next_port = std::make_shared<net::PortId>(options.first_port);
  deployer.register_factory(
      TravelAgent::kComponentType,
      [&fabric, options, next_port](net::NodeId node)
          -> std::unique_ptr<psf::ComponentInstance> {
        TravelAgent::Config cfg;
        cfg.flights = options.flights;
        cfg.cm_cfg = options.cm_cfg;
        return std::make_unique<TravelAgentInstance>(
            fabric, node, (*next_port)++, options.directory, std::move(cfg));
      });
}

}  // namespace flecc::airline

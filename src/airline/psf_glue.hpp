// Glue between the PSF deployment machinery and the airline/Flecc
// stack: a ComponentInstance that hosts a live TravelAgent (view +
// cache manager), and a factory registration so psf::Deployer can
// instantiate planned "air.TravelAgent" placements onto a Fabric — the
// full Figure-1 story: PSF plans and deploys the view, Flecc keeps it
// coherent.
#pragma once

#include <memory>
#include <vector>

#include "airline/travel_agent.hpp"
#include "psf/deployer.hpp"

namespace flecc::airline {

/// A deployed travel agent. Created stopped-but-constructed; start()
/// issues initImage, stop() issues killImage (both asynchronous — drive
/// the fabric afterwards).
class TravelAgentInstance : public psf::ComponentInstance {
 public:
  TravelAgentInstance(net::Fabric& fabric, net::NodeId node,
                      net::PortId port, net::Address directory,
                      TravelAgent::Config cfg);

  [[nodiscard]] TravelAgent& agent() noexcept { return agent_; }
  [[nodiscard]] const TravelAgent& agent() const noexcept { return agent_; }

 protected:
  void on_start() override;
  void on_stop() override;

 private:
  TravelAgent agent_;
};

/// Factory configuration for travel-agent placements.
struct TravelAgentFactoryOptions {
  net::Address directory;
  std::vector<FlightNumber> flights;
  /// Cache-manager knobs for every instance (see TravelAgent::Config).
  core::CacheManager::Config cm_cfg;
  /// Port assigned to the first instance; subsequent instances on any
  /// node get consecutive ports (so several agents may share a node).
  net::PortId first_port = 100;
};

/// Register a factory for component type "air.TravelAgent" (the name
/// used by the §5 scenarios) that instantiates live agents on `fabric`.
void register_travel_agent_factory(psf::Deployer& deployer,
                                   net::Fabric& fabric,
                                   TravelAgentFactoryOptions options);

}  // namespace flecc::airline

#include "psf/planner.hpp"

#include <sstream>

namespace flecc::psf {

std::optional<DeploymentPlan> Planner::plan(const ServiceRequest& req) const {
  const auto& route = env_.topology().route(req.client, req.origin);
  if (!route.has_value()) return std::nullopt;

  DeploymentPlan out;
  out.request = req;
  out.path = route->links;
  out.expected_latency = route->latency;

  // Privacy: wrap every insecure link on the path with an
  // encryptor/decryptor pair at its two ends (the secure-email example
  // of §3.1 and the transaction-privacy QoS of §5.1).
  if (req.privacy_required) {
    for (const net::LinkId link : route->links) {
      const net::LinkSpec& spec = env_.topology().link(link);
      if (spec.secure) continue;
      const auto [a, b] = env_.topology().link_ends(link);
      out.placements.push_back(Placement{kEncryptorComponent, a});
      out.placements.push_back(Placement{kDecryptorComponent, b});
    }
  }

  // Latency: if the direct path misses the budget, deploy a view at the
  // client's node (the "cache component placed close to a client" of
  // §3.1 / the travel agent of §5.1).
  if (route->latency > req.max_latency) {
    if (!req.allow_local_view || req.view_component.empty()) {
      return std::nullopt;
    }
    out.uses_local_view = true;
    out.placements.push_back(Placement{req.view_component, req.client});
    out.expected_latency = 0;  // local access
  }
  return out;
}

std::string DeploymentPlan::to_string(const Environment& env) const {
  std::ostringstream os;
  os << "plan: client=" << env.topology().node(request.client).name
     << " origin=" << env.topology().node(request.origin).name
     << " latency=" << expected_latency << "us"
     << (uses_local_view ? " (local view)" : "") << "\n";
  for (const auto& p : placements) {
    os << "  place " << p.component << " @ "
       << env.topology().node(p.node).name << "\n";
  }
  os << "  path:";
  for (const auto link : path) {
    const auto [a, b] = env.topology().link_ends(link);
    os << " " << env.topology().node(a).name << "-"
       << env.topology().node(b).name
       << (env.topology().link(link).secure ? "" : "(insecure)");
  }
  os << "\n";
  return os.str();
}

}  // namespace flecc::psf

// The simulated network graph: nodes and attributed links.
//
// Links carry latency (one-way propagation), bandwidth (bytes per
// simulated microsecond), a `secure` flag (used by the PSF planner to
// decide where encryptor pairs are needed), and an `up` flag (fault
// injection). Routing picks the minimum-latency path (Dijkstra); the
// route cache is invalidated by any topology mutation.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "sim/time.hpp"

namespace flecc::net {

using LinkId = std::uint32_t;

struct LinkSpec {
  sim::Duration latency = sim::usec(100);  // one-way propagation delay
  double bandwidth_bytes_per_us = 1000.0;  // ~1 GB/s default
  bool secure = true;
  bool up = true;
};

struct NodeSpec {
  std::string name;
  /// Free-form attributes consumed by the PSF planner ("domain", ...).
  std::map<std::string, std::string> attrs;
};

struct Route {
  std::vector<LinkId> links;     // links traversed, in order
  sim::Duration latency = 0;     // summed propagation latency
  double min_bandwidth = 0.0;    // bottleneck bandwidth along the path
  bool all_secure = true;        // every traversed link is secure
};

class Topology {
 public:
  /// Add a node; returns its id (dense, starting at 0).
  NodeId add_node(std::string name = {},
                  std::map<std::string, std::string> attrs = {});

  /// Add a bidirectional link between two existing nodes.
  LinkId add_link(NodeId a, NodeId b, LinkSpec spec = {});

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t link_count() const noexcept {
    return links_.size();
  }

  [[nodiscard]] const NodeSpec& node(NodeId id) const;
  [[nodiscard]] const LinkSpec& link(LinkId id) const;
  [[nodiscard]] std::pair<NodeId, NodeId> link_ends(LinkId id) const;

  /// Mutators (invalidate the route cache).
  void set_link_up(LinkId id, bool up);
  void set_link_secure(LinkId id, bool secure);
  void set_link_latency(LinkId id, sim::Duration latency);

  /// Minimum-latency route between two nodes over `up` links.
  /// nullopt if the nodes are disconnected. src == dst yields an empty
  /// route with zero latency and infinite bandwidth.
  ///
  /// The result is a reference into the route cache, valid until the
  /// next mutation of this topology (add_node, add_link or a set_link_*
  /// call); copy it to keep it longer.
  [[nodiscard]] const std::optional<Route>& route(NodeId src,
                                                  NodeId dst) const;

  /// Convenience: end-to-end delay for a message of `bytes` along the
  /// route: propagation + bottleneck transmission time.
  [[nodiscard]] static sim::Duration transfer_delay(const Route& r,
                                                    std::size_t bytes);

  /// Build a single-switch LAN: `n` hosts, all pairs connected through a
  /// hub node (added last). Returns the host ids.
  static Topology lan(std::size_t n, LinkSpec host_link = {},
                      std::vector<NodeId>* hosts_out = nullptr);

 private:
  struct Edge {
    NodeId peer;
    LinkId link;
  };

  std::vector<NodeSpec> nodes_;
  std::vector<LinkSpec> links_;
  std::vector<std::pair<NodeId, NodeId>> link_ends_;
  std::vector<std::vector<Edge>> adjacency_;
  mutable std::map<std::pair<NodeId, NodeId>, std::optional<Route>>
      route_cache_;
};

}  // namespace flecc::net

#include "net/topology.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <utility>

namespace flecc::net {

NodeId Topology::add_node(std::string name,
                          std::map<std::string, std::string> attrs) {
  const auto id = static_cast<NodeId>(nodes_.size());
  if (name.empty()) name = "node" + std::to_string(id);
  nodes_.push_back(NodeSpec{std::move(name), std::move(attrs)});
  adjacency_.emplace_back();
  route_cache_.clear();
  return id;
}

LinkId Topology::add_link(NodeId a, NodeId b, LinkSpec spec) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw std::out_of_range("Topology::add_link: unknown node");
  }
  if (a == b) {
    throw std::invalid_argument("Topology::add_link: self link");
  }
  if (spec.latency < 0 || spec.bandwidth_bytes_per_us <= 0.0) {
    throw std::invalid_argument("Topology::add_link: bad link spec");
  }
  const auto id = static_cast<LinkId>(links_.size());
  links_.push_back(spec);
  link_ends_.emplace_back(a, b);
  adjacency_[a].push_back(Edge{b, id});
  adjacency_[b].push_back(Edge{a, id});
  route_cache_.clear();
  return id;
}

const NodeSpec& Topology::node(NodeId id) const { return nodes_.at(id); }
const LinkSpec& Topology::link(LinkId id) const { return links_.at(id); }

std::pair<NodeId, NodeId> Topology::link_ends(LinkId id) const {
  return link_ends_.at(id);
}

void Topology::set_link_up(LinkId id, bool up) {
  links_.at(id).up = up;
  route_cache_.clear();
}

void Topology::set_link_secure(LinkId id, bool secure) {
  links_.at(id).secure = secure;
  route_cache_.clear();
}

void Topology::set_link_latency(LinkId id, sim::Duration latency) {
  if (latency < 0) {
    throw std::invalid_argument("Topology::set_link_latency: negative");
  }
  links_.at(id).latency = latency;
  route_cache_.clear();
}

const std::optional<Route>& Topology::route(NodeId src, NodeId dst) const {
  if (src >= nodes_.size() || dst >= nodes_.size()) {
    throw std::out_of_range("Topology::route: unknown node");
  }
  if (src == dst) {
    static const std::optional<Route> local =
        Route{{}, 0, std::numeric_limits<double>::infinity(), true};
    return local;
  }
  const auto key = std::make_pair(src, dst);
  if (auto it = route_cache_.find(key); it != route_cache_.end()) {
    return it->second;
  }

  // Dijkstra over latency.
  constexpr sim::Duration kInf = sim::kTimeInfinity;
  std::vector<sim::Duration> dist(nodes_.size(), kInf);
  std::vector<std::optional<Edge>> prev(nodes_.size());
  using QEntry = std::pair<sim::Duration, NodeId>;
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
  dist[src] = 0;
  pq.emplace(0, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[u]) continue;
    if (u == dst) break;
    for (const Edge& e : adjacency_[u]) {
      const LinkSpec& ls = links_[e.link];
      if (!ls.up) continue;
      const sim::Duration nd = d + ls.latency;
      if (nd < dist[e.peer]) {
        dist[e.peer] = nd;
        prev[e.peer] = Edge{u, e.link};
        pq.emplace(nd, e.peer);
      }
    }
  }

  std::optional<Route> result;
  if (dist[dst] != kInf) {
    Route r;
    r.latency = dist[dst];
    r.min_bandwidth = std::numeric_limits<double>::infinity();
    r.all_secure = true;
    for (NodeId at = dst; at != src;) {
      const Edge& back = *prev[at];
      r.links.push_back(back.link);
      const LinkSpec& ls = links_[back.link];
      r.min_bandwidth = std::min(r.min_bandwidth, ls.bandwidth_bytes_per_us);
      r.all_secure = r.all_secure && ls.secure;
      at = back.peer;
    }
    std::reverse(r.links.begin(), r.links.end());
    result = std::move(r);
  }
  return route_cache_.emplace(key, std::move(result)).first->second;
}

sim::Duration Topology::transfer_delay(const Route& r, std::size_t bytes) {
  if (r.links.empty()) return 0;  // local delivery
  const double tx =
      static_cast<double>(bytes) / r.min_bandwidth;  // microseconds
  return r.latency + static_cast<sim::Duration>(tx);
}

Topology Topology::lan(std::size_t n, LinkSpec host_link,
                       std::vector<NodeId>* hosts_out) {
  Topology t;
  std::vector<NodeId> hosts;
  hosts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    hosts.push_back(t.add_node("host" + std::to_string(i)));
  }
  const NodeId hub = t.add_node("switch");
  for (const NodeId h : hosts) {
    // Each host-switch hop contributes half the desired host-to-host
    // latency so pairs see `host_link.latency` end to end.
    LinkSpec half = host_link;
    half.latency = host_link.latency / 2;
    t.add_link(h, hub, half);
  }
  if (hosts_out != nullptr) *hosts_out = std::move(hosts);
  return t;
}

}  // namespace flecc::net

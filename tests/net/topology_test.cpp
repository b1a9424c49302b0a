#include "net/topology.hpp"

#include <gtest/gtest.h>

namespace flecc::net {
namespace {

TEST(TopologyTest, AddNodesAndLinks) {
  Topology t;
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node();
  EXPECT_EQ(t.node_count(), 2u);
  EXPECT_EQ(t.node(a).name, "a");
  EXPECT_EQ(t.node(b).name, "node1");
  const LinkId l = t.add_link(a, b);
  EXPECT_EQ(t.link_count(), 1u);
  EXPECT_EQ(t.link_ends(l), std::make_pair(a, b));
}

TEST(TopologyTest, BadLinksRejected) {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  EXPECT_THROW(t.add_link(a, a), std::invalid_argument);
  EXPECT_THROW(t.add_link(a, 99), std::out_of_range);
  LinkSpec bad;
  bad.latency = -1;
  EXPECT_THROW(t.add_link(a, b, bad), std::invalid_argument);
  bad.latency = 1;
  bad.bandwidth_bytes_per_us = 0.0;
  EXPECT_THROW(t.add_link(a, b, bad), std::invalid_argument);
}

TEST(TopologyTest, RouteToSelfIsEmpty) {
  Topology t;
  const NodeId a = t.add_node();
  const auto r = t.route(a, a);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->links.empty());
  EXPECT_EQ(r->latency, 0);
  EXPECT_TRUE(r->all_secure);
}

TEST(TopologyTest, DisconnectedNodesHaveNoRoute) {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  EXPECT_FALSE(t.route(a, b).has_value());
}

TEST(TopologyTest, PicksMinimumLatencyPath) {
  // a --(10)-- b --(10)-- d ; a --(50)-- d
  Topology t;
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node("b");
  const NodeId d = t.add_node("d");
  LinkSpec fast;
  fast.latency = 10;
  LinkSpec slow;
  slow.latency = 50;
  t.add_link(a, b, fast);
  t.add_link(b, d, fast);
  const LinkId direct = t.add_link(a, d, slow);
  const auto r = t.route(a, d);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->latency, 20);
  EXPECT_EQ(r->links.size(), 2u);

  // Make the 2-hop path worse; the direct link must win now.
  t.set_link_latency(r->links[0], 100);
  const auto r2 = t.route(a, d);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->latency, 50);
  EXPECT_EQ(r2->links, std::vector<LinkId>{direct});
}

// route() hands out a reference into its cache; a mutation must empty
// the cache, so the next call sees the new latency even where the path
// itself does not change.
TEST(TopologyTest, RouteAfterSetLinkLatencyIsNotStale) {
  std::vector<NodeId> hosts;
  Topology t = Topology::lan(2, {}, &hosts);
  const Route before = *t.route(hosts[0], hosts[1]);
  const sim::Duration rest = before.latency - t.link(before.links[0]).latency;
  t.set_link_latency(before.links[0], 500);
  const auto& after = t.route(hosts[0], hosts[1]);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->links, before.links);
  EXPECT_EQ(after->latency, 500 + rest);
}

TEST(TopologyTest, LinkDownForcesReroute) {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  const NodeId c = t.add_node();
  LinkSpec fast;
  fast.latency = 5;
  LinkSpec slow;
  slow.latency = 100;
  const LinkId direct = t.add_link(a, c, fast);
  t.add_link(a, b, slow);
  t.add_link(b, c, slow);
  ASSERT_EQ(t.route(a, c)->latency, 5);
  t.set_link_up(direct, false);
  ASSERT_TRUE(t.route(a, c).has_value());
  EXPECT_EQ(t.route(a, c)->latency, 200);
  t.set_link_up(direct, true);
  EXPECT_EQ(t.route(a, c)->latency, 5);
}

TEST(TopologyTest, AllLinksDownMeansNoRoute) {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  const LinkId l = t.add_link(a, b);
  t.set_link_up(l, false);
  EXPECT_FALSE(t.route(a, b).has_value());
}

TEST(TopologyTest, SecurityAndBottleneckTracked) {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  const NodeId c = t.add_node();
  LinkSpec l1;
  l1.latency = 10;
  l1.bandwidth_bytes_per_us = 100.0;
  l1.secure = true;
  LinkSpec l2;
  l2.latency = 10;
  l2.bandwidth_bytes_per_us = 10.0;
  l2.secure = false;
  t.add_link(a, b, l1);
  t.add_link(b, c, l2);
  const auto r = t.route(a, c);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->all_secure);
  EXPECT_DOUBLE_EQ(r->min_bandwidth, 10.0);
}

TEST(TopologyTest, TransferDelayAddsTransmission) {
  Route r;
  r.links = {0};
  r.latency = 100;
  r.min_bandwidth = 10.0;  // bytes per us
  EXPECT_EQ(Topology::transfer_delay(r, 1000), 100 + 100);
  // Local (empty) route is free.
  Route local;
  EXPECT_EQ(Topology::transfer_delay(local, 1 << 20), 0);
}

TEST(TopologyTest, SetLinkLatencyValidates) {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  const LinkId l = t.add_link(a, b);
  EXPECT_THROW(t.set_link_latency(l, -5), std::invalid_argument);
  t.set_link_latency(l, 123);
  EXPECT_EQ(t.link(l).latency, 123);
}

TEST(TopologyTest, LanBuilderConnectsAllPairs) {
  std::vector<NodeId> hosts;
  LinkSpec spec;
  spec.latency = 200;
  const Topology t = Topology::lan(4, spec, &hosts);
  ASSERT_EQ(hosts.size(), 4u);
  EXPECT_EQ(t.node_count(), 5u);  // +1 switch
  for (const NodeId h1 : hosts) {
    for (const NodeId h2 : hosts) {
      if (h1 == h2) continue;
      const auto r = t.route(h1, h2);
      ASSERT_TRUE(r.has_value());
      EXPECT_EQ(r->latency, 200);  // two half-latency hops
    }
  }
}

class LanSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LanSizeTest, EveryHostReachesEveryOther) {
  std::vector<NodeId> hosts;
  const Topology t = Topology::lan(GetParam(), LinkSpec{}, &hosts);
  EXPECT_EQ(hosts.size(), GetParam());
  for (const NodeId h : hosts) {
    EXPECT_TRUE(t.route(h, hosts[0]).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LanSizeTest,
                         ::testing::Values(1u, 2u, 10u, 101u));

}  // namespace
}  // namespace flecc::net

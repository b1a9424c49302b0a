#include "net/sim_fabric.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace flecc::net {
namespace {

struct Recorder : Endpoint {
  std::vector<Message> received;
  std::vector<sim::Time> at;
  sim::Simulator* sim = nullptr;
  void on_message(const Message& m) override {
    received.push_back(m);
    if (sim != nullptr) at.push_back(sim->now());
  }
};

struct Fixture : ::testing::Test {
  Fixture() {
    std::vector<NodeId> hosts;
    LinkSpec spec;
    spec.latency = 100;
    spec.bandwidth_bytes_per_us = 1000.0;
    auto topo = Topology::lan(2, spec, &hosts);
    SimFabric::Config cfg;
    cfg.per_message_overhead = 0;
    fabric = std::make_unique<SimFabric>(sim, std::move(topo), cfg);
    a = Address{hosts[0], 1};
    b = Address{hosts[1], 1};
  }

  sim::Simulator sim;
  std::unique_ptr<SimFabric> fabric;
  Address a, b;
};

TEST_F(Fixture, DeliversWithLatency) {
  Recorder rb;
  rb.sim = &sim;
  fabric->bind(b, rb);
  fabric->send(a, b, "test.hello", std::string("payload"), 100);
  sim.run();
  ASSERT_EQ(rb.received.size(), 1u);
  EXPECT_EQ(rb.received[0].type, "test.hello");
  EXPECT_EQ(rb.received[0].from, a);
  EXPECT_EQ(rb.received[0].to, b);
  EXPECT_EQ(payload_as<std::string>(rb.received[0]), "payload");
  // 100us propagation + 100B / 1000B-per-us = 100us + 0us (integer).
  EXPECT_EQ(rb.at[0], 100);
}

TEST_F(Fixture, LocalDeliveryStillAsync) {
  Recorder ra;
  fabric->bind(a, ra);
  const Address a2{a.node, 2};
  fabric->send(a2, a, "test.local", 0, 8);
  EXPECT_TRUE(ra.received.empty());  // not synchronous
  sim.run();
  EXPECT_EQ(ra.received.size(), 1u);
}

TEST_F(Fixture, OrderPreservedBetweenPair) {
  Recorder rb;
  fabric->bind(b, rb);
  for (int i = 0; i < 5; ++i) {
    fabric->send(a, b, "test.seq", i, 10);
  }
  sim.run();
  ASSERT_EQ(rb.received.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(payload_as<int>(rb.received[static_cast<size_t>(i)]), i);
  }
}

TEST_F(Fixture, BiggerMessagesArriveLater) {
  Recorder rb;
  rb.sim = &sim;
  fabric->bind(b, rb);
  fabric->send(a, b, "test.big", 1, 100000);  // 100us tx at 1000 B/us
  fabric->send(a, b, "test.small", 2, 0);
  sim.run();
  ASSERT_EQ(rb.received.size(), 2u);
  EXPECT_EQ(payload_as<int>(rb.received[0]), 2);  // small overtakes
  EXPECT_EQ(payload_as<int>(rb.received[1]), 1);
  EXPECT_EQ(rb.at[1] - rb.at[0], 100);
}

TEST_F(Fixture, UnboundDestinationCounted) {
  fabric->send(a, b, "test.void", 0, 10);
  sim.run();
  EXPECT_EQ(fabric->counters().get("msg.dropped.unbound"), 1u);
  EXPECT_EQ(fabric->delivered_count(), 0u);
  EXPECT_EQ(fabric->sent_count(), 1u);
}

TEST_F(Fixture, UnbindDropsInFlight) {
  Recorder rb;
  fabric->bind(b, rb);
  fabric->send(a, b, "test.x", 0, 10);
  fabric->unbind(b);
  sim.run();
  EXPECT_TRUE(rb.received.empty());
  EXPECT_EQ(fabric->counters().get("msg.dropped.unbound"), 1u);
}

TEST_F(Fixture, DoubleBindThrows) {
  Recorder r1, r2;
  fabric->bind(a, r1);
  EXPECT_THROW(fabric->bind(a, r2), std::logic_error);
}

TEST_F(Fixture, CountersTrackTypesAndBytes) {
  Recorder rb;
  fabric->bind(b, rb);
  fabric->send(a, b, "t.one", 0, 10);
  fabric->send(a, b, "t.one", 0, 30);
  fabric->send(a, b, "t.two", 0, 5);
  sim.run();
  const auto& c = fabric->counters();
  EXPECT_EQ(c.get("msg.sent.t.one"), 2u);
  EXPECT_EQ(c.get("msg.sent.t.two"), 1u);
  EXPECT_EQ(c.get("msg.sent"), 3u);
  EXPECT_EQ(c.get("bytes.sent"), 45u);
  EXPECT_EQ(c.get("msg.delivered"), 3u);
  EXPECT_EQ(fabric->delivered_count(), 3u);
}

TEST_F(Fixture, NoRouteCounted) {
  // An isolated extra node.
  sim::Simulator s2;
  Topology topo;
  const NodeId n0 = topo.add_node();
  const NodeId n1 = topo.add_node();  // never linked
  SimFabric f2(s2, std::move(topo));
  Recorder r;
  f2.bind(Address{n1, 1}, r);
  f2.send(Address{n0, 1}, Address{n1, 1}, "t.x", 0, 1);
  s2.run();
  EXPECT_TRUE(r.received.empty());
  EXPECT_EQ(f2.counters().get("msg.dropped.no_route"), 1u);
}

TEST_F(Fixture, LossInjectionIsDeterministic) {
  Recorder rb;
  fabric->bind(b, rb);
  fabric->set_loss_probability(0.5);
  for (int i = 0; i < 100; ++i) fabric->send(a, b, "t.lossy", i, 1);
  sim.run();
  const auto delivered = rb.received.size();
  EXPECT_GT(delivered, 20u);
  EXPECT_LT(delivered, 80u);
  EXPECT_EQ(fabric->counters().get("msg.dropped.loss"), 100u - delivered);
}

TEST_F(Fixture, TimersFireOnSchedule) {
  int fired = 0;
  fabric->schedule(a, 500, [&] { ++fired; });
  const auto id = fabric->schedule(a, 600, [&] { ++fired; });
  EXPECT_TRUE(fabric->cancel_timer(id));
  sim.run();
  EXPECT_EQ(fired, 1);
  // The cancelled timer never executes; the clock stops at the last
  // executed event.
  EXPECT_EQ(sim.now(), 500);
}

TEST_F(Fixture, TraceHookSeesDeliveries) {
  Recorder rb;
  fabric->bind(b, rb);
  std::vector<TraceEntry> seen;
  fabric->set_trace_hook([&](const TraceEntry& e) { seen.push_back(e); });
  fabric->send(a, b, "t.traced", 0, 64);
  sim.run();
  ASSERT_EQ(seen.size(), 1u);
  const auto& e = seen[0];
  EXPECT_EQ(e.type, "t.traced");
  EXPECT_EQ(e.bytes, 64u);
  EXPECT_EQ(e.from, a);
  EXPECT_EQ(e.to, b);
  EXPECT_EQ(e.sent_at, 0);
  EXPECT_GT(e.delivered_at, 0);

  fabric->set_trace_hook(nullptr);  // detached: nothing more is seen
  fabric->send(a, b, "t.untraced", 0, 8);
  sim.run();
  EXPECT_EQ(seen.size(), 1u);
  EXPECT_EQ(rb.received.size(), 2u);
}

TEST_F(Fixture, PartitionBlocksCrossTrafficBothWays) {
  Recorder ra, rb;
  fabric->bind(a, ra);
  fabric->bind(b, rb);
  fabric->partition({a}, {b});
  EXPECT_TRUE(fabric->partitioned());

  fabric->send(a, b, "t.ab", 0, 8);
  fabric->send(b, a, "t.ba", 0, 8);
  sim.run();
  EXPECT_TRUE(ra.received.empty());
  EXPECT_TRUE(rb.received.empty());
  EXPECT_EQ(fabric->counters().get("msg.dropped.partition"), 2u);
}

TEST_F(Fixture, PartitionAllowsSameSideTraffic) {
  // Two endpoints on node a's host are on the same side of the cut.
  Recorder ra2;
  const Address a2{a.node, 2};
  fabric->bind(a2, ra2);
  fabric->partition({a}, {b});

  fabric->send(a, a2, "t.same_side", 0, 8);
  sim.run();
  EXPECT_EQ(ra2.received.size(), 1u);
  EXPECT_EQ(fabric->counters().get("msg.dropped.partition"), 0u);
}

TEST_F(Fixture, HealRestoresDelivery) {
  Recorder rb;
  fabric->bind(b, rb);
  fabric->partition({a}, {b});
  fabric->send(a, b, "t.lost", 0, 8);
  sim.run();
  EXPECT_TRUE(rb.received.empty());

  fabric->heal();
  EXPECT_FALSE(fabric->partitioned());
  fabric->send(a, b, "t.after_heal", 0, 8);
  sim.run();
  ASSERT_EQ(rb.received.size(), 1u);
  EXPECT_EQ(rb.received[0].type, "t.after_heal");
}

TEST_F(Fixture, RepartitionReplacesPreviousCut) {
  Recorder ra, rb;
  fabric->bind(a, ra);
  fabric->bind(b, rb);
  fabric->partition({a}, {b});
  // A second call replaces the cut (it does not accumulate).
  fabric->partition({b}, {a});
  fabric->send(a, b, "t.still_cut", 0, 8);
  sim.run();
  EXPECT_TRUE(rb.received.empty());
  EXPECT_EQ(fabric->counters().get("msg.dropped.partition"), 1u);
}

}  // namespace
}  // namespace flecc::net

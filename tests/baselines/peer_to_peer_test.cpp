#include "baselines/peer_to_peer.hpp"

#include <gtest/gtest.h>

#include "net/sim_fabric.hpp"
#include "sim/simulator.hpp"

namespace flecc::baselines {
namespace {

/// A commutative-counter application: local increments become delta
/// images; applying a delta adds into the shared counters.
class CounterPeerApp : public PeerAdapter {
 public:
  void increment(std::int64_t cell, std::int64_t by = 1) {
    pending_[cell] += by;
    counters_[cell] += by;
  }
  [[nodiscard]] std::int64_t value(std::int64_t cell) const {
    auto it = counters_.find(cell);
    return it == counters_.end() ? 0 : it->second;
  }

  [[nodiscard]] core::ObjectImage extract_update() override {
    core::ObjectImage img;
    for (const auto& [cell, delta] : pending_) {
      if (delta != 0) img.set_int("inc." + std::to_string(cell), delta);
    }
    pending_.clear();
    return img;
  }
  void apply_update(const core::ObjectImage& delta) override {
    for (const auto& [key, value] : delta) {
      if (key.rfind("inc.", 0) == 0) {
        counters_[std::stoll(key.substr(4))] += value;
      }
    }
  }

 private:
  std::map<std::int64_t, std::int64_t> counters_;
  std::map<std::int64_t, std::int64_t> pending_;
};

props::PropertySet cells(std::int64_t lo, std::int64_t hi) {
  props::PropertySet ps;
  ps.set("Cells", props::Domain::interval(lo, hi));
  return ps;
}

struct P2pFixture : ::testing::Test {
  P2pFixture() {
    std::vector<net::NodeId> hosts;
    auto topo = net::Topology::lan(4, net::LinkSpec{}, &hosts);
    fabric = std::make_unique<net::SimFabric>(sim, std::move(topo));
    // Peers 0 and 1 share [0,9]; peer 2 is disjoint at [50,59].
    const std::int64_t ranges[3][2] = {{0, 9}, {0, 9}, {50, 59}};
    for (int i = 0; i < 3; ++i) {
      apps.push_back(std::make_unique<CounterPeerApp>());
      Peer::Config cfg;
      cfg.name = "peer" + std::to_string(i);
      cfg.properties = cells(ranges[i][0], ranges[i][1]);
      peers.push_back(std::make_unique<Peer>(
          *fabric, net::Address{hosts[static_cast<size_t>(i)], 1},
          *apps.back(), cfg));
    }
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        if (i == j) continue;
        peers[static_cast<size_t>(i)]->add_peer(
            net::Address{hosts[static_cast<size_t>(j)], 1},
            cells(ranges[j][0], ranges[j][1]));
      }
    }
  }

  sim::Simulator sim;
  std::unique_ptr<net::SimFabric> fabric;
  std::vector<std::unique_ptr<CounterPeerApp>> apps;
  std::vector<std::unique_ptr<Peer>> peers;
};

TEST_F(P2pFixture, ConflictFilteringAtWiring) {
  EXPECT_EQ(peers[0]->peer_count(), 2u);
  EXPECT_EQ(peers[0]->conflicting_peer_count(), 1u);  // only peer 1
  EXPECT_EQ(peers[2]->conflicting_peer_count(), 0u);
}

TEST_F(P2pFixture, OperationsExchangeUnseenUpdates) {
  bool done = false;
  peers[0]->do_operation([this] { apps[0]->increment(3, 5); },
                         [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(apps[1]->value(3), 0);  // push-less design: 1 hasn't synced

  // Peer 1's next operation pulls peer 0's update.
  std::int64_t seen = -1;
  peers[1]->do_operation([this, &seen] { seen = apps[1]->value(3); }, {});
  sim.run();
  EXPECT_EQ(seen, 5);
  EXPECT_EQ(apps[1]->value(3), 5);
}

TEST_F(P2pFixture, EntriesApplyExactlyOnce) {
  peers[0]->do_operation([this] { apps[0]->increment(1, 2); }, {});
  sim.run();
  for (int round = 0; round < 4; ++round) {
    peers[1]->do_operation([] {}, {});
    sim.run();
  }
  // Repeated syncs must not re-apply the same log entries.
  EXPECT_EQ(apps[1]->value(1), 2);
  EXPECT_EQ(peers[1]->stats().get("sync.entries_applied"), 1u);
}

TEST_F(P2pFixture, ConcurrentCountersConverge) {
  for (int op = 0; op < 5; ++op) {
    peers[0]->do_operation([this] { apps[0]->increment(7, 1); }, {});
    peers[1]->do_operation([this] { apps[1]->increment(7, 1); }, {});
  }
  sim.run();
  // One more sync each so both have seen everything.
  peers[0]->do_operation([] {}, {});
  peers[1]->do_operation([] {}, {});
  sim.run();
  EXPECT_EQ(apps[0]->value(7), 10);
  EXPECT_EQ(apps[1]->value(7), 10);
}

TEST_F(P2pFixture, DisjointPeersNeverContacted) {
  const auto before = fabric->counters().get("msg.sent.p2p.sync_req");
  peers[2]->do_operation([this] { apps[2]->increment(55, 1); }, {});
  sim.run();
  EXPECT_EQ(fabric->counters().get("msg.sent.p2p.sync_req"), before);
  // And nobody ever asks peer 2 either.
  peers[0]->do_operation([] {}, {});
  sim.run();
  EXPECT_EQ(peers[2]->stats().get("sync.req_served"), 0u);
}

TEST_F(P2pFixture, CrashedPeerTimesOut) {
  fabric->unbind(net::Address{1, 1});  // peer 1 crashes silently
  bool done = false;
  peers[0]->do_operation([] {}, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_GE(peers[0]->stats().get("sync.timeout"), 1u);
}

TEST_F(P2pFixture, OperationsQueueFifo) {
  std::vector<int> order;
  peers[0]->do_operation([&] { order.push_back(1); }, {});
  peers[0]->do_operation([&] { order.push_back(2); }, {});
  peers[0]->do_operation([&] { order.push_back(3); }, {});
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(P2pFixture, LogGrowsOnlyOnRealUpdates) {
  peers[0]->do_operation([] {}, {});  // no mutation
  sim.run();
  EXPECT_EQ(peers[0]->log_size(), 0u);
  peers[0]->do_operation([this] { apps[0]->increment(0, 1); }, {});
  sim.run();
  EXPECT_EQ(peers[0]->log_size(), 1u);
}

}  // namespace
}  // namespace flecc::baselines

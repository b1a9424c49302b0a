// Reproduces the Figure-2 scenario of the paper: an original component C
// with property P = {x, y, z} and two strong-mode views V1 (P = {x, y})
// and V2 (P = {x, z}). V2's activation must invalidate V1, keeping a
// single active view among conflicting ones (one-copy serializability).
#include <gtest/gtest.h>

#include "core/cache_manager.hpp"
#include "core/directory_manager.hpp"
#include "net/sim_fabric.hpp"
#include "sim/simulator.hpp"

namespace flecc::core {
namespace {

/// The component's shared data: named slots x, y, z.
class SlotPrimary : public PrimaryAdapter {
 public:
  [[nodiscard]] ObjectImage extract_from_object(
      const props::PropertySet& vpl) const override {
    ObjectImage img;
    const props::Domain* scope = vpl.find("P");
    for (const auto& [slot, value] : slots_) {
      if (scope != nullptr && !scope->contains(props::Value{slot})) continue;
      img.set_int("slot." + slot, value);
    }
    return img;
  }
  void merge_into_object(const ObjectImage& image,
                         const props::PropertySet&) override {
    for (const auto& [key, value] : image) {
      if (key.rfind("slot.", 0) == 0) slots_[key.substr(5)] = value;
    }
  }
  [[nodiscard]] props::PropertySet data_properties() const override {
    props::PropertySet ps;
    ps.set("P", props::Domain::discrete({props::Value{std::string{"x"}},
                                         props::Value{std::string{"y"}},
                                         props::Value{std::string{"z"}}}));
    return ps;
  }
  [[nodiscard]] std::int64_t slot(const std::string& s) const {
    auto it = slots_.find(s);
    return it == slots_.end() ? 0 : it->second;
  }

 private:
  std::map<std::string, std::int64_t> slots_{{"x", 0}, {"y", 0}, {"z", 0}};
};

class SlotView : public ViewAdapter {
 public:
  explicit SlotView(std::vector<std::string> slots)
      : mine_(std::move(slots)) {}

  void write(const std::string& slot, std::int64_t v) { local_[slot] = v; }
  [[nodiscard]] std::int64_t read(const std::string& slot) const {
    auto it = local_.find(slot);
    return it == local_.end() ? 0 : it->second;
  }

  [[nodiscard]] props::PropertySet properties() const {
    std::set<props::Value> values;
    for (const auto& s : mine_) values.insert(props::Value{s});
    props::PropertySet ps;
    ps.set("P", props::Domain::discrete(std::move(values)));
    return ps;
  }

  [[nodiscard]] ObjectImage extract_from_view(
      const props::PropertySet&) override {
    ObjectImage img;
    for (const auto& [slot, value] : local_) {
      img.set_int("slot." + slot, value);
    }
    return img;
  }
  void merge_into_view(const ObjectImage& image,
                       const props::PropertySet&) override {
    for (const auto& [key, value] : image) {
      if (key.rfind("slot.", 0) == 0) local_[key.substr(5)] = value;
    }
  }
  [[nodiscard]] const trigger::Env& variables() const override {
    return vars_;
  }

 private:
  std::vector<std::string> mine_;
  std::map<std::string, std::int64_t> local_;
  trigger::VariableStore vars_;
};

struct Figure2 : ::testing::Test {
  Figure2() {
    std::vector<net::NodeId> hosts;
    auto topo = net::Topology::lan(3, net::LinkSpec{}, &hosts);
    fabric = std::make_unique<net::SimFabric>(sim, std::move(topo));
    dir_addr = net::Address{hosts[2], 1};
    directory = std::make_unique<DirectoryManager>(*fabric, dir_addr, primary);

    CacheManager::Config cfg1;
    cfg1.view_name = "fig2.View1";
    cfg1.properties = v1_view.properties();
    cfg1.mode = Mode::kStrong;
    cm1 = std::make_unique<CacheManager>(*fabric, net::Address{hosts[0], 1},
                                         dir_addr, v1_view, cfg1);

    CacheManager::Config cfg2;
    cfg2.view_name = "fig2.View2";
    cfg2.properties = v2_view.properties();
    cfg2.mode = Mode::kStrong;
    cm2 = std::make_unique<CacheManager>(*fabric, net::Address{hosts[1], 1},
                                         dir_addr, v2_view, cfg2);
  }

  /// Messages of `type` delivered so far.
  std::size_t count_type(const std::string& type) const {
    return static_cast<std::size_t>(
        fabric->counters().get("msg.delivered." + type));
  }

  sim::Simulator sim;
  std::unique_ptr<net::SimFabric> fabric;
  SlotPrimary primary;
  net::Address dir_addr;
  std::unique_ptr<DirectoryManager> directory;
  SlotView v1_view{{"x", "y"}};
  SlotView v2_view{{"x", "z"}};
  std::unique_ptr<CacheManager> cm1, cm2;
};

TEST_F(Figure2, ViewsConflictViaPropertyIntersection) {
  sim.run();
  ASSERT_TRUE(cm1->registered());
  ASSERT_TRUE(cm2->registered());
  // V1 ∩ V2 = {x} ≠ ∅ ⇒ dynConfl = 1 (Definitions 1-3).
  EXPECT_TRUE(directory->conflicts(cm1->id(), cm2->id()));
}

TEST_F(Figure2, SecondActivationInvalidatesFirst) {
  // Steps 1-7: V1 activates and works on the data.
  primary.merge_into_object(
      [] {
        ObjectImage img;
        img.set_int("slot.x", 10);
        img.set_int("slot.y", 20);
        img.set_int("slot.z", 30);
        return img;
      }(),
      props::PropertySet{});

  cm1->start_use_image();
  sim.run();
  ASSERT_TRUE(cm1->in_use());
  EXPECT_TRUE(directory->is_exclusive(cm1->id()));
  EXPECT_EQ(v1_view.read("x"), 10);
  EXPECT_EQ(v1_view.read("y"), 20);
  v1_view.write("x", 11);
  cm1->end_use_image(true);

  // Steps 8-19: V2 asks for the data; the directory invalidates V1,
  // merges its updates, and only then grants V2.
  bool v2_active = false;
  cm2->start_use_image([&] { v2_active = true; });
  sim.run();
  EXPECT_TRUE(v2_active);
  EXPECT_TRUE(directory->is_exclusive(cm2->id()));
  EXPECT_FALSE(directory->is_active(cm1->id()));
  EXPECT_FALSE(cm1->valid());
  // V1's update to x flowed through the primary into V2's fresh image.
  EXPECT_EQ(primary.slot("x"), 11);
  EXPECT_EQ(v2_view.read("x"), 11);
  EXPECT_EQ(v2_view.read("z"), 30);
  // The invalidation handshake is on the wire (Fig. 2 steps 12-13).
  EXPECT_EQ(count_type(msg::kInvalidateReq), 1u);
  EXPECT_EQ(count_type(msg::kInvalidateAck), 1u);
  cm2->end_use_image(false);
}

TEST_F(Figure2, InvalidationWaitsForMutualExclusionSection) {
  cm1->start_use_image();
  sim.run();
  ASSERT_TRUE(cm1->in_use());
  v1_view.write("y", 99);

  bool v2_active = false;
  cm2->start_use_image([&] { v2_active = true; });
  // Bounded run: a full run() would eventually fire the directory's
  // crash-protection invalidation timeout.
  sim.run_until(sim.now() + sim::msec(100));
  // V1 is inside startUse/endUse: the invalidation must be deferred
  // (§4.2: no merge/extract while the view works on the data).
  EXPECT_FALSE(v2_active);
  EXPECT_TRUE(cm1->in_use());
  EXPECT_GE(cm1->stats().get("invalidate.deferred"), 1u);

  cm1->end_use_image(true);
  sim.run();
  EXPECT_TRUE(v2_active);
  EXPECT_EQ(primary.slot("y"), 99);
}

TEST_F(Figure2, AlternatingOwnershipNeverOverlaps) {
  // Ping-pong activation; at every grant exactly one view is exclusive.
  for (int round = 0; round < 5; ++round) {
    bool done1 = false;
    cm1->start_use_image([&] { done1 = true; });
    sim.run();
    ASSERT_TRUE(done1);
    EXPECT_TRUE(directory->is_exclusive(cm1->id()));
    EXPECT_FALSE(directory->is_exclusive(cm2->id()));
    cm1->end_use_image(false);

    bool done2 = false;
    cm2->start_use_image([&] { done2 = true; });
    sim.run();
    ASSERT_TRUE(done2);
    EXPECT_TRUE(directory->is_exclusive(cm2->id()));
    EXPECT_FALSE(directory->is_exclusive(cm1->id()));
    cm2->end_use_image(false);
  }
}

TEST_F(Figure2, TeardownFollowsSteps20And21) {
  cm1->start_use_image();
  sim.run();
  v1_view.write("x", 5);
  cm1->end_use_image(true);
  bool killed = false;
  cm1->kill_image([&] { killed = true; });
  sim.run();
  EXPECT_TRUE(killed);
  EXPECT_EQ(primary.slot("x"), 5);
  EXPECT_EQ(count_type(msg::kKillReq), 1u);
  EXPECT_EQ(count_type(msg::kKillAck), 1u);
}

TEST_F(Figure2, NonOverlappingViewsWouldNotConflict) {
  // Control: replace V2's property set with {z} only — no conflict, so
  // activation does not invalidate V1.
  SlotView v3_view{{"z"}};
  CacheManager::Config cfg;
  cfg.view_name = "fig2.View3";
  cfg.properties = v3_view.properties();
  cfg.mode = Mode::kStrong;
  const net::NodeId extra = fabric->topology().add_node();
  const net::NodeId hub =
      static_cast<net::NodeId>(3);  // lan(3) puts the switch at index 3
  fabric->topology().add_link(extra, hub, net::LinkSpec{});
  CacheManager cm3(*fabric, net::Address{extra, 1}, dir_addr, v3_view, cfg);

  cm1->start_use_image();
  sim.run();
  ASSERT_TRUE(cm1->in_use());

  bool v3_active = false;
  cm3.start_use_image([&] { v3_active = true; });
  sim.run();
  EXPECT_TRUE(v3_active);  // granted without touching V1
  EXPECT_TRUE(cm1->in_use());
  EXPECT_TRUE(directory->is_exclusive(cm1->id()));
  EXPECT_TRUE(directory->is_exclusive(cm3.id()));
  EXPECT_EQ(count_type(msg::kInvalidateReq), 0u);
  cm1->end_use_image(false);
  cm3.end_use_image(false);
}

}  // namespace
}  // namespace flecc::core

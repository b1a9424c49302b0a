// Quickstart: the Figure-2 protocol walk-through.
//
// An original component C shares property P = {x, y, z}; two strong-mode
// views V1 (P = {x, y}) and V2 (P = {x, z}) are deployed. We run the
// exact interaction of the paper's Figure 2 and print the annotated
// message trace: registration, initial data, V2's activation forcing
// V1's invalidation, and teardown.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <map>
#include <memory>

#include "core/cache_manager.hpp"
#include "core/directory_manager.hpp"
#include "net/sim_fabric.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace flecc;

/// The component's shared data: three named slots.
class SlotComponent : public core::PrimaryAdapter {
 public:
  [[nodiscard]] core::ObjectImage extract_from_object(
      const props::PropertySet& vpl) const override {
    core::ObjectImage img;
    const props::Domain* scope = vpl.find("P");
    for (const auto& [slot, value] : slots_) {
      if (scope != nullptr && !scope->contains(props::Value{slot})) continue;
      img.set_int("slot." + slot, value);
    }
    return img;
  }
  void merge_into_object(const core::ObjectImage& image,
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
  std::map<std::string, std::int64_t> slots_{{"x", 1}, {"y", 2}, {"z", 3}};
};

class SlotView : public core::ViewAdapter {
 public:
  explicit SlotView(std::set<props::Value> slots) : mine_(std::move(slots)) {}

  void write(const std::string& slot, std::int64_t v) { local_[slot] = v; }
  [[nodiscard]] std::int64_t read(const std::string& slot) const {
    auto it = local_.find(slot);
    return it == local_.end() ? 0 : it->second;
  }
  [[nodiscard]] props::PropertySet properties() const {
    props::PropertySet ps;
    ps.set("P", props::Domain::discrete(mine_));
    return ps;
  }
  [[nodiscard]] core::ObjectImage extract_from_view(
      const props::PropertySet&) override {
    core::ObjectImage img;
    for (const auto& [slot, value] : local_) {
      img.set_int("slot." + slot, value);
    }
    return img;
  }
  void merge_into_view(const core::ObjectImage& image,
                       const props::PropertySet&) override {
    for (const auto& [key, value] : image) {
      if (key.rfind("slot.", 0) == 0) local_[key.substr(5)] = value;
    }
  }
  [[nodiscard]] const trigger::Env& variables() const override {
    return vars_;
  }

 private:
  std::set<props::Value> mine_;
  std::map<std::string, std::int64_t> local_;
  trigger::VariableStore vars_;
};

void banner(const char* text) { std::printf("\n== %s ==\n", text); }

}  // namespace

int main() {
  sim::Simulator simulator;
  std::vector<net::NodeId> hosts;
  net::LinkSpec lan;
  lan.latency = sim::usec(200);
  auto topo = net::Topology::lan(3, lan, &hosts);
  net::SimFabric fabric(simulator, std::move(topo));
  // Print each message as it is delivered: the annotated Figure 2 trace.
  fabric.set_trace_hook([](const net::TraceEntry& e) {
    std::printf("t=%lldus  %s -> %s  %s (%zuB)\n",
                static_cast<long long>(e.delivered_at),
                e.from.to_string().c_str(), e.to.to_string().c_str(),
                e.type.c_str(), e.bytes);
  });

  SlotComponent component;
  const net::Address dir_addr{hosts[2], 1};
  core::DirectoryManager directory(fabric, dir_addr, component);

  std::printf("Flecc quickstart — reproducing the paper's Figure 2\n");
  std::printf("component C: P = {x, y, z};  V1: P = {x, y};  V2: P = {x, z}\n");

  banner("steps 1-5: V1 deploys, registers, and gets the current data");
  SlotView v1({props::Value{std::string{"x"}}, props::Value{std::string{"y"}}});
  core::CacheManager::Config cfg1;
  cfg1.view_name = "quickstart.View1";
  cfg1.properties = v1.properties();
  cfg1.mode = core::Mode::kStrong;
  core::CacheManager cm1(fabric, net::Address{hosts[0], 1}, dir_addr, v1,
                         cfg1);
  cm1.start_use_image();
  simulator.run();
  std::printf("V1 sees x=%lld y=%lld (exclusive=%d)\n",
              static_cast<long long>(v1.read("x")),
              static_cast<long long>(v1.read("y")), cm1.exclusive());

  banner("steps 6-7: V1 works inside its mutual-exclusion section");
  v1.write("x", 100);
  cm1.end_use_image(/*modified=*/true);
  std::printf("V1 wrote x=100 locally (not yet at the component)\n");

  banner("steps 8-19: V2 activates; the directory invalidates V1 first");
  SlotView v2({props::Value{std::string{"x"}}, props::Value{std::string{"z"}}});
  core::CacheManager::Config cfg2;
  cfg2.view_name = "quickstart.View2";
  cfg2.properties = v2.properties();
  cfg2.mode = core::Mode::kStrong;
  core::CacheManager cm2(fabric, net::Address{hosts[1], 1}, dir_addr, v2,
                         cfg2);
  cm2.start_use_image();
  simulator.run();
  std::printf("V2 sees x=%lld z=%lld — V1's update arrived via the "
              "invalidation merge\n",
              static_cast<long long>(v2.read("x")),
              static_cast<long long>(v2.read("z")));
  std::printf("one active view invariant: V1 exclusive=%d, V2 exclusive=%d\n",
              directory.is_exclusive(cm1.id()),
              directory.is_exclusive(cm2.id()));
  cm2.end_use_image(false);

  banner("steps 20-21: teardown");
  cm1.kill_image();
  cm2.kill_image();
  simulator.run();
  std::printf("component state: x=%lld y=%lld z=%lld\n",
              static_cast<long long>(component.slot("x")),
              static_cast<long long>(component.slot("y")),
              static_cast<long long>(component.slot("z")));
  std::printf("\ntotal protocol messages: %llu\n",
              static_cast<unsigned long long>(fabric.delivered_count()));
  return 0;
}

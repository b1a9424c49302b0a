// The conformance monitor against the REAL protocol: a clean run
// produces zero violations with every invariant actually exercised
// (non-zero check counts), and mutations prove the invariants fire —
// the protocol itself refuses to violate I1-I4, so the negative harness
// corrupts the recorded stream the way a buggy implementation would
// have. Also pins the wire-type strings the monitor mirrors from
// core/messages.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "core/cache_manager.hpp"
#include "core/directory_manager.hpp"
#include "core/messages.hpp"
#include "net/sim_fabric.hpp"
#include "obs/monitor/invariant_monitor.hpp"
#include "sim/simulator.hpp"

namespace flecc::core {
namespace {

using obs::monitor::Invariant;
using obs::monitor::InvariantMonitor;

/// Single-slot primary shared by two fully conflicting views.
class CounterPrimary : public PrimaryAdapter {
 public:
  [[nodiscard]] ObjectImage extract_from_object(
      const props::PropertySet&) const override {
    ObjectImage img;
    img.set_int("n", n_);
    return img;
  }
  void merge_into_object(const ObjectImage& image,
                         const props::PropertySet&) override {
    if (const auto v = image.get_int("n")) n_ = *v;
  }
  [[nodiscard]] props::PropertySet data_properties() const override {
    props::PropertySet ps;
    ps.set("P", props::Domain::discrete({props::Value{std::string{"n"}}}));
    return ps;
  }
  [[nodiscard]] std::int64_t n() const { return n_; }

 private:
  std::int64_t n_ = 0;
};

class CounterView : public ViewAdapter {
 public:
  [[nodiscard]] props::PropertySet properties() const {
    props::PropertySet ps;
    ps.set("P", props::Domain::discrete({props::Value{std::string{"n"}}}));
    return ps;
  }
  [[nodiscard]] ObjectImage extract_from_view(
      const props::PropertySet&) override {
    ObjectImage img;
    img.set_int("n", n);
    return img;
  }
  void merge_into_view(const ObjectImage& image,
                       const props::PropertySet&) override {
    if (const auto v = image.get_int("n")) n = *v;
  }
  [[nodiscard]] const trigger::Env& variables() const override {
    return vars_;
  }

  std::int64_t n = 0;

 private:
  trigger::VariableStore vars_;
};

/// Two strong-mode views over one primary, fully traced and monitored.
struct MonitoredProtocol : ::testing::Test {
  void build() {
    std::vector<net::NodeId> hosts;
    auto topo = net::Topology::lan(3, net::LinkSpec{}, &hosts);
    fabric = std::make_unique<net::SimFabric>(sim, std::move(topo));
    recorder.attach_sink(&monitor);
    fabric->set_trace_buffer(recorder.make_buffer("fabric"));

    dir_addr = net::Address{hosts[2], 1};
    DirectoryManager::Config dcfg;
    dcfg.trace = recorder.make_buffer("dm");
    directory =
        std::make_unique<DirectoryManager>(*fabric, dir_addr, primary, dcfg);

    for (int i = 0; i < 2; ++i) {
      CacheManager::Config cfg;
      cfg.view_name = i == 0 ? "mon.View1" : "mon.View2";
      cfg.properties = views[i].properties();
      cfg.mode = Mode::kStrong;
      cfg.trace = recorder.make_buffer(i == 0 ? "cm.0" : "cm.1");
      cms[i] = std::make_unique<CacheManager>(
          *fabric, net::Address{hosts[i], 1}, dir_addr, views[i], cfg);
    }
  }

  /// One strong round-trip for view `i`: activate, bump, surrender.
  void work(int i) {
    bool active = false;
    cms[i]->start_use_image([&] { active = true; });
    sim.run();
    ASSERT_TRUE(active);
    views[i].n += 1;
    cms[i]->end_use_image(true);
    sim.run();
  }

  sim::Simulator sim;
  std::unique_ptr<net::SimFabric> fabric;
  obs::TraceRecorder recorder;
  InvariantMonitor monitor;
  CounterPrimary primary;
  net::Address dir_addr;
  std::unique_ptr<DirectoryManager> directory;
  CounterView views[2];
  std::unique_ptr<CacheManager> cms[2];
};

TEST_F(MonitoredProtocol, CleanStrongRunPassesWithRealCoverage) {
  build();
  sim.run();  // registration
  for (int round = 0; round < 3; ++round) {
    work(0);
    work(1);
  }
  for (int i = 0; i < 2; ++i) {
    bool killed = false;
    cms[i]->kill_image([&] { killed = true; });
    sim.run();
    ASSERT_TRUE(killed);
  }
  monitor.finalize();

  EXPECT_TRUE(monitor.violations().empty()) << monitor.health_report();
  // The run must have exercised the invariants for the PASS to mean
  // anything: exclusive grants, merges, causal stamps.
  EXPECT_GE(monitor.check_count(Invariant::kExclusivity), 6u);
  EXPECT_GE(monitor.check_count(Invariant::kExactlyOnceMerge), 6u);
  EXPECT_GE(monitor.check_count(Invariant::kCausality), 10u);
  EXPECT_EQ(primary.n(), 6);
}

// ---- trace-mutation negative harness (I1-I4) ---------------------------
//
// Record a clean run, then corrupt the stream the way a buggy protocol
// would have, and feed it to a fresh (offline) monitor — the same
// engine tools/flecc_check runs.

struct MutatedTrace : MonitoredProtocol {
  std::vector<obs::TraceEvent> record_clean_run() {
    build();
    sim.run();
    // Strong-mode updates travel as dirty invalidate-acks; the final
    // kills matter because the I3 scan fires at a LATER completed
    // push/kill by the same agent.
    work(0);
    work(1);
    work(0);
    work(1);
    for (auto& cm : cms) {
      cm->kill_image();
      sim.run();
    }
    return recorder.snapshot();
  }
};

TEST_F(MutatedTrace, I1FiresWhenAHolderIsNeverInvalidated) {
  auto events = record_clean_run();
  // A directory that grants without invalidating a conflicting holder,
  // the canonical exclusivity bug: before the second grant (to View2),
  // erase the invalidation sent to the first holder (View1) and
  // View1's ack.
  const auto is = [](const obs::TraceEvent& e, const char* label) {
    return std::strcmp(e.label, label) == 0;
  };
  const auto is_grant = [&](const obs::TraceEvent& e) {
    return e.role == obs::Role::kDirectory &&
           e.kind == obs::EventKind::kMsgSent && is(e, msg::kAcquireGrant);
  };
  auto second_grant = std::find_if(events.begin(), events.end(), is_grant);
  ASSERT_NE(second_grant, events.end());
  second_grant = std::find_if(std::next(second_grant), events.end(), is_grant);
  ASSERT_NE(second_grant, events.end());
  const ViewId holder = cms[0]->id();
  const std::uint64_t holder_agent = obs::agent_key(cms[0]->address());
  const auto erased = std::remove_if(
      events.begin(), second_grant, [&](const obs::TraceEvent& e) {
        return (e.role == obs::Role::kDirectory &&
                is(e, msg::kInvalidateReq) && e.b == holder) ||
               (e.role == obs::Role::kCacheManager &&
                e.agent == holder_agent && is(e, msg::kInvalidateAck));
      });
  ASSERT_EQ(second_grant - erased, 2);
  events.erase(erased, second_grant);

  InvariantMonitor offline;
  offline.run(events);
  EXPECT_GE(offline.violation_count(Invariant::kExclusivity), 1u)
      << offline.health_report();
}

TEST_F(MutatedTrace, I2FiresOnReplayedMerge) {
  auto events = record_clean_run();
  // A directory that forgot its dedup window applies some merge twice.
  auto it = std::find_if(events.begin(), events.end(),
                         [](const obs::TraceEvent& e) {
                           return e.kind == obs::EventKind::kMergeApplied;
                         });
  ASSERT_NE(it, events.end());
  obs::TraceEvent replay = *it;
  replay.at = events.back().at + 1;
  events.push_back(replay);

  InvariantMonitor offline;
  offline.run(events);
  EXPECT_GE(offline.violation_count(Invariant::kExactlyOnceMerge), 1u)
      << offline.health_report();
}

TEST_F(MutatedTrace, I3FiresOnDroppedMerge) {
  auto events = record_clean_run();
  // A directory that lost an extraction: erase the FIRST merge (there
  // is a later completed push/kill from the same agent, so the echo
  // protocol should have re-delivered it — its absence is a real loss).
  auto it = std::find_if(events.begin(), events.end(),
                         [](const obs::TraceEvent& e) {
                           return e.kind == obs::EventKind::kMergeApplied;
                         });
  ASSERT_NE(it, events.end());
  events.erase(it);

  InvariantMonitor offline;
  offline.run(events);
  EXPECT_GE(offline.violation_count(Invariant::kNoLostUpdate), 1u)
      << offline.health_report();
}

TEST_F(MutatedTrace, I4FiresOnWeakGrantAfterStrongSwitch) {
  auto events = record_clean_run();
  // A cache manager that kept serving weak pulls after acknowledging
  // the switch to STRONG: inject the completed pull after a switch.
  const std::uint64_t agent = obs::agent_key(cms[0]->address());
  const std::uint64_t span = obs::span_id(cms[0]->address(), 0xbeef);
  const sim::Time t = events.back().at;
  auto ev = [&](sim::Time at, obs::EventKind kind, std::uint64_t sp,
                const char* label) {
    return obs::make_event(at, kind, obs::Role::kCacheManager, agent, sp,
                           label);
  };
  events.push_back(ev(t + 1, obs::EventKind::kModeSwitch, 0, "strong"));
  events.push_back(ev(t + 2, obs::EventKind::kOpStarted, span, "pull"));
  events.push_back(ev(t + 3, obs::EventKind::kOpCompleted, span, "pull"));

  InvariantMonitor offline;
  offline.run(events);
  EXPECT_GE(offline.violation_count(Invariant::kModeQuiescence), 1u)
      << offline.health_report();
}

// ---- wire-string pinning ----------------------------------------------
//
// The monitor deliberately duplicates these literals (it must stay
// below the core layer: flecc_check links only flecc_obs). If a wire
// type is ever renamed, this test fails instead of the monitor silently
// going blind.
TEST(MonitorWireStrings, MatchTheProtocolMessageTypes) {
  EXPECT_STREQ(msg::kPushUpdate, "flecc.push_update");
  EXPECT_STREQ(msg::kKillReq, "flecc.kill_req");
  EXPECT_STREQ(msg::kRegisterReq, "flecc.register_req");
  EXPECT_STREQ(msg::kInvalidateAck, "flecc.invalidate_ack");
  EXPECT_STREQ(msg::kFetchReply, "flecc.fetch_reply");
  EXPECT_STREQ(msg::kInvalidateReq, "flecc.invalidate_req");
  EXPECT_STREQ(msg::kAcquireGrant, "flecc.acquire_grant");
}

}  // namespace
}  // namespace flecc::core

// Differential test of the directory's conflict adjacency index
// (PERFORMANCE.md, "Directory conflict index"). A seeded random sequence of
// reconfigurations — register, kill, liveness eviction, supersede,
// resume with changed properties, directory crash → WAL restart →
// rebuild, static-map changes after views exist — interleaved with
// pushes and pulls. After every step conflicts(), conflicting_views()
// and quality() must equal a brute-force reference computed here from
// the registry the test expects and the directory's merge log.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/durability.hpp"
#include "sim/rng.hpp"
#include "test_support.hpp"

namespace flecc::core {
namespace {

using testing::Harness;
using testing::KvView;

constexpr std::size_t kSlots = 10;  // cache-manager addresses
constexpr std::int64_t kCells = 100;
const std::array<std::string, 3> kNames = {"kv.A", "kv.B", "kv.C"};
/// Directory counters that prove each reconfiguration path ran.
constexpr std::array<const char*, 6> kPaths = {
    "op.kill",           "view.evicted.liveness", "op.register.superseded",
    "view.resumed",      "recovery.reannounced",  "recovery.dropped"};

struct Desc {
  std::string name;
  props::PropertySet properties;
};

/// The paper's conflict rule, written out independently of the
/// directory: static map first, property intersection for kDynamic.
bool reference_conflicts(const StaticMap& map, const Desc& a, const Desc& b) {
  const Relation r = map.query(a.name, b.name);
  if (r != Relation::kDynamic) return r == Relation::kConflict;
  return a.properties.conflicts_with(b.properties);
}

DirectoryManager::Config directory_config(DurabilityStore* store) {
  DirectoryManager::Config cfg;
  cfg.durability = store;
  cfg.liveness_timeout = sim::seconds(1);
  return cfg;
}

class ConflictIndexFuzz {
 public:
  explicit ConflictIndexFuzz(std::uint64_t seed)
      : rng_(seed), h_(kSlots, kCells, directory_config(&store_)) {}

  void step() {
    const std::int64_t roll = rng_.uniform_int(0, 99);
    const std::size_t i = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(kSlots) - 1));
    Slot& s = slots_[i];
    const bool up = s.cm != nullptr && s.live;
    action_ = "slot " + std::to_string(i) + ": ";
    if (!up) {
      action_ += "register";
      start(i, /*resume=*/false);
    } else if (roll < 8) {
      // Journal-replaying restart of the manager: the directory resumes
      // the same view id under a new name and new properties.
      action_ += "resume";
      start(i, /*resume=*/true);
    } else if (roll < 15) {
      // Reconnect: the directory supersedes the record at this address
      // with a fresh view id.
      action_ += "supersede";
      s.cm->reconnect();
      h_.run();
    } else if (roll < 40) {
      action_ += "push";
      s.view->increment(rng_.uniform_int(s.lo, s.hi));
      s.cm->push_image();
      h_.run();
    } else if (roll < 60) {
      action_ += "pull";
      s.cm->pull_image();
      h_.run();
    } else if (roll < 70) {
      action_ += "kill";
      s.cm->kill_image();
      s.live = false;
      h_.run();
    } else if (roll < 78) {
      action_ += "evict";
      evict(i);
    } else if (roll < 88) {
      action_ += "static map";
      set_random_static_map();
    } else {
      action_ += "directory restart";
      restart_directory();
    }
  }

  void check() {
    SCOPED_TRACE(action_);
    DirectoryManager& dm = *h_.directory_;
    std::map<ViewId, Desc> expected;
    for (const Slot& s : slots_) {
      if (s.cm == nullptr || !s.live) continue;
      ASSERT_TRUE(s.cm->registered());
      expected.emplace(s.cm->id(), s.desc);
    }
    ASSERT_EQ(dm.registered_count(), expected.size());
    for (const auto& [a, da] : expected) {
      ASSERT_TRUE(dm.known(a));
      std::vector<ViewId> neighbours;
      for (const auto& [b, db] : expected) {
        const bool ref = a != b && reference_conflicts(map_, da, db);
        if (ref) neighbours.push_back(b);
        EXPECT_EQ(dm.conflicts(a, b), ref) << a << " vs " << b;
      }
      EXPECT_EQ(dm.conflicting_views(a), neighbours) << "view " << a;

      std::uint64_t unseen = 0;
      for (const MergeRecord& r : dm.merge_log().records()) {
        if (r.version <= dm.last_sync(a) || r.source == a) continue;
        auto src = expected.find(r.source);
        if (src != expected.end()
                ? reference_conflicts(map_, da, src->second)
                : r.touched->conflicts_with(da.properties)) {
          ++unseen;
        }
      }
      EXPECT_EQ(dm.quality(a), unseen) << "view " << a;
    }
    EXPECT_TRUE(dm.conflicting_views(kInvalidViewId).empty());
  }

  [[nodiscard]] std::size_t live_views() const {
    return static_cast<std::size_t>(std::count_if(
        slots_.begin(), slots_.end(), [](const Slot& s) { return s.live; }));
  }
  /// Directory counter `name`, summed over every incarnation so far.
  [[nodiscard]] std::uint64_t total(const std::string& name) const {
    auto it = totals_.find(name);
    return (it == totals_.end() ? 0 : it->second) +
           h_.directory_->stats().get(name);
  }

 private:
  struct Slot {
    std::unique_ptr<MemoryDurabilityStore> journal;
    std::unique_ptr<KvView> view;
    std::unique_ptr<CacheManager> cm;
    Desc desc;
    std::int64_t lo = 0, hi = 0;
    net::PortId port = 0;
    bool live = false;
  };

  /// Bring up a manager at slot `i` with a new description. A resuming
  /// one restarts on its predecessor's address and journal; any other
  /// gets a new port and journal, so the directory's replay window never
  /// mistakes its requests for a predecessor's.
  void start(std::size_t i, bool resume) {
    Slot& s = slots_[i];
    if (s.cm != nullptr) {
      s.cm->halt();  // silent death: no kill handshake
      s.cm.reset();
    }
    if (!resume) {
      ++s.port;
      s.journal = std::make_unique<MemoryDurabilityStore>();
    }
    s.lo = rng_.uniform_int(0, kCells - 1);
    s.hi = std::min(kCells - 1, s.lo + rng_.uniform_int(0, 20));
    s.view = std::make_unique<KvView>(s.lo, s.hi);
    s.desc = Desc{kNames[static_cast<std::size_t>(rng_.uniform_int(0, 2))],
                  s.view->properties()};
    CacheManager::Config cfg;
    cfg.view_name = s.desc.name;
    cfg.properties = s.desc.properties;
    cfg.heartbeat_interval = sim::msec(200);
    cfg.journal = s.journal.get();
    if (rng_.chance(0.5)) cfg.validity_trigger = "false";  // fetch rounds
    s.cm = std::make_unique<CacheManager>(*h_.fabric_,
                                          net::Address{h_.hosts_.at(i), s.port},
                                          h_.dir_addr_,
                                          *s.view, cfg);
    s.cm->init_image();
    s.live = true;
    h_.run();
  }

  void evict(std::size_t i) {
    slots_[i].cm->halt();
    slots_[i].live = false;
    h_.run_until(h_.sim_.now() + sim::seconds(3));
    h_.run();
  }

  void set_random_static_map() {
    map_ = StaticMap{};
    for (std::size_t a = 0; a < kNames.size(); ++a) {
      for (std::size_t b = a; b < kNames.size(); ++b) {
        const std::int64_t r = rng_.uniform_int(0, 3);
        if (r == 3) continue;  // unlisted: kDynamic
        map_.set(kNames[a], kNames[b], static_cast<Relation>(r - 1));
      }
    }
    h_.directory_->set_static_map(map_);
  }

  /// Crash the directory and restart it from its WAL. Sometimes a view's
  /// manager dies with it: its replayed record is dropped when the
  /// rebuild round closes without a re-announcement.
  void restart_directory() {
    if (live_views() > 0 && rng_.chance(0.5)) {
      for (Slot& s : slots_) {
        if (!s.live) continue;
        s.cm->halt();
        s.live = false;
        break;
      }
    }
    for (const char* name : kPaths) totals_[name] = total(name);
    h_.directory_.reset();
    store_.crash();
    h_.directory_ = std::make_unique<DirectoryManager>(
        *h_.fabric_, h_.dir_addr_, h_.primary_, directory_config(&store_));
    h_.directory_->set_static_map(map_);  // the map is not checkpointed
    h_.run_until(h_.sim_.now() + sim::seconds(2));
    h_.run();
  }

  sim::Rng rng_;
  MemoryDurabilityStore store_;
  Harness h_;
  StaticMap map_;
  std::array<Slot, kSlots> slots_;
  std::map<std::string, std::uint64_t> totals_;  // of past incarnations
  std::string action_;  // the last step, for failure messages
};

TEST(ConflictIndexTest, MatchesBruteForceAcrossReconfigurations) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ConflictIndexFuzz fuzz(seed);
    for (int step = 0; step < 150; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      fuzz.step();
      fuzz.check();
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Every reconfiguration path was taken.
    for (const char* name : kPaths) {
      EXPECT_GE(fuzz.total(name), 1u) << name;
    }
  }
}

}  // namespace
}  // namespace flecc::core

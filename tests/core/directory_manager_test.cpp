#include "core/directory_manager.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"

namespace flecc::core {
namespace {

using testing::Harness;
using testing::cells;

TEST(DirectoryManagerTest, RegistersViewsWithDistinctIds) {
  Harness h(2);
  auto a = h.make_member(0, 9);
  auto b = h.make_member(10, 19);
  h.run();
  EXPECT_TRUE(a.cm->registered());
  EXPECT_TRUE(b.cm->registered());
  EXPECT_NE(a.cm->id(), b.cm->id());
  EXPECT_EQ(h.directory_->registered_count(), 2u);
}

TEST(DirectoryManagerTest, RejectsNonSubsetProperties) {
  Harness h(1, /*n_cells=*/10);  // primary covers cells [0, 9]
  auto bad = h.make_member(5, 20);  // overhangs the component's data
  h.run();
  EXPECT_FALSE(bad.cm->registered());
  EXPECT_TRUE(bad.cm->rejected());
  EXPECT_NE(bad.cm->reject_reason().find("subset"), std::string::npos);
  EXPECT_EQ(h.directory_->registered_count(), 0u);
}

TEST(DirectoryManagerTest, RejectsMalformedValidityTrigger) {
  Harness h(1);
  CacheManager::Config cfg;
  cfg.validity_trigger = "1 +";
  auto bad = h.make_member(0, 9, cfg);
  h.run();
  EXPECT_TRUE(bad.cm->rejected());
  EXPECT_NE(bad.cm->reject_reason().find("validity"), std::string::npos);
}

TEST(DirectoryManagerTest, RejectsEmptyViewName) {
  Harness h(1);
  CacheManager::Config cfg;
  cfg.view_name = "";
  auto view = std::make_unique<testing::KvView>(0, 5);
  cfg.properties = view->properties();
  CacheManager cm(*h.fabric_, net::Address{h.hosts_[0], 1}, h.dir_addr_,
                  *view, cfg);
  h.run();
  EXPECT_TRUE(cm.rejected());
}

TEST(DirectoryManagerTest, InitDeliversScopedImage) {
  Harness h(1);
  h.primary_.merge_into_object(
      [] {
        ObjectImage img;
        img.set_int(testing::cell_key(3), 42);
        img.set_int(testing::cell_key(50), 7);
        return img;
      }(),
      cells(0, 99));

  auto m = h.make_member(0, 9);
  bool done = false;
  m.cm->init_image([&] { done = true; });
  h.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(m.cm->valid());
  EXPECT_EQ(m.view->base(3), 42);   // in scope
  EXPECT_EQ(m.view->base(50), 0);   // out of scope: never shipped
  EXPECT_TRUE(h.directory_->is_active(m.cm->id()));
}

TEST(DirectoryManagerTest, PushMergesAndAdvancesVersion) {
  Harness h(1);
  auto m = h.make_member(0, 9);
  m.cm->init_image();
  h.run();
  const Version v0 = h.directory_->version();
  m.view->increment(2, 5);
  m.cm->push_image();
  h.run();
  EXPECT_EQ(h.primary_.cell(2), 5);
  EXPECT_EQ(h.directory_->version(), v0 + 1);
  EXPECT_FALSE(m.cm->dirty());
  EXPECT_EQ(m.cm->last_version(), v0 + 1);
}

TEST(DirectoryManagerTest, QualityCountsRemoteConflictingUpdates) {
  Harness h(2);
  auto a = h.make_member(0, 9);
  auto b = h.make_member(5, 14);  // conflicts with a
  a.cm->init_image();
  b.cm->init_image();
  h.run();

  a.view->increment(6);
  a.cm->push_image();
  h.run();
  EXPECT_EQ(h.directory_->quality(a.cm->id()), 0u);  // own update
  EXPECT_EQ(h.directory_->quality(b.cm->id()), 1u);  // remote unseen

  b.cm->pull_image();
  h.run();
  EXPECT_EQ(h.directory_->quality(b.cm->id()), 0u);  // pull resets
  EXPECT_EQ(b.cm->last_pull_unseen(), 1u);
  EXPECT_EQ(b.view->base(6), 1);  // the update arrived
}

TEST(DirectoryManagerTest, NonConflictingViewsUnaffected) {
  Harness h(2);
  auto a = h.make_member(0, 9);
  auto b = h.make_member(20, 29);  // disjoint
  a.cm->init_image();
  b.cm->init_image();
  h.run();
  EXPECT_FALSE(h.directory_->conflicts(a.cm->id(), b.cm->id()));
  a.view->increment(1);
  a.cm->push_image();
  h.run();
  EXPECT_EQ(h.directory_->quality(b.cm->id()), 0u);
}

TEST(DirectoryManagerTest, ConflictingViewsListed) {
  Harness h(3);
  auto a = h.make_member(0, 9);
  auto b = h.make_member(5, 14);
  auto c = h.make_member(50, 59);
  a.cm->init_image();
  b.cm->init_image();
  c.cm->init_image();
  h.run();
  const auto conf = h.directory_->conflicting_views(a.cm->id());
  ASSERT_EQ(conf.size(), 1u);
  EXPECT_EQ(conf[0], b.cm->id());
}

TEST(DirectoryManagerTest, ValidityFalseDemandFetchesDirtyViews) {
  Harness h(2);
  auto a = h.make_member(0, 9);
  CacheManager::Config cfg;
  cfg.validity_trigger = "false";  // primary data is never good enough
  auto b = h.make_member(0, 9, cfg);
  a.cm->init_image();
  b.cm->init_image();
  h.run();

  // a works locally without pushing.
  a.view->increment(4, 3);
  a.cm->start_use_image();
  h.run();
  a.cm->end_use_image(true);
  h.run();

  // b's pull must chase a's unpushed update.
  b.cm->pull_image();
  h.run();
  EXPECT_EQ(b.view->base(4), 3);
  EXPECT_EQ(h.primary_.cell(4), 3);
  EXPECT_GE(h.fabric_->counters().get("msg.sent.flecc.fetch_req"), 1u);
  EXPECT_GE(h.directory_->stats().get("op.pull.fetch_round"), 1u);
}

TEST(DirectoryManagerTest, ValidityTrueSkipsFetch) {
  Harness h(2);
  auto a = h.make_member(0, 9);
  CacheManager::Config cfg;
  cfg.validity_trigger = "true";
  auto b = h.make_member(0, 9, cfg);
  a.cm->init_image();
  b.cm->init_image();
  h.run();
  a.view->increment(4, 3);
  b.cm->pull_image();
  h.run();
  EXPECT_EQ(h.fabric_->counters().get("msg.sent.flecc.fetch_req"), 0u);
  EXPECT_EQ(b.view->base(4), 0);  // a's local work not chased
}

TEST(DirectoryManagerTest, ValidityMetadataVariables) {
  Harness h(2);
  auto a = h.make_member(0, 9);
  // Fetch only when the requester has actually missed something.
  CacheManager::Config cfg;
  cfg.validity_trigger = "(_unseen == 0)";
  auto b = h.make_member(0, 9, cfg);
  a.cm->init_image();
  b.cm->init_image();
  h.run();

  b.cm->pull_image();
  h.run();
  EXPECT_EQ(h.fabric_->counters().get("msg.sent.flecc.fetch_req"), 0u);

  a.view->increment(1);
  a.cm->push_image();
  h.run();
  b.cm->pull_image();  // now _unseen == 1 → fetch round
  h.run();
  EXPECT_GE(h.fabric_->counters().get("msg.sent.flecc.fetch_req"), 1u);
}

TEST(DirectoryManagerTest, StaticMapOverridesDynamicConflict) {
  Harness h(2);
  StaticMap sm;
  sm.set("kv.View", "kv.View", Relation::kNoConflict);
  h.directory_->set_static_map(std::move(sm));
  auto a = h.make_member(0, 9);
  auto b = h.make_member(0, 9);  // overlapping data, but statically cleared
  a.cm->init_image();
  b.cm->init_image();
  h.run();
  EXPECT_FALSE(h.directory_->conflicts(a.cm->id(), b.cm->id()));
  a.view->increment(1);
  a.cm->push_image();
  h.run();
  EXPECT_EQ(h.directory_->quality(b.cm->id()), 0u);
}

TEST(DirectoryManagerTest, StaticMapForcesConflict) {
  Harness h(2);
  StaticMap sm;
  sm.set("kv.View", "kv.View", Relation::kConflict);
  h.directory_->set_static_map(std::move(sm));
  auto a = h.make_member(0, 9);
  auto b = h.make_member(90, 99);  // disjoint data, statically conflicting
  a.cm->init_image();
  b.cm->init_image();
  h.run();
  EXPECT_TRUE(h.directory_->conflicts(a.cm->id(), b.cm->id()));
}

TEST(DirectoryManagerTest, StaticMapInstalledAfterRegistrationChangesConflicts) {
  Harness h(3);
  auto a = h.make_member(0, 9);
  auto b = h.make_member(0, 9);
  a.cm->init_image();
  b.cm->init_image();
  h.run();
  a.view->increment(1);
  a.cm->push_image();
  h.run();
  ASSERT_TRUE(h.directory_->conflicts(a.cm->id(), b.cm->id()));
  ASSERT_EQ(h.directory_->quality(b.cm->id()), 1u);

  StaticMap sm;
  sm.set("kv.View", "kv.View", Relation::kNoConflict);
  h.directory_->set_static_map(std::move(sm));
  EXPECT_FALSE(h.directory_->conflicts(a.cm->id(), b.cm->id()));
  EXPECT_TRUE(h.directory_->conflicting_views(b.cm->id()).empty());
  EXPECT_EQ(h.directory_->quality(b.cm->id()), 0u);

  // A view registered after the change is indexed under the new map.
  auto c = h.make_member(50, 59);
  c.cm->init_image();
  h.run();
  h.directory_->set_static_map(StaticMap{});
  EXPECT_TRUE(h.directory_->conflicts(b.cm->id(), a.cm->id()));
  EXPECT_FALSE(h.directory_->conflicts(c.cm->id(), a.cm->id()));
  EXPECT_EQ(h.directory_->quality(b.cm->id()), 1u);
}

TEST(DirectoryManagerTest, KillMergesFinalImage) {
  Harness h(1);
  auto m = h.make_member(0, 9);
  m.cm->init_image();
  h.run();
  m.view->increment(7, 2);
  m.cm->start_use_image();
  h.run();
  m.cm->end_use_image(true);
  bool done = false;
  m.cm->kill_image([&] { done = true; });
  h.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(m.cm->alive());
  EXPECT_EQ(h.primary_.cell(7), 2);
  EXPECT_EQ(h.directory_->registered_count(), 0u);
}

TEST(DirectoryManagerTest, ModeChangeUpdatesDirectoryState) {
  Harness h(1);
  auto m = h.make_member(0, 9);
  m.cm->init_image();
  h.run();
  EXPECT_EQ(h.directory_->mode_of(m.cm->id()), Mode::kWeak);
  m.cm->set_mode(Mode::kStrong);
  h.run();
  EXPECT_EQ(h.directory_->mode_of(m.cm->id()), Mode::kStrong);
  EXPECT_FALSE(h.directory_->is_active(m.cm->id()));  // must re-acquire
  EXPECT_FALSE(m.cm->valid());
}

TEST(DirectoryManagerTest, ReadOnlyPullSkipsFetchWithRwSemantics) {
  DirectoryManager::Config dir_cfg;
  dir_cfg.use_rw_semantics = true;
  Harness h(2, 100, dir_cfg);
  auto a = h.make_member(0, 9);
  CacheManager::Config cfg;
  cfg.validity_trigger = "false";
  auto b = h.make_member(0, 9, cfg);
  a.cm->init_image();
  b.cm->init_image();
  h.run();
  a.view->increment(1);

  b.cm->set_intent(AccessIntent::kReadOnly);
  b.cm->pull_image();
  h.run();
  EXPECT_EQ(h.fabric_->counters().get("msg.sent.flecc.fetch_req"), 0u);
  EXPECT_EQ(h.directory_->stats().get("op.pull.ro_shortcut"), 1u);

  b.cm->set_intent(AccessIntent::kReadWrite);
  b.cm->pull_image();
  h.run();
  EXPECT_GE(h.fabric_->counters().get("msg.sent.flecc.fetch_req"), 1u);
}

TEST(DirectoryManagerTest, NotifyOnUpdateReachesConflictingViewsOnly) {
  DirectoryManager::Config dir_cfg;
  dir_cfg.notify_on_update = true;
  Harness h(3, 100, dir_cfg);
  auto a = h.make_member(0, 9);
  auto b = h.make_member(0, 9);
  auto c = h.make_member(50, 59);
  a.cm->init_image();
  b.cm->init_image();
  c.cm->init_image();
  h.run();
  a.view->increment(1);
  a.cm->push_image();
  h.run();
  EXPECT_EQ(b.cm->notifies_received(), 1u);
  EXPECT_EQ(c.cm->notifies_received(), 0u);
  EXPECT_EQ(a.cm->notifies_received(), 0u);
}

TEST(DirectoryManagerTest, FetchTimeoutProceedsWithoutCrashedView) {
  DirectoryManager::Config dir_cfg;
  dir_cfg.fetch_timeout = sim::msec(50);
  Harness h(2, 100, dir_cfg);
  auto a = h.make_member(0, 9);
  CacheManager::Config cfg;
  cfg.validity_trigger = "false";
  auto b = h.make_member(0, 9, cfg);
  a.cm->init_image();
  b.cm->init_image();
  h.run();

  // Simulate a crash of a: its endpoint vanishes without deregistering.
  h.fabric_->unbind(a.cm->address());

  bool done = false;
  b.cm->pull_image([&] { done = true; });
  h.run();
  EXPECT_TRUE(done);  // timeout let the pull complete
  EXPECT_GE(h.directory_->stats().get("op.fetch.timeout"), 1u);
}

TEST(DirectoryManagerTest, MergeLogPruneKeepsQualityForLiveViews) {
  DirectoryManager::Config dir_cfg;
  dir_cfg.merge_log_cap = 8;
  Harness h(2, 100, dir_cfg);
  auto a = h.make_member(0, 9);
  auto b = h.make_member(0, 9);
  a.cm->init_image();
  b.cm->init_image();
  h.run();
  for (int i = 0; i < 20; ++i) {
    a.view->increment(1);
    a.cm->push_image();
    h.run();
  }
  // b never pulled: every one of a's 20 merges is unseen, and pruning
  // must not have eaten records b still needs.
  EXPECT_EQ(h.directory_->quality(b.cm->id()), 20u);
}

}  // namespace
}  // namespace flecc::core

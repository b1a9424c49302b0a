// Live view migration tests (PROTOCOL.md "View migration & CM
// journaling"): the ViewMove protocol quiesces the source, hands its
// state to the directory, installs the view on a prepared destination
// and atomically rebinds the directory entry — buffered updates travel
// in the handoff exactly once. Abort paths (dead destination, source
// crash mid-quiesce) resume service without losing or double-merging a
// delta; a restarted source cannot steal a migrated view back
// (register.fenced.moved); a liveness-evicted STRONG holder's token is
// reclaimed in the same sweep (view.evicted.strong_reclaim).
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "core/durability.hpp"
#include "obs/monitor/invariant_monitor.hpp"
#include "obs/trace.hpp"
#include "test_support.hpp"

namespace flecc::core {
namespace {

using obs::monitor::InvariantMonitor;
using testing::Harness;
using testing::KvView;

/// Source member with two buffered (write-buffer-absorbed) increments:
/// cell 1 += 5 and cell 2 += 3 are pending in the view, not yet at the
/// primary — exactly the state a migration must not lose.
Harness::Member make_buffered_source(Harness& h,
                                     CacheManager::Config cfg = {}) {
  cfg.write_buffer_ops = 4;
  auto a = h.make_member(0, 9, cfg);
  a.cm->init_image();
  h.run();
  a.cm->start_use_image();
  a.view->increment(1, 5);
  a.cm->end_use_image(/*modified=*/true);
  a.cm->push_image();
  a.cm->start_use_image();
  a.view->increment(2, 3);
  a.cm->end_use_image(/*modified=*/true);
  a.cm->push_image();
  h.run();
  EXPECT_EQ(a.cm->write_buffer_depth(), 2u);
  EXPECT_EQ(h.primary_.cell(1), 0);
  return a;
}

TEST(ViewMigrationTest, WarmMoveRebindsViewAndKeepsEveryUpdate) {
  // One buffer per agent: a TraceBuffer carries its owner's Lamport
  // clock, so sharing one across endpoints would scramble stamping.
  obs::TraceRecorder rec(1 << 14);
  DirectoryManager::Config dcfg;
  dcfg.trace = rec.make_buffer("dm");
  Harness h(3, 100, dcfg);
  CacheManager::Config scfg;
  scfg.trace = rec.make_buffer("cm.src");
  auto a = make_buffered_source(h, scfg);
  const ViewId view = a.cm->id();

  CacheManager::Config dest_cfg;
  dest_cfg.await_migration = true;
  dest_cfg.trace = rec.make_buffer("cm.dest");
  auto dest = h.make_member(0, 9, dest_cfg);
  ASSERT_FALSE(dest.cm->registered());

  ASSERT_TRUE(h.directory_->begin_migration(view, dest.cm->address()));
  h.run();

  // The source is inert, the destination serves the SAME view id, and
  // the buffered increments merged into the primary exactly once.
  EXPECT_TRUE(a.cm->moved());
  EXPECT_FALSE(a.cm->alive());
  EXPECT_TRUE(dest.cm->registered());
  EXPECT_EQ(dest.cm->id(), view);
  EXPECT_EQ(h.primary_.cell(1), 5);
  EXPECT_EQ(h.primary_.cell(2), 3);
  // The install carried a fresh primary extract, handoff included.
  EXPECT_EQ(dest.view->value(1), 5);
  const auto& ds = h.directory_->stats();
  EXPECT_EQ(ds.get("migrate.begin"), 1u);
  EXPECT_EQ(ds.get("migrate.handoff"), 1u);
  EXPECT_EQ(ds.get("migrate.done"), 1u);
  EXPECT_EQ(ds.get("migrate.aborted"), 0u);
  EXPECT_EQ(h.directory_->migrations_inflight(), 0u);
  EXPECT_EQ(a.cm->stats().get("migrate.sealed"), 1u);
  EXPECT_EQ(a.cm->stats().get("migrate.moved"), 1u);
  EXPECT_EQ(dest.cm->stats().get("migrate.installed"), 1u);

  // Service continues at the new home.
  dest.view->increment(4, 2);
  bool pushed = false;
  dest.cm->push_image([&] { pushed = true; });
  h.run();
  EXPECT_TRUE(pushed);
  EXPECT_EQ(h.primary_.cell(4), 2);

  InvariantMonitor checker;
  checker.run(rec.snapshot());
  EXPECT_TRUE(checker.violations().empty()) << checker.health_report();
  EXPECT_EQ(checker.unresolved_migration_epochs(), 0u);
}

TEST(ViewMigrationTest, DeadDestinationAbortsAndSourceResumes) {
  Harness h(3);
  auto a = make_buffered_source(h);
  const ViewId view = a.cm->id();

  // Nothing is bound at this address: every ViewMoveInstall vanishes.
  const net::Address dead{h.hosts_[2], 1};
  ASSERT_TRUE(h.directory_->begin_migration(view, dead));
  h.run();

  // Install resends exhausted, the migration aborted, and the source
  // resumed serving — its handoff delta (already merged when the
  // HandoffState arrived) re-pushed under the same request id and was
  // absorbed by the exactly-once key, not merged twice.
  const auto& ds = h.directory_->stats();
  EXPECT_EQ(ds.get("migrate.aborted"), 1u);
  EXPECT_GE(ds.get("migrate.resend"), 1u);
  EXPECT_EQ(h.directory_->migrations_inflight(), 0u);
  EXPECT_FALSE(a.cm->moved());
  EXPECT_FALSE(a.cm->sealed());
  EXPECT_TRUE(a.cm->registered());
  EXPECT_EQ(a.cm->stats().get("migrate.resumed"), 1u);
  EXPECT_EQ(a.cm->stats().get("migrate.repush"), 1u);
  EXPECT_EQ(h.primary_.cell(1), 5);
  EXPECT_EQ(h.primary_.cell(2), 3);

  // The view is fully live again at the source.
  a.view->increment(3, 4);
  bool pushed = false;
  a.cm->push_image([&] { pushed = true; });
  a.cm->kill_image();  // flushes the write buffer on the way out
  h.run();
  EXPECT_TRUE(pushed);
  EXPECT_EQ(h.primary_.cell(3), 4);
}

TEST(ViewMigrationTest, SourceCrashAtQuiesceAbortsCleanly) {
  CacheManager* victim = nullptr;
  DirectoryManager::Config dcfg;
  dcfg.on_migrate_phase = [&victim](ViewId, int phase) {
    if (phase == DirectoryManager::kMigrateQuiesce && victim != nullptr) {
      victim->halt();
    }
  };
  Harness h(3, 100, dcfg);
  auto a = make_buffered_source(h);
  victim = a.cm.get();

  CacheManager::Config dest_cfg;
  dest_cfg.await_migration = true;
  auto dest = h.make_member(0, 9, dest_cfg);

  // The source dies the instant the quiesce request goes out: no
  // HandoffState ever arrives, the per-phase timer resends, then the
  // migration aborts without touching the destination.
  ASSERT_TRUE(h.directory_->begin_migration(a.cm->id(), dest.cm->address()));
  h.run();

  const auto& ds = h.directory_->stats();
  EXPECT_EQ(ds.get("migrate.aborted"), 1u);
  EXPECT_EQ(ds.get("migrate.handoff"), 0u);
  EXPECT_EQ(h.directory_->migrations_inflight(), 0u);
  EXPECT_FALSE(dest.cm->registered());
  EXPECT_EQ(dest.cm->stats().get("migrate.installed"), 0u);
}

TEST(ViewMigrationTest, RestartedSourceCannotStealMigratedView) {
  MemoryDurabilityStore journal(/*flush_every=*/1);
  CacheManager* victim = nullptr;
  DirectoryManager::Config dcfg;
  dcfg.on_migrate_phase = [&victim](ViewId, int phase) {
    if (phase == DirectoryManager::kMigrateHandoff && victim != nullptr) {
      victim->halt();
    }
  };
  Harness h(3, 100, dcfg);
  CacheManager::Config scfg;
  scfg.journal = &journal;
  auto a = make_buffered_source(h, scfg);
  victim = a.cm.get();
  const ViewId view = a.cm->id();
  const net::Address src_addr = a.cm->address();

  CacheManager::Config dest_cfg;
  dest_cfg.await_migration = true;
  auto dest = h.make_member(0, 9, dest_cfg);

  // The source dies right after its handoff merged; the migration still
  // completes (install + rebind need only the destination), but the
  // source never learns (ViewMoveDone hits a dead endpoint) and its
  // journal still names the view.
  ASSERT_TRUE(h.directory_->begin_migration(view, dest.cm->address()));
  h.run();
  ASSERT_EQ(h.directory_->stats().get("migrate.done"), 1u);
  ASSERT_EQ(dest.cm->id(), view);
  ASSERT_EQ(h.primary_.cell(1), 5);

  // Restart the source on the same address and journal: it asks to
  // resume the migrated view. The directory fences the resume (the view
  // lives elsewhere now) and registers it as a FRESH view instead.
  journal.crash();
  a.cm.reset();
  auto view2 = std::make_unique<KvView>(0, 9);
  CacheManager::Config rcfg;
  rcfg.view_name = "kv.View";
  rcfg.properties = view2->properties();
  rcfg.journal = &journal;
  auto cm2 = std::make_unique<CacheManager>(*h.fabric_, src_addr, h.dir_addr_,
                                            *view2, std::move(rcfg));
  ASSERT_EQ(cm2->resumed_view(), view);
  ASSERT_EQ(cm2->stats().get("journal.replay"), 1u);
  h.run();

  EXPECT_EQ(h.directory_->stats().get("register.fenced.moved"), 1u);
  EXPECT_TRUE(cm2->registered());
  EXPECT_NE(cm2->id(), view);
  EXPECT_EQ(dest.cm->id(), view);  // ownership never moved back
  // The journal-replayed handoff intent re-pushed under the original
  // request id and was absorbed — the buffered increments still count
  // exactly once.
  EXPECT_EQ(h.primary_.cell(1), 5);
  EXPECT_EQ(h.primary_.cell(2), 3);
}

TEST(ViewMigrationTest, StrongModeMoveCarriesModeToDestination) {
  Harness h(3);
  CacheManager::Config scfg;
  scfg.mode = Mode::kStrong;
  auto a = h.make_member(0, 9, scfg);
  a.cm->init_image();
  h.run();
  const ViewId view = a.cm->id();
  ASSERT_EQ(h.directory_->mode_of(view), Mode::kStrong);

  a.cm->start_use_image();
  h.run();
  a.view->increment(5, 9);
  a.cm->end_use_image(/*modified=*/true);
  h.run();

  CacheManager::Config dest_cfg;
  dest_cfg.await_migration = true;
  auto dest = h.make_member(0, 9, dest_cfg);
  ASSERT_TRUE(h.directory_->begin_migration(view, dest.cm->address()));
  h.run();

  EXPECT_TRUE(a.cm->moved());
  EXPECT_EQ(dest.cm->id(), view);
  EXPECT_EQ(dest.cm->mode(), Mode::kStrong);
  EXPECT_EQ(h.primary_.cell(5), 9);

  // The destination can run a full strong-mode use section.
  bool used = false;
  dest.cm->start_use_image([&] { used = true; });
  h.run();
  EXPECT_TRUE(used);
  dest.view->increment(6, 1);
  dest.cm->end_use_image(/*modified=*/true);
  dest.cm->kill_image();
  h.run();
  EXPECT_EQ(h.primary_.cell(6), 1);
}

// A view that switched to STRONG has an invalid copy until it
// re-acquires, yet keeps its unpushed deltas: sealing must extract them
// into the handoff, or they stay behind in the moved (inert) source.
TEST(ViewMigrationTest, SealAfterModeSwitchCarriesDirtyDeltas) {
  Harness h(3);
  auto a = h.make_member(0, 9);
  a.cm->init_image();
  h.run();
  a.cm->start_use_image();
  a.view->increment(3, 5);
  a.cm->end_use_image(/*modified=*/true);
  a.cm->set_mode(Mode::kStrong);
  h.run();
  ASSERT_FALSE(a.cm->valid());
  ASSERT_TRUE(a.cm->dirty());

  CacheManager::Config dest_cfg;
  dest_cfg.await_migration = true;
  auto dest = h.make_member(0, 9, dest_cfg);
  ASSERT_TRUE(h.directory_->begin_migration(a.cm->id(), dest.cm->address()));
  h.run();
  ASSERT_TRUE(a.cm->moved());

  dest.cm->kill_image();
  h.run();
  EXPECT_EQ(a.view->value(3) - a.view->base(3), 0);  // nothing left behind
  EXPECT_EQ(h.primary_.total(), 5);
}

TEST(ViewMigrationTest, EvictedStrongHolderTokenIsReclaimed) {
  DirectoryManager::Config dcfg;
  dcfg.liveness_timeout = sim::seconds(1);
  Harness h(2, 100, dcfg);
  CacheManager::Config cfg;
  cfg.mode = Mode::kStrong;
  cfg.heartbeat_interval = sim::msec(200);
  auto a = h.make_member(0, 9, cfg);
  auto b = h.make_member(0, 9, cfg);
  a.cm->init_image();
  b.cm->init_image();
  h.run();

  bool a_in = false;
  a.cm->start_use_image([&] { a_in = true; });
  h.run();
  ASSERT_TRUE(a_in);
  ASSERT_TRUE(a.cm->exclusive());

  // A dies holding the token, mid use-section. The liveness sweep
  // evicts it AND releases the token in the same sweep.
  a.cm->halt();
  h.run_until(h.sim_.now() + sim::seconds(3));
  h.run();
  EXPECT_EQ(h.directory_->stats().get("view.evicted.liveness"), 1u);
  EXPECT_EQ(h.directory_->stats().get("view.evicted.strong_reclaim"), 1u);
  EXPECT_EQ(h.directory_->registered_count(), 1u);

  // B can acquire immediately — the token was not orphaned.
  bool b_in = false;
  b.cm->start_use_image([&] { b_in = true; });
  h.run();
  EXPECT_TRUE(b_in);
  EXPECT_TRUE(b.cm->exclusive());
}

TEST(ViewMigrationTest, BeginMigrationRejectsBadTargets) {
  Harness h(3);
  auto a = h.make_member(0, 9);
  a.cm->init_image();
  h.run();

  CacheManager::Config dest_cfg;
  dest_cfg.await_migration = true;
  auto dest = h.make_member(0, 9, dest_cfg);

  // Unknown view.
  EXPECT_FALSE(h.directory_->begin_migration(ViewId{9999},
                                             dest.cm->address()));
  // Second begin for a view already migrating.
  EXPECT_TRUE(h.directory_->begin_migration(a.cm->id(), dest.cm->address()));
  EXPECT_FALSE(h.directory_->begin_migration(a.cm->id(), dest.cm->address()));
  EXPECT_EQ(h.directory_->stats().get("migrate.rejected"), 2u);
  h.run();
  EXPECT_EQ(h.directory_->stats().get("migrate.done"), 1u);
}

}  // namespace
}  // namespace flecc::core

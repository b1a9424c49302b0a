// Edge cases of the cache manager FSM: reconnect interactions, stale
// replies, trigger/queue interplay, and lifecycle corners.
#include <gtest/gtest.h>

#include "core/cache_manager.hpp"
#include "test_support.hpp"

namespace flecc::core {
namespace {

using testing::Harness;

TEST(CacheManagerEdgeTest, ReconnectWhileIdleKeepsWorking) {
  Harness h(1);
  auto m = h.make_member(0, 9);
  m.cm->init_image();
  h.run();
  const ViewId old_id = m.cm->id();

  bool reconnected = false;
  m.cm->reconnect([&] { reconnected = true; });
  h.run();
  EXPECT_TRUE(reconnected);
  EXPECT_TRUE(m.cm->registered());
  EXPECT_NE(m.cm->id(), old_id);  // fresh registration
  EXPECT_TRUE(m.cm->valid());

  // Normal operation continues under the new identity.
  m.view->increment(1, 2);
  m.cm->push_image();
  h.run();
  EXPECT_EQ(h.primary_.cell(1), 2);
}

TEST(CacheManagerEdgeTest, ReconnectRepushesDirtyState) {
  Harness h(1);
  auto m = h.make_member(0, 9);
  m.cm->init_image();
  h.run();
  m.view->increment(4, 6);
  m.cm->start_use_image();
  m.cm->end_use_image(true);
  ASSERT_TRUE(m.cm->dirty());

  m.cm->reconnect();
  h.run();
  EXPECT_FALSE(m.cm->dirty());
  EXPECT_EQ(h.primary_.cell(4), 6);
}

TEST(CacheManagerEdgeTest, ReconnectReissuesInFlightOperation) {
  Harness h(1);
  auto m = h.make_member(0, 9);
  m.cm->init_image();
  h.run();
  // Issue a pull whose reply will race the reconnect. The in-flight op
  // is re-issued under the new incarnation instead of being silently
  // abandoned: its completion still fires, exactly once.
  bool pull_done = false;
  m.cm->pull_image([&] { pull_done = true; });
  m.cm->reconnect();
  h.run();
  EXPECT_TRUE(m.cm->registered());
  EXPECT_TRUE(m.cm->valid());
  EXPECT_TRUE(pull_done);
  EXPECT_GE(m.cm->stats().get("reconnect"), 1u);
  EXPECT_GE(m.cm->stats().get("op.reissued"), 1u);

  // Later ops still work.
  bool fresh = false;
  m.cm->pull_image([&] { fresh = true; });
  h.run();
  EXPECT_TRUE(fresh);
}

TEST(CacheManagerEdgeTest, ReconnectAfterKillIsANoop) {
  Harness h(1);
  auto m = h.make_member(0, 9);
  m.cm->init_image();
  m.cm->kill_image();
  h.run();
  ASSERT_FALSE(m.cm->alive());
  bool done = false;
  m.cm->reconnect([&] { done = true; });
  EXPECT_TRUE(done);  // immediate no-op completion
  h.run();
  EXPECT_FALSE(m.cm->registered());
  EXPECT_EQ(h.directory_->registered_count(), 0u);
}

TEST(CacheManagerEdgeTest, QueuedOpsSurviveReconnect) {
  Harness h(1);
  auto m = h.make_member(0, 9);
  m.cm->init_image();
  h.run();
  // Queue work, then reconnect before it is issued: recovery ops run
  // first, then the queued push proceeds under the new registration.
  m.view->increment(2, 3);
  m.cm->reconnect();  // (clean: no dirty flag yet, deltas ride the push)
  bool pushed = false;
  m.cm->push_image([&] { pushed = true; });
  h.run();
  EXPECT_TRUE(pushed);
  EXPECT_EQ(h.primary_.cell(2), 3);
}

TEST(CacheManagerEdgeTest, StaleRepliesAfterKillAreCounted) {
  Harness h(2);
  auto a = h.make_member(0, 9);
  a.cm->init_image();
  h.run();
  // Forge a reply the manager is not waiting for.
  msg::PullReply stale;
  stale.image.set_int("cell.0", 1);
  h.fabric_->send(h.dir_addr_, a.cm->address(), msg::kPullReply, stale, 64);
  h.run();
  EXPECT_GE(a.cm->stats().get("msg.unexpected"), 1u);
  EXPECT_EQ(a.view->base(0), 0);  // not applied
}

TEST(CacheManagerEdgeTest, EndUseWithoutModificationStaysClean) {
  Harness h(1);
  auto m = h.make_member(0, 9);
  m.cm->init_image();
  h.run();
  m.cm->start_use_image();
  m.cm->end_use_image(/*modified=*/false);
  EXPECT_FALSE(m.cm->dirty());
  const auto version = h.directory_->version();
  m.cm->push_image();  // explicit push of a clean image
  h.run();
  // The push still round-trips (explicit call), merging an empty image.
  EXPECT_EQ(h.directory_->version(), version + 1);
  EXPECT_EQ(h.primary_.total(), 0);
}

TEST(CacheManagerEdgeTest, ExclusiveOwnershipIsReusedLocally) {
  Harness h(2);
  CacheManager::Config strong;
  strong.mode = Mode::kStrong;
  auto a = h.make_member(0, 9, strong);
  auto b = h.make_member(0, 9, strong);
  h.run();

  // a acquires then switches to weak → copy valid but not exclusive;
  // then a is invalidated on b's acquire while a holds no dirty data.
  a.cm->start_use_image();
  h.run();
  a.cm->end_use_image(false);
  b.cm->start_use_image();
  h.run();
  EXPECT_TRUE(h.directory_->is_exclusive(b.cm->id()));
  EXPECT_FALSE(a.cm->valid());
  b.cm->end_use_image(false);

  // A second acquisition by b is now local (still exclusive).
  const auto sent = h.fabric_->sent_count();
  b.cm->start_use_image();
  b.cm->end_use_image(false);
  EXPECT_EQ(h.fabric_->sent_count(), sent);
}

// A view that switched to STRONG has an invalid copy until it
// re-acquires, yet keeps its unpushed deltas. An invalidation it serves
// in that window extracts nothing, so it must leave the view dirty: the
// deltas then travel with the kill instead of staying behind in the view.
TEST(CacheManagerEdgeTest, CleanInvalidationKeepsUnsurrenderedDeltasDirty) {
  Harness h(2);
  auto a = h.make_member(0, 9);
  CacheManager::Config strong;
  strong.mode = Mode::kStrong;
  auto b = h.make_member(0, 9, strong);
  a.cm->init_image();
  h.run();

  a.cm->start_use_image();
  a.view->increment(3, 5);
  b.cm->start_use_image();  // a defers the invalidation
  h.run_until(h.sim_.now() + sim::msec(20));
  ASSERT_EQ(a.cm->stats().get("invalidate.deferred"), 1u);

  a.cm->set_mode(Mode::kStrong);
  h.run_until(h.sim_.now() + sim::msec(20));
  ASSERT_EQ(a.cm->mode(), Mode::kStrong);
  ASSERT_FALSE(a.cm->valid());
  a.cm->end_use_image(/*modified=*/true);
  h.run_until(h.sim_.now() + sim::msec(20));
  ASSERT_TRUE(b.cm->in_use());
  EXPECT_TRUE(a.cm->dirty());
  b.cm->end_use_image(/*modified=*/false);

  a.cm->kill_image();
  b.cm->kill_image();
  h.run();
  EXPECT_EQ(a.view->value(3) - a.view->base(3), 0);  // nothing left behind
  EXPECT_EQ(h.primary_.total(), 5);
}

TEST(CacheManagerEdgeTest, TriggerTimerSurvivesReconnect) {
  Harness h(1);
  CacheManager::Config cfg;
  cfg.pull_trigger = "(t > 200)";
  cfg.trigger_poll = sim::msec(100);
  auto m = h.make_member(0, 9, cfg);
  m.cm->init_image();
  h.run();
  m.cm->reconnect();
  h.run();
  const auto before = m.cm->stats().get("auto.pull");
  h.run_until(h.sim_.now() + sim::seconds(1));
  EXPECT_GT(m.cm->stats().get("auto.pull"), before);
}

}  // namespace
}  // namespace flecc::core

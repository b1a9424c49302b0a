// Edge cases and robustness of the directory manager FSM.
#include <gtest/gtest.h>

#include "core/directory_manager.hpp"
#include "test_support.hpp"

namespace flecc::core {
namespace {

using testing::Harness;

TEST(DirectoryEdgeTest, StrongAcquiresGrantFifo) {
  Harness h(4);
  CacheManager::Config strong;
  strong.mode = Mode::kStrong;
  auto a = h.make_member(0, 9, strong);
  auto b = h.make_member(0, 9, strong);
  auto c = h.make_member(0, 9, strong);
  auto d = h.make_member(0, 9, strong);
  h.run();

  // a grabs ownership and stays inside its use section; b, c, d queue.
  a.cm->start_use_image();
  h.run();
  ASSERT_TRUE(a.cm->in_use());

  std::vector<int> grant_order;
  b.cm->start_use_image([&] {
    grant_order.push_back(2);
    b.cm->end_use_image(false);
  });
  c.cm->start_use_image([&] {
    grant_order.push_back(3);
    c.cm->end_use_image(false);
  });
  d.cm->start_use_image([&] {
    grant_order.push_back(4);
    d.cm->end_use_image(false);
  });
  h.run_until(h.sim_.now() + sim::msec(50));
  EXPECT_TRUE(grant_order.empty());  // all blocked behind a

  a.cm->end_use_image(false);
  h.run();
  EXPECT_EQ(grant_order, (std::vector<int>{2, 3, 4}));  // FIFO
}

TEST(DirectoryEdgeTest, MessagesFromUnknownViewsAreIgnored) {
  Harness h(1);
  auto m = h.make_member(0, 9);
  m.cm->init_image();
  h.run();

  // Hand-craft traffic with a bogus view id; nothing should crash or
  // corrupt state.
  const Version v0 = h.directory_->version();
  msg::PushUpdate push;
  push.view = 9999;
  push.image.set_int("inc.0", 100);
  h.fabric_->send(m.cm->address(), h.dir_addr_, msg::kPushUpdate, push, 64);
  msg::InitReq init{9999};
  h.fabric_->send(m.cm->address(), h.dir_addr_, msg::kInitReq, init, 32);
  msg::PullReq pull{9999, AccessIntent::kReadWrite};
  h.fabric_->send(m.cm->address(), h.dir_addr_, msg::kPullReq, pull, 32);
  msg::KillReq kill;
  kill.view = 9999;
  h.fabric_->send(m.cm->address(), h.dir_addr_, msg::kKillReq, kill, 32);
  h.run();
  EXPECT_EQ(h.directory_->version(), v0);
  EXPECT_EQ(h.primary_.cell(0), 0);
  EXPECT_EQ(h.directory_->registered_count(), 1u);
}

TEST(DirectoryEdgeTest, UnknownMessageTypeCounted) {
  Harness h(1);
  h.fabric_->send(net::Address{0, 1}, h.dir_addr_, "garbage.type", 0, 16);
  h.run();
  EXPECT_EQ(h.directory_->stats().get("msg.unknown"), 1u);
}

TEST(DirectoryEdgeTest, ConcurrentFetchRoundsUseDistinctTokens) {
  Harness h(3);
  auto producer = h.make_member(0, 9);
  CacheManager::Config fresh;
  fresh.validity_trigger = "false";
  auto c1 = h.make_member(0, 9, fresh);
  auto c2 = h.make_member(0, 9, fresh);
  producer.cm->init_image();
  c1.cm->init_image();
  c2.cm->init_image();
  h.run();

  producer.view->increment(3, 5);
  producer.cm->start_use_image();
  h.run();
  producer.cm->end_use_image(true);

  // Two pulls race; both fetch rounds must complete with fresh data.
  bool done1 = false, done2 = false;
  c1.cm->pull_image([&] { done1 = true; });
  c2.cm->pull_image([&] { done2 = true; });
  h.run();
  EXPECT_TRUE(done1);
  EXPECT_TRUE(done2);
  EXPECT_EQ(c1.view->base(3), 5);
  EXPECT_EQ(c2.view->base(3), 5);
  EXPECT_EQ(h.directory_->stats().get("op.pull.fetch_round"), 2u);
  EXPECT_EQ(h.directory_->stats().get("op.fetch.late"), 0u);
}

TEST(DirectoryEdgeTest, QualityFallsBackToSnapshotForDeadSources) {
  Harness h(2);
  auto a = h.make_member(0, 9);
  auto b = h.make_member(0, 9);
  a.cm->init_image();
  b.cm->init_image();
  h.run();

  a.view->increment(1);
  a.cm->push_image();
  h.run();
  EXPECT_EQ(h.directory_->quality(b.cm->id()), 1u);

  // The source deregisters; b's staleness accounting must survive via
  // the merge log's property snapshot.
  a.cm->kill_image();
  h.run();
  EXPECT_GE(h.directory_->quality(b.cm->id()), 1u);
}

TEST(DirectoryEdgeTest, EmptyPropertyViewNeverConflicts) {
  Harness h(2);
  auto other = h.make_member(0, 9);  // occupies host 0
  // make_member overwrites properties from the view; craft manually.
  CacheManager::Config empty_props;
  auto view = std::make_unique<testing::KvView>(0, 0);
  empty_props.view_name = "kv.Empty";
  empty_props.properties = props::PropertySet{};  // shares nothing
  CacheManager cm(*h.fabric_, net::Address{h.hosts_[1], 1}, h.dir_addr_,
                  *view, empty_props);
  h.run();
  ASSERT_TRUE(cm.registered());
  ASSERT_TRUE(other.cm->registered());
  EXPECT_FALSE(h.directory_->conflicts(cm.id(), other.cm->id()));
}

TEST(DirectoryEdgeTest, ViewsOfDifferentNamesStillConflictDynamically) {
  Harness h(2);
  CacheManager::Config named;
  named.view_name = "kv.SpecialView";
  auto a = h.make_member(0, 9, named);
  auto b = h.make_member(5, 14);  // default name, overlapping cells
  h.run();
  EXPECT_TRUE(h.directory_->conflicts(a.cm->id(), b.cm->id()));
}

TEST(DirectoryEdgeTest, PullWithoutValidityNeverFetches) {
  Harness h(2);
  auto a = h.make_member(0, 9);
  auto b = h.make_member(0, 9);  // no validity trigger
  a.cm->init_image();
  b.cm->init_image();
  h.run();
  a.view->increment(1, 2);  // dirty but unpushed
  for (int i = 0; i < 3; ++i) {
    b.cm->pull_image();
    h.run();
  }
  EXPECT_EQ(h.fabric_->counters().get("msg.sent.flecc.fetch_req"), 0u);
  EXPECT_EQ(b.view->base(1), 0);  // a's local work untouched, by design
}

TEST(DirectoryEdgeTest, InitRefreshesAfterStaleness) {
  Harness h(2);
  auto a = h.make_member(0, 9);
  auto b = h.make_member(0, 9);
  a.cm->init_image();
  b.cm->init_image();
  h.run();
  a.view->increment(4, 6);
  a.cm->push_image();
  h.run();
  EXPECT_EQ(h.directory_->quality(b.cm->id()), 1u);
  // A second init also counts as a sync point.
  b.cm->init_image();
  h.run();
  EXPECT_EQ(h.directory_->quality(b.cm->id()), 0u);
  EXPECT_EQ(b.view->base(4), 6);
}

TEST(DirectoryEdgeTest, DestructorCancelsOpenRoundTimers) {
  Harness h(4);
  // A fetch round whose target is inside its use section...
  auto producer = h.make_member(0, 9);
  CacheManager::Config fresh;
  fresh.validity_trigger = "false";
  auto consumer = h.make_member(0, 9, fresh);
  // ...and an invalidation round whose holder is inside its use section.
  CacheManager::Config strong;
  strong.mode = Mode::kStrong;
  auto holder = h.make_member(20, 29, strong);
  auto contender = h.make_member(20, 29, strong);
  producer.cm->init_image();
  consumer.cm->init_image();
  h.run();
  producer.cm->start_use_image();
  holder.cm->start_use_image();
  h.run();
  ASSERT_TRUE(producer.cm->in_use());
  ASSERT_TRUE(holder.cm->in_use());
  consumer.cm->pull_image();
  contender.cm->start_use_image();
  h.run_until(h.sim_.now() + sim::msec(10));
  ASSERT_EQ(h.directory_->stats().get("op.pull.fetch_round"), 1u);
  ASSERT_EQ(h.directory_->stats().get("op.acquire.invalidations"), 1u);

  // Both rounds are open, with timeout and resend timers armed.
  for (auto* m : {&producer, &consumer, &holder, &contender}) m->cm->halt();
  h.directory_.reset();
  EXPECT_EQ(h.sim_.pending_events(), 0u);
}

}  // namespace
}  // namespace flecc::core

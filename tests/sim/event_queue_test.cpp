#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace flecc::sim {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue q;
  q.push(50, [] {});
  q.push(5, [] {});
  EXPECT_EQ(q.next_time(), 5);
}

TEST(EventQueueTest, NextTimeOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.next_time(), std::logic_error);
}

TEST(EventQueueTest, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.push(10, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(fired, 0);
}

TEST(EventQueueTest, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelPoppedEventReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(10, [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
  EXPECT_FALSE(q.cancel(kInvalidEventId));
}

TEST(EventQueueTest, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.push(10, [&] { order.push_back(1); });
  const EventId id = q.push(20, [&] { order.push_back(2); });
  q.push(30, [&] { order.push_back(3); });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, PendingTracksLifecycle) {
  EventQueue q;
  const EventId id = q.push(10, [] {});
  EXPECT_TRUE(q.pending(id));
  q.pop();
  EXPECT_FALSE(q.pending(id));
}

TEST(EventQueueTest, ClearDropsEverything) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.push(i, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, CancelHeadThenNextTimeSkipsIt) {
  EventQueue q;
  const EventId head = q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_TRUE(q.cancel(head));
  EXPECT_EQ(q.next_time(), 2);
}

// A popped or cancelled event's slot is reused by the next push; the old
// id names the slot's previous generation and must not reach the new
// event (the FSMs keep timer ids after their timers fire).
TEST(EventQueueTest, FiredIdDoesNotReachTheEventReusingItsSlot) {
  EventQueue q;
  const EventId old_id = q.push(10, [] {});
  q.pop().fn();
  int fired = 0;
  const EventId new_id = q.push(20, [&] { ++fired; });
  ASSERT_EQ(static_cast<std::uint32_t>(new_id),
            static_cast<std::uint32_t>(old_id));  // same slot
  EXPECT_NE(new_id, old_id);
  EXPECT_FALSE(q.pending(old_id));
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_TRUE(q.pending(new_id));
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelledIdDoesNotReachTheEventReusingItsSlot) {
  EventQueue q;
  const EventId old_id = q.push(10, [] {});
  ASSERT_TRUE(q.cancel(old_id));
  int fired = 0;
  const EventId new_id = q.push(20, [&] { ++fired; });
  ASSERT_EQ(static_cast<std::uint32_t>(new_id),
            static_cast<std::uint32_t>(old_id));  // same slot
  EXPECT_FALSE(q.pending(old_id));
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_TRUE(q.pending(new_id));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 20);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, ClearLeavesNoEarlierIdPending) {
  EventQueue q;
  std::vector<EventId> before;
  for (int i = 0; i < 5; ++i) before.push_back(q.push(i, [] {}, i % 2 == 0));
  q.clear();
  EXPECT_FALSE(q.has_non_daemon());
  const EventId after = q.push(7, [] {});
  for (const EventId id : before) {
    EXPECT_FALSE(q.pending(id));
    EXPECT_FALSE(q.cancel(id));
  }
  EXPECT_TRUE(q.pending(after));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().id, after);
}

TEST(EventQueueTest, NoIdIsInvalid) {
  EventQueue q;
  for (int round = 0; round < 100; ++round) {
    const EventId fired = q.push(round, [] {});
    const EventId cancelled = q.push(round, [] {});
    EXPECT_NE(fired, kInvalidEventId);
    EXPECT_NE(cancelled, kInvalidEventId);
    EXPECT_TRUE(q.cancel(cancelled));
    EXPECT_EQ(q.pop().id, fired);
  }
}

class EventQueueStressTest : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueStressTest, ManyEventsStayOrdered) {
  const int n = GetParam();
  EventQueue q;
  // Insert in a scrambled but deterministic order.
  for (int i = 0; i < n; ++i) {
    const Time when = (i * 7919) % n;
    q.push(when, [] {});
  }
  Time last = -1;
  int popped = 0;
  while (!q.empty()) {
    auto ev = q.pop();
    EXPECT_GE(ev.when, last);
    last = ev.when;
    ++popped;
  }
  EXPECT_EQ(popped, n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EventQueueStressTest,
                         ::testing::Values(1, 10, 100, 1000, 10000));

}  // namespace
}  // namespace flecc::sim

#include "core/merge_log.hpp"

#include <gtest/gtest.h>

namespace flecc::core {
namespace {

props::PropertySet flights(std::int64_t lo, std::int64_t hi) {
  props::PropertySet ps;
  ps.set("Flights", props::Domain::interval(lo, hi));
  return ps;
}

TEST(MergeLogTest, EmptyLogHasNoUnseen) {
  MergeLog log;
  EXPECT_EQ(log.unseen_from(2, 0), 0u);
  EXPECT_EQ(log.unseen_departed(flights(0, 10), 0), 0u);
  EXPECT_TRUE(log.empty());
}

TEST(MergeLogTest, CountsRemoteConflictingMerges) {
  MergeLog log;
  log.record({1, 2, flights(0, 10)});
  log.record({2, 3, flights(5, 15)});
  log.record({3, 4, flights(20, 30)});  // disjoint from viewer
  EXPECT_EQ(log.unseen_from(2, 0), 1u);
  EXPECT_EQ(log.unseen_departed(flights(0, 10), 0), 0u);
  // Once the sources leave, their records are judged by the touched
  // snapshot: viewer [0,10] that has seen nothing misses two.
  for (const ViewId source : {2, 3, 4}) log.retire(source);
  EXPECT_EQ(log.unseen_from(2, 0), 0u);
  EXPECT_EQ(log.unseen_departed(flights(0, 10), 0), 2u);
}

TEST(MergeLogTest, ExcludesOwnMerges) {
  // Sources are indexed apart, so a viewer counts its neighbours'
  // merges and never its own.
  MergeLog log;
  log.record({1, 1, flights(0, 10)});
  log.record({2, 2, flights(0, 10)});
  log.record({3, 2, flights(0, 10)});
  EXPECT_EQ(log.unseen_from(1, 0), 1u);
  EXPECT_EQ(log.unseen_from(2, 0), 2u);
  EXPECT_EQ(log.unseen_from(3, 0), 0u);
}

TEST(MergeLogTest, SinceFiltersSeenVersions) {
  MergeLog log;
  for (Version v = 1; v <= 10; ++v) {
    log.record({v, 99, flights(0, 10)});
  }
  EXPECT_EQ(log.unseen_from(99, 0), 10u);
  EXPECT_EQ(log.unseen_from(99, 7), 3u);
  EXPECT_EQ(log.unseen_from(99, 10), 0u);
  EXPECT_EQ(log.unseen_from(99, 999), 0u);
  log.retire(99);
  EXPECT_EQ(log.unseen_departed(flights(0, 10), 0), 10u);
  EXPECT_EQ(log.unseen_departed(flights(0, 10), 7), 3u);
  EXPECT_EQ(log.unseen_departed(flights(0, 10), 999), 0u);
}

TEST(MergeLogTest, PruneDropsOldRecords) {
  MergeLog log;
  for (Version v = 1; v <= 10; ++v) {
    log.record({v, v % 2 == 0 ? ViewId{98} : ViewId{99}, flights(0, 10)});
  }
  log.retire(98);
  EXPECT_EQ(log.prune_below(4), 4u);
  EXPECT_EQ(log.size(), 6u);
  // Counts for viewers synced past the floor are unaffected, in both
  // indexes.
  EXPECT_EQ(log.unseen_from(99, 4), 3u);        // 5, 7, 9
  EXPECT_EQ(log.unseen_departed(flights(0, 10), 4), 3u);  // 6, 8, 10
  EXPECT_EQ(log.unseen_from(99, 0), 3u);  // 1 and 3 are gone
  EXPECT_EQ(log.prune_below(100), 6u);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.unseen_from(99, 0), 0u);
  EXPECT_EQ(log.unseen_departed(flights(0, 10), 0), 0u);
}

TEST(MergeLogTest, ConflictFilterUsesProperties) {
  MergeLog log;
  log.record({1, 2, flights(0, 4)});
  log.record({2, 2, flights(5, 9)});
  log.record({3, 2, flights(3, 6)});
  log.retire(2);
  EXPECT_EQ(log.unseen_departed(flights(0, 2), 0), 1u);   // only [0,4]
  EXPECT_EQ(log.unseen_departed(flights(4, 5), 0), 3u);   // touches all
  EXPECT_EQ(log.unseen_departed(flights(100, 110), 0), 0u);
}

TEST(MergeLogTest, RetireKeepsInterleavedSourcesOrdered) {
  MergeLog log;
  // Three sources interleaved; they retire out of order, one record
  // lands after its source left, and the log is pruned in between.
  for (Version v = 1; v <= 12; ++v) {
    log.record({v, static_cast<ViewId>(v % 3 + 1), flights(v, v)});
  }
  log.retire(3);  // 2, 5, 8, 11
  EXPECT_EQ(log.prune_below(3), 3u);
  log.retire(1);  // 6, 9, 12 (3 was pruned)
  log.record({13, 7, flights(13, 13)});
  log.retire(7);
  EXPECT_EQ(log.unseen_from(2, 0), 3u);  // 4, 7, 10
  // Departed: 5, 6, 8, 9, 11, 12, 13 — each touches only its own flight.
  EXPECT_EQ(log.unseen_departed(flights(0, 100), 0), 7u);
  EXPECT_EQ(log.unseen_departed(flights(0, 100), 8), 4u);
  EXPECT_EQ(log.unseen_departed(flights(6, 9), 5), 3u);  // 6, 8, 9
  EXPECT_EQ(log.unseen_departed(flights(7, 7), 0), 0u);  // 7 is live
  EXPECT_EQ(log.prune_below(13), 10u);
  EXPECT_EQ(log.unseen_departed(flights(0, 100), 0), 0u);
  EXPECT_EQ(log.unseen_from(2, 0), 0u);
}

}  // namespace
}  // namespace flecc::core

// Cache-manager write-ahead journal tests (PROTOCOL.md "View migration
// & CM journaling"): without a journal a crash loses whatever the WEAK
// write buffer held (the seed behavior, pinned here as the regression
// baseline); with a journal the restarted manager replays the buffered
// write set and unacked push intents, resumes its view under a bumped
// incarnation, and every update reaches the primary exactly once —
// gated by the I2/I3 conformance monitor.
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

/// Crash-restart a member: halt the old manager (silent process death),
/// drop the journal's unflushed tail, and bring up a fresh manager on
/// the SAME address and journal with an EMPTY view — everything it
/// re-delivers must come from the journal.
Harness::Member restart_member(Harness& h, Harness::Member& old,
                               MemoryDurabilityStore& journal,
                               CacheManager::Config cfg) {
  const net::Address addr = old.cm->address();
  old.cm->halt();
  journal.crash();
  old.cm.reset();
  auto view = std::make_unique<KvView>(0, 9);
  cfg.view_name = "kv.View";
  cfg.properties = view->properties();
  cfg.journal = &journal;
  auto cm = std::make_unique<CacheManager>(*h.fabric_, addr, h.dir_addr_,
                                           *view, std::move(cfg));
  return Harness::Member{std::move(view), std::move(cm)};
}

TEST(CmJournalTest, WithoutJournalCrashLosesBufferedWrites) {
  Harness h(2);
  CacheManager::Config cfg;
  cfg.write_buffer_ops = 4;
  auto a = h.make_member(0, 9, cfg);
  a.cm->init_image();
  h.run();

  // The push is absorbed locally: it completes at once, the deltas stay
  // in the view awaiting the next real extraction.
  a.cm->start_use_image();
  a.view->increment(1, 5);
  a.cm->end_use_image(/*modified=*/true);
  bool pushed = false;
  a.cm->push_image([&] { pushed = true; });
  h.run();
  EXPECT_TRUE(pushed);
  EXPECT_EQ(a.cm->write_buffer_depth(), 1u);
  ASSERT_EQ(h.primary_.cell(1), 0);

  // Crash before any extraction: the buffered update is gone for good.
  // This is the pre-journal behavior the journal exists to fix.
  a.cm->halt();
  h.run();
  EXPECT_EQ(h.primary_.cell(1), 0);
}

TEST(CmJournalTest, JournalReplayDeliversBufferedWritesExactlyOnce) {
  MemoryDurabilityStore journal(/*flush_every=*/1);
  // One buffer per agent: a TraceBuffer carries its owner's Lamport
  // clock, so sharing one across endpoints would scramble stamping.
  obs::TraceRecorder rec(1 << 14);
  DirectoryManager::Config dcfg;
  dcfg.trace = rec.make_buffer("dm");
  Harness h(2, 100, dcfg);
  CacheManager::Config cfg;
  cfg.write_buffer_ops = 4;
  cfg.journal = &journal;
  cfg.trace = rec.make_buffer("cm.a");
  auto a = h.make_member(0, 9, cfg);
  a.cm->init_image();
  h.run();
  const ViewId view = a.cm->id();

  // Two absorbed pushes accumulate in the write buffer; each absorb
  // journals the cumulative buffered write set.
  a.cm->start_use_image();
  a.view->increment(1, 5);
  a.cm->end_use_image(/*modified=*/true);
  a.cm->push_image();
  a.cm->start_use_image();
  a.view->increment(2, 3);
  a.cm->end_use_image(/*modified=*/true);
  a.cm->push_image();
  h.run();
  ASSERT_EQ(a.cm->write_buffer_depth(), 2u);
  ASSERT_EQ(h.primary_.cell(1), 0);
  ASSERT_GE(a.cm->stats().get("journal.write"), 2u);

  auto a2 = restart_member(h, a, journal, cfg);
  EXPECT_EQ(a2.cm->incarnation(), 2u);
  EXPECT_EQ(a2.cm->resumed_view(), view);
  h.run();

  // The restart resumed the SAME view id and re-delivered the buffered
  // increments from the journal.
  EXPECT_TRUE(a2.cm->registered());
  EXPECT_EQ(a2.cm->id(), view);
  EXPECT_EQ(h.directory_->stats().get("view.resumed"), 1u);
  EXPECT_EQ(a2.cm->stats().get("journal.replay"), 1u);
  EXPECT_EQ(a2.cm->stats().get("journal.replayed.wbuf"), 1u);
  EXPECT_EQ(h.primary_.cell(1), 5);
  EXPECT_EQ(h.primary_.cell(2), 3);

  // Exactly once: later traffic does not re-apply the replayed deltas.
  bool in_use = false;
  a2.cm->start_use_image([&] { in_use = true; });
  h.run();
  ASSERT_TRUE(in_use);
  a2.view->increment(1, 1);
  a2.cm->end_use_image(/*modified=*/true);
  bool pushed = false;
  a2.cm->push_image([&] { pushed = true; });
  h.run();
  // wbuf absorbs it; force it out through a kill.
  a2.cm->kill_image();
  h.run();
  EXPECT_TRUE(pushed);
  EXPECT_EQ(h.primary_.cell(1), 6);
  EXPECT_EQ(h.primary_.cell(2), 3);

  InvariantMonitor checker;
  checker.run(rec.snapshot());
  EXPECT_TRUE(checker.violations().empty()) << checker.health_report();
  EXPECT_GE(checker.check_count(obs::monitor::Invariant::kExactlyOnceMerge),
            1u);
}

TEST(CmJournalTest, InFlightPushReplayedAfterCrashMergesOnce) {
  MemoryDurabilityStore journal(/*flush_every=*/1);
  DirectoryManager::Config dcfg;
  Harness h(2, 100, dcfg);
  CacheManager::Config cfg;
  cfg.journal = &journal;
  auto a = h.make_member(0, 9, cfg);
  a.cm->init_image();
  h.run();
  const ViewId view = a.cm->id();

  // Extract and send a push, then die before the ack arrives. The
  // original PushUpdate is already in the fabric and WILL merge; the
  // journaled intent replays the same extraction under the same request
  // id on restart.
  a.view->increment(3, 7);
  a.cm->push_image();
  h.run_until(h.sim_.now() + sim::usec(1));  // issue the send only
  ASSERT_TRUE(a.cm->op_in_flight());
  ASSERT_GE(a.cm->stats().get("journal.intent"), 1u);

  auto a2 = restart_member(h, a, journal, cfg);
  EXPECT_EQ(a2.cm->resumed_view(), view);
  h.run();

  EXPECT_TRUE(a2.cm->registered());
  EXPECT_EQ(a2.cm->id(), view);
  EXPECT_GE(a2.cm->stats().get("journal.replayed.intent"), 1u);
  // Merged exactly once: the directory's (address, req) exactly-once
  // key absorbed whichever copy arrived second.
  EXPECT_EQ(h.primary_.cell(3), 7);
  const auto& ds = h.directory_->stats();
  EXPECT_GE(ds.get("op.push.replayed_merge") + ds.get("msg.duplicate.replayed") +
                ds.get("msg.duplicate.dropped"),
            1u);
}

TEST(CmJournalTest, FreshJournalRegistersNormally) {
  MemoryDurabilityStore journal(/*flush_every=*/1);
  Harness h(1);
  CacheManager::Config cfg;
  cfg.journal = &journal;
  auto a = h.make_member(0, 9, cfg);
  EXPECT_EQ(a.cm->incarnation(), 1u);
  EXPECT_EQ(a.cm->resumed_view(), kInvalidViewId);
  a.cm->init_image();
  h.run();
  EXPECT_TRUE(a.cm->registered());
  EXPECT_GE(journal.entry_count(), 1u);  // the (view, incarnation) binding
}

}  // namespace
}  // namespace flecc::core

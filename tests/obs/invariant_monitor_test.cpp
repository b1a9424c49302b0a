// InvariantMonitor unit tests over synthetic event streams: each
// invariant (I1-I4, causality) both passes on a conforming stream and
// fires on a minimally mutated one, plus the liveness warnings, the
// feedback filter, and metrics export. These are pure analysis-side
// tests: they run identically under FLECC_TRACE=OFF because the
// monitor consumes plain TraceEvent values.
#include "obs/monitor/invariant_monitor.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace flecc::obs::monitor {
namespace {

constexpr net::Address kDir{99, 1};
constexpr net::Address kA{1, 1};
constexpr net::Address kB{2, 1};
constexpr std::uint64_t kViewA = 101;
constexpr std::uint64_t kViewB = 102;

TraceEvent cm(sim::Time at, net::Address who, EventKind kind,
              std::uint64_t span, const char* label, std::uint64_t a = 0,
              std::uint64_t b = 0, std::uint64_t clock = 0) {
  TraceEvent e = make_event(at, kind, Role::kCacheManager, agent_key(who),
                            span, label, a, b);
  e.clock = clock;
  return e;
}

TraceEvent dm(sim::Time at, EventKind kind, std::uint64_t span,
              const char* label, std::uint64_t a = 0, std::uint64_t b = 0,
              std::uint64_t clock = 0) {
  TraceEvent e = make_event(at, kind, Role::kDirectory, agent_key(kDir),
                            span, label, a, b);
  e.clock = clock;
  return e;
}

/// A conforming strong-mode round: A acquires (becoming the exclusive
/// holder), then B acquires after the directory invalidates A.
std::vector<TraceEvent> clean_acquire_round() {
  const std::uint64_t sa = span_id(kA, 1);
  const std::uint64_t sb = span_id(kB, 1);
  return {
      cm(10, kA, EventKind::kOpStarted, sa, "acquire", kViewA, 0, 1),
      cm(11, kA, EventKind::kMsgSent, sa, "flecc.acquire_req", 0, 0, 2),
      dm(20, EventKind::kMsgReceived, sa, "flecc.acquire_req", 0, 0, 3),
      dm(21, EventKind::kMsgSent, sa, "flecc.acquire_grant", 0, 0, 4),
      cm(30, kA, EventKind::kOpCompleted, sa, "acquire", 0, 0, 5),

      cm(40, kB, EventKind::kOpStarted, sb, "acquire", kViewB, 0, 1),
      cm(41, kB, EventKind::kMsgSent, sb, "flecc.acquire_req", 0, 0, 2),
      dm(50, EventKind::kMsgReceived, sb, "flecc.acquire_req", 0, 0, 6),
      // The directory does its invalidation duty towards A (b = view)...
      dm(51, EventKind::kMsgSent, 0, "flecc.invalidate_req", 7, kViewA, 7),
      cm(60, kA, EventKind::kMsgSent, 0, "flecc.invalidate_ack", 7, 0, 8),
      // ...before granting B.
      dm(70, EventKind::kMsgSent, sb, "flecc.acquire_grant", 0, 0, 9),
      cm(80, kB, EventKind::kOpCompleted, sb, "acquire", 0, 0, 10),
  };
}

TEST(InvariantMonitorTest, CleanAcquireRoundPasses) {
  InvariantMonitor mon;
  mon.run(clean_acquire_round());
  EXPECT_TRUE(mon.violations().empty()) << mon.health_report();
  EXPECT_EQ(mon.check_count(Invariant::kExclusivity), 2u);
  EXPECT_EQ(mon.events_seen(), 12u);
}

TEST(InvariantMonitorTest, I1FiresOnGrantWithoutInvalidation) {
  // Remove the invalidate_req/ack pair: B is granted while A still
  // holds a copy the directory never asked to surrender.
  auto events = clean_acquire_round();
  events.erase(events.begin() + 8, events.begin() + 10);
  InvariantMonitor mon;
  mon.run(events);
  EXPECT_EQ(mon.violation_count(Invariant::kExclusivity), 1u);
  ASSERT_FALSE(mon.violations().empty());
  EXPECT_EQ(mon.violations()[0].invariant, Invariant::kExclusivity);
}

TEST(InvariantMonitorTest, I1ToleratesCrashTimeoutRounds) {
  // A never acks (crashed), but the directory DID send the
  // invalidate_req — the grant after the liveness timeout is legal.
  auto events = clean_acquire_round();
  events.erase(events.begin() + 9);  // drop only A's invalidate_ack
  InvariantMonitor mon;
  mon.run(events);
  EXPECT_EQ(mon.violation_count(Invariant::kExclusivity), 0u)
      << mon.health_report();
}

/// A dirty fetch round: B extracts (dirty FetchReply, token 5) and the
/// directory merges it once over the live path.
std::vector<TraceEvent> clean_fetch_merge() {
  const std::uint64_t sb = span_id(kB, 3);
  return {
      cm(10, kB, EventKind::kOpStarted, sb, "pull", kViewB, 0, 1),
      // b=1: the reply carries a dirty image; a = fetch token.
      cm(20, kB, EventKind::kMsgSent, 0, "flecc.fetch_reply", 5, 1, 2),
      dm(30, EventKind::kMergeApplied, 0, "fetch", 5, kViewB, 3),
      cm(40, kB, EventKind::kOpCompleted, sb, "pull", 0, 0, 4),
  };
}

TEST(InvariantMonitorTest, SingleMergePasses) {
  InvariantMonitor mon;
  mon.run(clean_fetch_merge());
  EXPECT_TRUE(mon.violations().empty()) << mon.health_report();
  EXPECT_EQ(mon.check_count(Invariant::kNoLostUpdate), 1u);
}

TEST(InvariantMonitorTest, I2FiresOnDoubleMerge) {
  auto events = clean_fetch_merge();
  // The same extraction (token 5, view B) merges again via an echo.
  events.push_back(dm(50, EventKind::kMergeApplied, 0, "echo.fetch", 5,
                      kViewB, 5));
  InvariantMonitor mon;
  mon.run(events);
  EXPECT_EQ(mon.violation_count(Invariant::kExactlyOnceMerge), 1u);
}

TEST(InvariantMonitorTest, RetransmittedExtractionIsNotADoubleMerge) {
  auto events = clean_fetch_merge();
  // The CM re-sends the same dirty reply (loss recovery); only one
  // merge happens. Dedup at the directory must keep this clean.
  events.insert(events.begin() + 2,
                cm(25, kB, EventKind::kMsgRetransmitted, 0,
                   "flecc.fetch_reply", 5, 1, 3));
  InvariantMonitor mon;
  mon.run(events);
  EXPECT_TRUE(mon.violations().empty()) << mon.health_report();
}

TEST(InvariantMonitorTest, I3FiresWhenAPushCompletesOverALostExtraction) {
  const std::uint64_t sb = span_id(kB, 3);
  const std::uint64_t sp = span_id(kB, 4);
  std::vector<TraceEvent> events = {
      cm(10, kB, EventKind::kOpStarted, sb, "pull", kViewB, 0, 1),
      cm(20, kB, EventKind::kMsgSent, 0, "flecc.fetch_reply", 5, 1, 2),
      // merge never arrives (lost, no echo), yet a later push completes:
      cm(40, kB, EventKind::kOpCompleted, sb, "pull", 0, 0, 4),
      cm(50, kB, EventKind::kOpStarted, sp, "push", kViewB, 0, 5),
      cm(51, kB, EventKind::kMsgSent, sp, "flecc.push_update", 0, 1, 6),
      dm(60, EventKind::kMergeApplied, sp, "push", 0, kViewB, 7),
      cm(70, kB, EventKind::kOpCompleted, sp, "push", 0, 0, 8),
  };
  InvariantMonitor mon;
  mon.run(events);
  EXPECT_EQ(mon.violation_count(Invariant::kNoLostUpdate), 1u);
  // The push's own image DID merge — exactly one I3 finding.
  EXPECT_EQ(mon.violations().size(), 1u) << mon.health_report();
}

TEST(InvariantMonitorTest, UnmergedExtractionAtEndOfTraceIsAWarning) {
  auto events = clean_fetch_merge();
  events.erase(events.begin() + 2);  // merge missing, but no later push
  InvariantMonitor mon;
  mon.run(events);
  EXPECT_TRUE(mon.violations().empty()) << mon.health_report();
  ASSERT_EQ(mon.warnings().size(), 1u);
  EXPECT_NE(mon.warnings()[0].detail.find("unmerged"), std::string::npos);
}

TEST(InvariantMonitorTest, I4FiresOnPullWhileStrong) {
  const std::uint64_t sp = span_id(kA, 9);
  std::vector<TraceEvent> events = {
      cm(10, kA, EventKind::kOpStarted, span_id(kA, 1), "init", kViewA, 0, 1),
      cm(20, kA, EventKind::kOpCompleted, span_id(kA, 1), "init", 0, 0, 2),
      cm(30, kA, EventKind::kModeSwitch, 0, "strong", 0, 0, 3),
      cm(40, kA, EventKind::kOpStarted, sp, "pull", kViewA, 0, 4),
      cm(50, kA, EventKind::kOpCompleted, sp, "pull", 0, 0, 5),
  };
  InvariantMonitor mon;
  mon.run(events);
  EXPECT_EQ(mon.violation_count(Invariant::kModeQuiescence), 1u);

  // Back in weak mode the same pull is fine.
  events[2] = cm(30, kA, EventKind::kModeSwitch, 0, "weak", 0, 0, 3);
  InvariantMonitor mon2;
  mon2.run(events);
  EXPECT_EQ(mon2.violation_count(Invariant::kModeQuiescence), 0u);
}

TEST(InvariantMonitorTest, I4ToleratesPullsQueuedBeforeTheStrongSwitch) {
  // FIFO drain: a pull ENQUEUED while still weak may complete after
  // the switch ack without violating quiescence; only pulls issued
  // after the switch (no weak-mode enqueue on record) fire.
  const std::uint64_t sp1 = span_id(kA, 9);
  const std::uint64_t sp2 = span_id(kA, 11);
  std::vector<TraceEvent> events = {
      cm(10, kA, EventKind::kOpStarted, span_id(kA, 1), "init", kViewA, 0, 1),
      cm(20, kA, EventKind::kOpCompleted, span_id(kA, 1), "init", 0, 0, 2),
      cm(25, kA, EventKind::kOpEnqueued, 0, "pull", 1, 0, 3),  // still weak
      cm(30, kA, EventKind::kModeSwitch, 0, "strong", 0, 0, 4),
      cm(40, kA, EventKind::kOpStarted, sp1, "pull", kViewA, 0, 5),
      cm(50, kA, EventKind::kOpCompleted, sp1, "pull", 0, 0, 6),  // queued: ok
      cm(55, kA, EventKind::kOpEnqueued, 0, "pull", 1, 0, 7),  // while strong
      cm(60, kA, EventKind::kOpStarted, sp2, "pull", kViewA, 0, 8),
      cm(70, kA, EventKind::kOpCompleted, sp2, "pull", 0, 0, 9),  // fires
  };
  InvariantMonitor mon;
  mon.run(events);
  EXPECT_EQ(mon.check_count(Invariant::kModeQuiescence), 2u);
  EXPECT_EQ(mon.violation_count(Invariant::kModeQuiescence), 1u);
  ASSERT_EQ(mon.violations().size(), 1u);
  EXPECT_EQ(mon.violations()[0].span, sp2);
}

TEST(InvariantMonitorTest, CausalityFiresOnClockRegression) {
  std::vector<TraceEvent> events = {
      cm(10, kA, EventKind::kMsgSent, 0, "flecc.heartbeat", 0, 0, 9),
      cm(20, kA, EventKind::kMsgSent, 0, "flecc.heartbeat", 0, 0, 3),
  };
  InvariantMonitor mon;
  mon.run(events);
  EXPECT_EQ(mon.violation_count(Invariant::kCausality), 1u);
}

TEST(InvariantMonitorTest, CausalityFiresOnReplyBeforeRequest) {
  const std::uint64_t sa = span_id(kA, 1);
  std::vector<TraceEvent> events = {
      cm(10, kA, EventKind::kOpStarted, sa, "pull", kViewA, 0, 5),
      cm(11, kA, EventKind::kMsgSent, sa, "flecc.pull_req", 0, 0, 6),
      // The directory's span event carries a stamp NOT past the send:
      // impossible if it really observed the request.
      dm(20, EventKind::kMsgReceived, sa, "flecc.pull_req", 0, 0, 4),
  };
  InvariantMonitor mon;
  mon.run(events);
  EXPECT_GE(mon.violation_count(Invariant::kCausality), 1u);
}

TEST(InvariantMonitorTest, ZeroClocksAreSkippedNotViolations) {
  // FLECC_TRACE=OFF senders and fabric drops stamp no clock; a mix of
  // stamped and unstamped events must not trip causality.
  std::vector<TraceEvent> events = {
      cm(10, kA, EventKind::kMsgSent, 0, "flecc.heartbeat", 0, 0, 9),
      cm(20, kA, EventKind::kMsgSent, 0, "flecc.heartbeat", 0, 0, 0),
      cm(30, kA, EventKind::kMsgSent, 0, "flecc.heartbeat", 0, 0, 10),
  };
  InvariantMonitor mon;
  mon.run(events);
  EXPECT_TRUE(mon.violations().empty()) << mon.health_report();
}

TEST(InvariantMonitorTest, HeartbeatStreakWarnsOnceAtThreshold) {
  InvariantMonitor mon;
  std::vector<TraceEvent> events;
  for (std::uint64_t streak = 1; streak <= 5; ++streak) {
    events.push_back(cm(10 * streak, kA, EventKind::kHeartbeatMiss, 0,
                        "heartbeat", streak));
  }
  mon.run(events);
  EXPECT_TRUE(mon.violations().empty());
  ASSERT_EQ(mon.warnings().size(), 1u);  // crossing the threshold, once
  EXPECT_EQ(mon.warnings()[0].at, 30);   // at the third unacked beat
}

TEST(InvariantMonitorTest, StaleOpWarnsViaFinalize) {
  InvariantMonitor::Config cfg;
  cfg.max_op_age = 100;
  InvariantMonitor mon(cfg);
  mon.run({
      cm(10, kA, EventKind::kOpStarted, span_id(kA, 1), "push", kViewA, 0, 1),
      cm(500, kA, EventKind::kMsgSent, 0, "flecc.heartbeat", 0, 0, 2),
  });
  ASSERT_EQ(mon.warnings().size(), 1u);
  EXPECT_NE(mon.warnings()[0].detail.find("pending"), std::string::npos);
  EXPECT_TRUE(mon.violations().empty());
}

TEST(InvariantMonitorTest, IgnoresItsOwnFindingKindsOnInput) {
  InvariantMonitor mon;
  mon.on_event(make_event(10, EventKind::kInvariantViolation, Role::kOther,
                          0, 0, "I1.exclusivity"));
  mon.on_event(make_event(20, EventKind::kMonitorWarning, Role::kOther, 0, 0,
                          "monitor"));
  EXPECT_EQ(mon.events_seen(), 0u);
}

TEST(InvariantMonitorTest, EmitsFindingsIntoTheConfiguredBuffer) {
  if (!kTraceEnabled) GTEST_SKIP() << "built with FLECC_TRACE=OFF";
  TraceBuffer out(16);
  InvariantMonitor::Config cfg;
  cfg.out = &out;
  InvariantMonitor mon(cfg);
  auto events = clean_acquire_round();
  events.erase(events.begin() + 8, events.begin() + 10);  // I1 mutation
  mon.run(events);
  ASSERT_EQ(mon.violations().size(), 1u);
  const auto snap = out.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].kind, EventKind::kInvariantViolation);
  EXPECT_STREQ(snap[0].label, "I1.exclusivity");
}

TEST(InvariantMonitorTest, MonitorAttachedToItsOwnOutBufferDoesNotFeedBack) {
  if (!kTraceEnabled) GTEST_SKIP() << "built with FLECC_TRACE=OFF";
  TraceBuffer out(16);
  InvariantMonitor::Config cfg;
  cfg.out = &out;
  InvariantMonitor mon(cfg);
  out.set_sink(&mon);  // findings loop straight back into the monitor
  auto events = clean_acquire_round();
  events.erase(events.begin() + 8, events.begin() + 10);
  for (const auto& e : events) out.emit(e);
  mon.finalize();
  // One real violation; the fed-back finding event neither deadlocks
  // nor inflates the counts.
  EXPECT_EQ(mon.violations().size(), 1u);
  EXPECT_EQ(mon.events_seen(), events.size());
}

TEST(InvariantMonitorTest, ExportMetricsNamesAreStable) {
  InvariantMonitor mon;
  mon.run(clean_acquire_round());
  MetricsRegistry reg;
  mon.export_metrics(reg);
  EXPECT_EQ(reg.counter("monitor.events"), mon.events_seen());
  EXPECT_EQ(reg.counter("monitor.i1.checks"), 2u);
  EXPECT_EQ(reg.counter("monitor.i1.violations"), 0u);
  EXPECT_EQ(reg.counter("monitor.violations"), 0u);
  // Op latencies land as summaries under monitor.op.latency_us.<label>.
  EXPECT_EQ(reg.sample_sets().count("monitor.op.latency_us.acquire"), 1u);
  // Both agents completed a sync op, so both have a staleness sample.
  const auto it = reg.sample_sets().find("monitor.view.staleness_us");
  ASSERT_NE(it, reg.sample_sets().end());
  EXPECT_EQ(it->second.count(), 2u);
  // And the Prometheus rendering carries the flecc_ prefix, with the
  // op dimension rendered as a label rather than a name suffix.
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("flecc_monitor_events"), std::string::npos);
  EXPECT_NE(prom.find("flecc_monitor_op_latency_us{op=\"acquire\""),
            std::string::npos);
  EXPECT_NE(prom.find("quantile=\"0.999\""), std::string::npos);
}

// ---- directory crash-recovery epochs --------------------------------------

TEST(InvariantMonitorTest, RecoveryEpochGrantsExactlyOneRemerge) {
  // The checkpoint lost the merge marker (flush lag): after the
  // restart the revived round legally re-applies the same extraction
  // once...
  auto events = clean_fetch_merge();
  events.push_back(dm(100, EventKind::kRecoveryBegin, 0, "restart", 2, 1, 5));
  events.push_back(dm(150, EventKind::kRecoveryEnd, 0, "rebuilt", 2, 0, 6));
  events.push_back(
      dm(200, EventKind::kMergeApplied, 0, "late_fetch", 5, kViewB, 7));
  InvariantMonitor mon;
  mon.run(events);
  EXPECT_TRUE(mon.violations().empty()) << mon.health_report();

  // ...but a second merge within the SAME epoch still trips I2.
  events.push_back(
      dm(210, EventKind::kMergeApplied, 0, "echo.fetch", 5, kViewB, 8));
  InvariantMonitor strict;
  strict.run(events);
  EXPECT_EQ(strict.violation_count(Invariant::kExactlyOnceMerge), 1u);
}

TEST(InvariantMonitorTest, PreCrashExtractionIsExemptFromI3AfterRestart) {
  // Same shape as I3FiresWhenAPushCompletesOverALostExtraction, but the
  // directory crashed between the extraction and the push: the fetch
  // round died with the old incarnation, so the completed push proves
  // nothing. finalize() still surfaces the unmerged image as a warning.
  const std::uint64_t sb = span_id(kB, 3);
  const std::uint64_t sp = span_id(kB, 4);
  std::vector<TraceEvent> events = {
      cm(10, kB, EventKind::kOpStarted, sb, "pull", kViewB, 0, 1),
      cm(20, kB, EventKind::kMsgSent, 0, "flecc.fetch_reply", 5, 1, 2),
      cm(40, kB, EventKind::kOpCompleted, sb, "pull", 0, 0, 3),
      dm(50, EventKind::kRecoveryBegin, 0, "restart", 2, 0, 10),
      dm(60, EventKind::kRecoveryEnd, 0, "rebuilt", 2, 0, 11),
      cm(70, kB, EventKind::kOpStarted, sp, "push", kViewB, 0, 12),
      cm(71, kB, EventKind::kMsgSent, sp, "flecc.push_update", 0, 1, 13),
      dm(80, EventKind::kMergeApplied, sp, "push", 0, kViewB, 14),
      cm(90, kB, EventKind::kOpCompleted, sp, "push", 0, 0, 15),
  };
  InvariantMonitor mon;
  mon.run(events);
  EXPECT_EQ(mon.violation_count(Invariant::kNoLostUpdate), 0u)
      << mon.health_report();
  bool warned = false;
  for (const auto& w : mon.warnings()) {
    if (w.detail.find("unmerged") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned) << mon.health_report();
}

TEST(InvariantMonitorTest, ReorderedOpsAcrossRestartDoNotTripI3) {
  // The reconnect after a directory restart re-queues an in-flight
  // kill BEHIND a fresh push; the push completes while the kill's
  // dirty image is still outstanding. The kill op is pending and still
  // retrying — its extraction is late, not lost.
  const std::uint64_t sk = span_id(kB, 3);
  const std::uint64_t sp = span_id(kB, 4);
  std::vector<TraceEvent> events = {
      cm(10, kB, EventKind::kOpStarted, sk, "kill", kViewB, 0, 1),
      dm(20, EventKind::kRecoveryBegin, 0, "restart", 2, 0, 2),
      dm(30, EventKind::kRecoveryEnd, 0, "rebuilt", 2, 0, 3),
      cm(35, kB, EventKind::kMsgSent, sk, "flecc.kill_req", 0, 1, 5),
      cm(40, kB, EventKind::kOpStarted, sp, "push", kViewB, 0, 6),
      cm(41, kB, EventKind::kMsgSent, sp, "flecc.push_update", 0, 1, 7),
      dm(50, EventKind::kMergeApplied, sp, "push", 0, kViewB, 8),
      cm(60, kB, EventKind::kOpCompleted, sp, "push", 0, 0, 9),
      // The kill re-issues, merges, and completes a moment later.
      dm(70, EventKind::kMergeApplied, sk, "kill", 0, kViewB, 11),
      cm(80, kB, EventKind::kOpCompleted, sk, "kill", 0, 0, 12),
  };
  InvariantMonitor mon;
  mon.run(events);
  EXPECT_TRUE(mon.violations().empty()) << mon.health_report();
}

TEST(InvariantMonitorTest, UnresolvedRecoveryEpochWarnsAndCounts) {
  auto events = clean_acquire_round();
  events.push_back(dm(100, EventKind::kRecoveryBegin, 0, "restart", 2, 0, 20));
  InvariantMonitor mon;
  mon.run(events);
  EXPECT_EQ(mon.unresolved_recovery_epochs(), 1u);
  bool warned = false;
  for (const auto& w : mon.warnings()) {
    if (w.detail.find("never completed") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned) << mon.health_report();
  EXPECT_NE(mon.health_report().find("epochs=1 unresolved=1"),
            std::string::npos);

  events.push_back(dm(150, EventKind::kRecoveryEnd, 0, "rebuilt", 2, 0, 21));
  InvariantMonitor resolved;
  resolved.run(events);
  EXPECT_EQ(resolved.unresolved_recovery_epochs(), 0u);
}

TEST(InvariantMonitorTest, RecoveryMetricsAreExported) {
  std::vector<TraceEvent> events = {
      dm(10, EventKind::kRecoveryBegin, 0, "restart", 2, 3, 1),
      dm(20, EventKind::kMsgFenced, 0, "flecc.push_update", 1, 2, 2),
      cm(30, kA, EventKind::kMsgFenced, 0, "flecc.invalidate_req", 1, 2, 3),
      dm(40, EventKind::kRecoveryEnd, 0, "rebuilt", 2, 0, 4),
  };
  InvariantMonitor mon;
  mon.run(events);
  EXPECT_TRUE(mon.violations().empty()) << mon.health_report();
  MetricsRegistry reg;
  mon.export_metrics(reg);
  EXPECT_EQ(reg.counter("monitor.recovery.epochs"), 1u);
  EXPECT_EQ(reg.counter("monitor.recovery.unresolved"), 0u);
  EXPECT_EQ(reg.counter("monitor.recovery.fenced"), 2u);
  const auto it = reg.sample_sets().find("monitor.recovery.rebuild_us");
  ASSERT_NE(it, reg.sample_sets().end());
  EXPECT_EQ(it->second.count(), 1u);
}

TEST(InvariantMonitorTest, HealthReportShowsVerdict) {
  InvariantMonitor mon;
  mon.run(clean_acquire_round());
  EXPECT_NE(mon.health_report().find("monitor: PASS"), std::string::npos);

  auto events = clean_acquire_round();
  events.erase(events.begin() + 8, events.begin() + 10);
  InvariantMonitor bad;
  bad.run(events);
  EXPECT_NE(bad.health_report().find("1 violation(s)"), std::string::npos);
  EXPECT_NE(bad.health_report().find("I1.exclusivity"), std::string::npos);
}

}  // namespace
}  // namespace flecc::obs::monitor

// Trace analysis tests: summarize() tallies and latency pairing,
// metrics export, span listing, and the sequence renderer. Events are
// built by hand, so no protocol run is needed.
#include "obs/analysis.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace flecc::obs {
namespace {

/// A small two-op trace: one clean pull (span A: 100us..400us), one
/// pull that needed a retransmission (span B: 500us..1500us), plus a
/// drop, a dedup hit and a validity trigger firing.
std::vector<TraceEvent> small_trace() {
  const net::Address cm3{3, 1};
  const net::Address cm4{4, 1};
  const net::Address dm{9, 1};
  const std::uint64_t a = span_id(cm3, 1);
  const std::uint64_t b = span_id(cm4, 1);
  std::vector<TraceEvent> out;
  out.push_back(make_event(100, EventKind::kOpStarted, Role::kCacheManager,
                           agent_key(cm3), a, "pull"));
  out.push_back(make_event(110, EventKind::kMsgSent, Role::kCacheManager,
                           agent_key(cm3), a, "flecc.pullReq", 1));
  out.push_back(make_event(300, EventKind::kMsgReceived, Role::kDirectory,
                           agent_key(dm), a, "flecc.pullReq"));
  out.push_back(make_event(400, EventKind::kOpCompleted, Role::kCacheManager,
                           agent_key(cm3), a, "pull", 1));

  out.push_back(make_event(500, EventKind::kOpStarted, Role::kCacheManager,
                           agent_key(cm4), b, "pull"));
  out.push_back(make_event(510, EventKind::kMsgSent, Role::kCacheManager,
                           agent_key(cm4), b, "flecc.pullReq", 1));
  out.push_back(make_event(520, EventKind::kMsgDropped, Role::kFabric,
                           agent_key(cm4), 0, "flecc.pullReq", kDropLoss,
                           agent_key(dm)));
  out.push_back(make_event(900, EventKind::kMsgRetransmitted,
                           Role::kCacheManager, agent_key(cm4), b,
                           "flecc.pullReq", 2));
  out.push_back(make_event(1000, EventKind::kMsgReceived, Role::kDirectory,
                           agent_key(dm), b, "flecc.pullReq"));
  out.push_back(make_event(1100, EventKind::kDedupHit, Role::kDirectory,
                           agent_key(dm), b, "flecc.pullReq"));
  out.push_back(make_event(1200, EventKind::kTriggerFired, Role::kDirectory,
                           agent_key(dm), b, "validity", 2));
  out.push_back(make_event(1500, EventKind::kOpCompleted, Role::kCacheManager,
                           agent_key(cm4), b, "pull", 2));
  return out;
}

TEST(SummarizeTest, TalliesEachEventKind) {
  const auto s = summarize(small_trace());
  EXPECT_EQ(s.total_events, 12u);
  EXPECT_EQ(s.ops_started, 2u);
  EXPECT_EQ(s.ops_completed, 2u);
  EXPECT_EQ(s.ops_unfinished, 0u);
  EXPECT_EQ(s.msgs_sent, 2u);
  EXPECT_EQ(s.msgs_received, 2u);
  EXPECT_EQ(s.retransmits, 1u);
  EXPECT_EQ(s.dedup_hits, 1u);
  EXPECT_EQ(s.drops, 1u);
  EXPECT_EQ(s.drops_by_reason.at("loss"), 1u);
  EXPECT_EQ(s.trigger_fires.at("validity"), 1u);
  EXPECT_EQ(s.first_at, 100);
  EXPECT_EQ(s.last_at, 1500);
}

TEST(SummarizeTest, PairsLatenciesBySpan) {
  const auto s = summarize(small_trace());
  ASSERT_EQ(s.op_latency_us.count("pull"), 1u);
  const auto& lat = s.op_latency_us.at("pull");
  ASSERT_EQ(lat.count(), 2u);
  // Span A: 400-100 = 300us; span B: 1500-500 = 1000us.
  EXPECT_DOUBLE_EQ(lat.quantile(0.0), 300.0);
  EXPECT_DOUBLE_EQ(lat.quantile(1.0), 1000.0);
}

TEST(SummarizeTest, UnfinishedOpsAreCounted) {
  auto events = small_trace();
  events.pop_back();  // drop span B's op_completed
  const auto s = summarize(events);
  EXPECT_EQ(s.ops_completed, 1u);
  EXPECT_EQ(s.ops_unfinished, 1u);
  EXPECT_EQ(s.op_latency_us.at("pull").count(), 1u);
}

TEST(SummarizeTest, EmptyTraceIsAllZeroes) {
  const auto s = summarize({});
  EXPECT_EQ(s.total_events, 0u);
  EXPECT_EQ(s.ops_started, 0u);
  EXPECT_TRUE(s.op_latency_us.empty());
}

TEST(DropReasonTest, KnownAndUnknownCodes) {
  EXPECT_STREQ(drop_reason_name(kDropLoss), "loss");
  EXPECT_STREQ(drop_reason_name(kDropPartition), "partition");
  EXPECT_STREQ(drop_reason_name(kDropNoRoute), "no_route");
  EXPECT_STREQ(drop_reason_name(kDropUnbound), "unbound");
  EXPECT_STREQ(drop_reason_name(999), "other");
}

TEST(ExportMetricsTest, CountersAndLatencySamplesAppear)  {
  const auto s = summarize(small_trace());
  MetricsRegistry reg;
  export_metrics(s, reg);
  EXPECT_EQ(reg.counter("trace.msgs.retransmitted"), 1u);
  EXPECT_EQ(reg.counter("trace.dedup.hits"), 1u);
  EXPECT_EQ(reg.counter("trace.msgs.dropped.loss"), 1u);
  ASSERT_EQ(reg.sample_sets().count("op.pull.latency_us"), 1u);
  EXPECT_EQ(reg.sample_sets().at("op.pull.latency_us").count(), 2u);
}

TEST(RenderReportTest, MentionsTheHeadlineNumbers) {
  const auto s = summarize(small_trace());
  const std::string report = render_report(s);
  EXPECT_NE(report.find("pull"), std::string::npos);
  EXPECT_NE(report.find("retransmit"), std::string::npos);
  EXPECT_NE(report.find("dedup"), std::string::npos);
}

TEST(ListSpansTest, MostEventsFirstAndLabeled) {
  const auto spans = list_spans(small_trace());
  ASSERT_EQ(spans.size(), 2u);
  // Span B carries more events than span A.
  EXPECT_EQ(spans[0].span, span_id({4, 1}, 1));
  EXPECT_GE(spans[0].events, spans[1].events);
  EXPECT_EQ(spans[0].label, "pull");
}

TEST(RenderSequenceTest, OneLinePerSpanEvent) {
  const auto events = small_trace();
  const std::uint64_t b = span_id({4, 1}, 1);
  const std::string seq = render_sequence(events, b);
  EXPECT_NE(seq.find("op_started"), std::string::npos);
  EXPECT_NE(seq.find("msg_retransmitted"), std::string::npos);
  EXPECT_NE(seq.find("op_completed"), std::string::npos);
  // Span A's events stay out of span B's view.
  std::size_t lines = 0;
  for (const char c : seq) {
    if (c == '\n') ++lines;
  }
  EXPECT_GE(lines, 7u);  // 7 events carry span B
  EXPECT_EQ(render_sequence(events, 424242).find("op_"), std::string::npos);
}

}  // namespace
}  // namespace flecc::obs

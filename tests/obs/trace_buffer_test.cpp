// TraceBuffer / TraceRecorder unit tests: ring wraparound, drop
// accounting, multi-agent interleaving, span ids, the event
// constructors, and the FLECC_TRACE_EVENT macro.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace flecc::obs {
namespace {

TraceEvent ev(sim::Time at, EventKind kind, std::uint64_t agent,
              std::uint64_t span = 0, const char* label = "x") {
  return make_event(at, kind, Role::kOther, agent, span, label);
}

TEST(TraceEventTest, MakeEventFillsEveryField) {
  const TraceEvent e =
      make_event(1500, EventKind::kMsgSent, Role::kCacheManager, 42, 7,
                 "flecc.pullReq", 3, 9);
  EXPECT_EQ(e.at, 1500);
  EXPECT_EQ(e.kind, EventKind::kMsgSent);
  EXPECT_EQ(e.role, Role::kCacheManager);
  EXPECT_EQ(e.agent, 42u);
  EXPECT_EQ(e.span, 7u);
  EXPECT_EQ(e.a, 3u);
  EXPECT_EQ(e.b, 9u);
  EXPECT_STREQ(e.label, "flecc.pullReq");
}

TEST(TraceEventTest, LongLabelsTruncateWithNul) {
  const std::string longer(100, 'q');
  const TraceEvent e = make_event(0, EventKind::kOpStarted, Role::kOther, 0,
                                  0, longer.c_str());
  EXPECT_EQ(std::string(e.label), std::string(TraceEvent::kLabelCap - 1, 'q'));
}

TEST(TraceEventTest, NullLabelIsEmpty) {
  const TraceEvent e =
      make_event(0, EventKind::kOpStarted, Role::kOther, 0, 0, nullptr);
  EXPECT_STREQ(e.label, "");
}

TEST(SpanIdTest, ZeroRequestMeansNoSpan) {
  EXPECT_EQ(span_id({3, 1}, 0), 0u);
}

TEST(SpanIdTest, DistinctAgentsAndRequestsGetDistinctSpans) {
  const net::Address a{3, 1};
  const net::Address b{4, 1};
  EXPECT_NE(span_id(a, 1), span_id(a, 2));
  EXPECT_NE(span_id(a, 1), span_id(b, 1));
  EXPECT_EQ(span_id(a, 17), span_id(a, 17));  // both ends can compute it
}

TEST(AgentKeyTest, RoundTripsAddresses) {
  const net::Address a{123, 45};
  const net::Address back = agent_addr(agent_key(a));
  EXPECT_EQ(back.node, a.node);
  EXPECT_EQ(back.port, a.port);
}

TEST(TraceBufferTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceBuffer(1).capacity(), 8u);
  EXPECT_EQ(TraceBuffer(8).capacity(), 8u);
  EXPECT_EQ(TraceBuffer(9).capacity(), 16u);
  EXPECT_EQ(TraceBuffer(4096).capacity(), 4096u);
}

TEST(TraceBufferTest, RecordsInOrderBelowCapacity) {
  TraceBuffer buf(16);
  for (int i = 0; i < 10; ++i) {
    buf.emit(ev(i, EventKind::kMsgSent, 1));
  }
  EXPECT_EQ(buf.emitted(), 10u);
  EXPECT_EQ(buf.dropped(), 0u);
  const auto snap = buf.snapshot();
  ASSERT_EQ(snap.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(snap[i].at, i);
}

TEST(TraceBufferTest, WraparoundKeepsNewestAndCountsDrops) {
  TraceBuffer buf(8);
  for (int i = 0; i < 20; ++i) {
    buf.emit(ev(i, EventKind::kMsgSent, 1));
  }
  EXPECT_EQ(buf.emitted(), 20u);
  EXPECT_EQ(buf.dropped(), 12u);  // 20 emitted - 8 retained
  const auto snap = buf.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  // Oldest-first: events 12..19 survive.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(snap[i].at, 12 + i);
}

TEST(TraceBufferTest, WraparoundManyTimesStaysConsistent) {
  TraceBuffer buf(8);
  for (int round = 0; round < 100; ++round) {
    buf.emit(ev(round, EventKind::kOpStarted, 9, round + 1));
  }
  const auto snap = buf.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  EXPECT_EQ(snap.front().at, 92);
  EXPECT_EQ(snap.back().at, 99);
  EXPECT_EQ(buf.dropped(), 92u);
}

TEST(TraceRecorderTest, MakeBufferIsIdempotentPerName) {
  TraceRecorder rec;
  TraceBuffer* a = rec.make_buffer("cm.0");
  TraceBuffer* b = rec.make_buffer("cm.0");
  TraceBuffer* c = rec.make_buffer("cm.1");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(rec.buffer_count(), 2u);
}

TEST(TraceRecorderTest, MergedSnapshotIsTimeSortedAcrossAgents) {
  TraceRecorder rec;
  TraceBuffer* cm0 = rec.make_buffer("cm.0");
  TraceBuffer* cm1 = rec.make_buffer("cm.1");
  TraceBuffer* dm = rec.make_buffer("dm");
  // Interleave three writers with deliberately shuffled timestamps.
  cm0->emit(ev(10, EventKind::kOpStarted, 1, 100));
  dm->emit(ev(12, EventKind::kMsgReceived, 3, 100));
  cm1->emit(ev(11, EventKind::kOpStarted, 2, 200));
  dm->emit(ev(14, EventKind::kMsgReceived, 3, 200));
  cm0->emit(ev(20, EventKind::kOpCompleted, 1, 100));
  cm1->emit(ev(16, EventKind::kOpCompleted, 2, 200));

  const auto merged = rec.snapshot();
  ASSERT_EQ(merged.size(), 6u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].at, merged[i].at);
  }
  EXPECT_EQ(rec.total_emitted(), 6u);
  EXPECT_EQ(rec.total_dropped(), 0u);
  // Each span's lifecycle stays intact in the merge.
  int span100 = 0, span200 = 0;
  for (const auto& e : merged) {
    if (e.span == 100) ++span100;
    if (e.span == 200) ++span200;
  }
  EXPECT_EQ(span100, 3);
  EXPECT_EQ(span200, 3);
}

TEST(TraceRecorderTest, TieTimestampsKeepRegistrationOrder) {
  TraceRecorder rec;
  TraceBuffer* first = rec.make_buffer("a");
  TraceBuffer* second = rec.make_buffer("b");
  second->emit(ev(5, EventKind::kMsgSent, 2));
  first->emit(ev(5, EventKind::kMsgSent, 1));
  const auto merged = rec.snapshot();
  ASSERT_EQ(merged.size(), 2u);
  // Stable sort: buffer "a" registered first wins the tie.
  EXPECT_EQ(merged[0].agent, 1u);
  EXPECT_EQ(merged[1].agent, 2u);
}

TEST(TraceMacroTest, NullSinkIsSafe) {
  TraceBuffer* sink = nullptr;
  FLECC_TRACE_EVENT(sink, 0, EventKind::kMsgSent, Role::kOther, 1, 0, "x");
  SUCCEED();
}

TEST(TraceMacroTest, EmitsIntoNonNullSink) {
  TraceBuffer buf(8);
  TraceBuffer* sink = &buf;
  FLECC_TRACE_EVENT(sink, 33, EventKind::kDedupHit, Role::kDirectory, 5, 77,
                    "flecc.pullReq", 1, 2);
  ASSERT_EQ(buf.emitted(), 1u);
  const auto snap = buf.snapshot();
  EXPECT_EQ(snap[0].at, 33);
  EXPECT_EQ(snap[0].span, 77u);
  EXPECT_EQ(snap[0].kind, EventKind::kDedupHit);
}

TEST(TraceStringsTest, EveryKindAndRoleHasAName) {
  for (int k = 0; k <= static_cast<int>(EventKind::kMonitorWarning); ++k) {
    EXPECT_STRNE(to_string(static_cast<EventKind>(k)), "unknown");
  }
  for (int r = 0; r <= static_cast<int>(Role::kOther); ++r) {
    EXPECT_STRNE(to_string(static_cast<Role>(r)), "unknown");
  }
}

/// Counts delivered events (sink-registration tests below).
class CountingSink : public TraceSink {
 public:
  void on_event(const TraceEvent&) override { ++seen; }
  std::size_t seen = 0;
};

// Regression test for the sink-registration ordering bug: a sink
// attached to the recorder must cover buffers created BOTH before and
// after the attach_sink call — late-created per-agent buffers used to
// miss the sink entirely.
TEST(TraceSinkTest, AttachCoversExistingAndFutureBuffers) {
  TraceRecorder rec(16);
  TraceBuffer* early = rec.make_buffer("early");
  CountingSink sink;
  rec.attach_sink(&sink);
  TraceBuffer* late = rec.make_buffer("late");  // created after attach

  early->emit(ev(1, EventKind::kMsgSent, 1));
  late->emit(ev(2, EventKind::kMsgSent, 2));
  EXPECT_EQ(sink.seen, 2u);

  // nullptr detaches everywhere, existing and future buffers alike.
  rec.attach_sink(nullptr);
  early->emit(ev(3, EventKind::kMsgSent, 1));
  rec.make_buffer("post-detach")->emit(ev(4, EventKind::kMsgSent, 3));
  EXPECT_EQ(sink.seen, 2u);
}

TEST(TraceSinkTest, SinkSeesClockStampedEvents) {

  class CaptureSink : public TraceSink {
   public:
    void on_event(const TraceEvent& e) override { last = e; }
    TraceEvent last{};
  };

  TraceRecorder rec(16);
  CaptureSink sink;
  rec.attach_sink(&sink);
  TraceBuffer* buf = rec.make_buffer("cm.1");
  CausalClock clock;
  buf->set_clock(&clock);
  clock.tick();
  clock.tick();
  buf->emit(ev(5, EventKind::kOpStarted, 7, 9, "pull"));
  EXPECT_EQ(sink.last.clock, clock.value());
  EXPECT_EQ(sink.last.span, 9u);
  // The ring stores the same stamped event the sink saw.
  EXPECT_EQ(buf->snapshot().back().clock, clock.value());
}

}  // namespace
}  // namespace flecc::obs

// JSONL/CSV sink tests: round-trip fidelity, escaping, malformed-line
// handling. The serializers operate on plain TraceEvent values, so no
// protocol run is needed.
#include "obs/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace flecc::obs {
namespace {

std::vector<TraceEvent> sample_events() {
  std::vector<TraceEvent> out;
  out.push_back(make_event(100, EventKind::kOpStarted, Role::kCacheManager,
                           agent_key({3, 1}), span_id({3, 1}, 7), "pull"));
  out.push_back(make_event(150, EventKind::kMsgSent, Role::kCacheManager,
                           agent_key({3, 1}), span_id({3, 1}, 7),
                           "flecc.pullReq", 1));
  out.push_back(make_event(220, EventKind::kMsgDropped, Role::kFabric,
                           agent_key({3, 1}), 0, "flecc.pullReq", kDropLoss,
                           agent_key({9, 1})));
  out.push_back(make_event(400, EventKind::kOpCompleted, Role::kCacheManager,
                           agent_key({3, 1}), span_id({3, 1}, 7), "pull", 2));
  return out;
}

void expect_same(const TraceEvent& x, const TraceEvent& y) {
  EXPECT_EQ(x.at, y.at);
  EXPECT_EQ(x.kind, y.kind);
  EXPECT_EQ(x.role, y.role);
  EXPECT_EQ(x.agent, y.agent);
  EXPECT_EQ(x.span, y.span);
  EXPECT_EQ(x.a, y.a);
  EXPECT_EQ(x.b, y.b);
  EXPECT_EQ(x.clock, y.clock);
  EXPECT_STREQ(x.label, y.label);
}

TEST(TraceJsonlTest, RoundTripsEveryField) {
  for (const auto& e : sample_events()) {
    const std::string line = to_jsonl(e);
    const auto back = from_jsonl(line);
    ASSERT_TRUE(back.has_value()) << line;
    expect_same(e, *back);
  }
}

TEST(TraceJsonlTest, LineLooksLikeJson) {
  const auto events = sample_events();
  const std::string line = to_jsonl(events[0]);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"kind\":\"op_started\""), std::string::npos);
  EXPECT_NE(line.find("\"role\":\"cm\""), std::string::npos);
  EXPECT_NE(line.find("\"agent\":\"3:1\""), std::string::npos);
  // Spans serialize as strings: 64-bit values overflow JSON doubles.
  EXPECT_NE(line.find("\"span\":\""), std::string::npos);
}

TEST(TraceJsonlTest, ClockRoundTripsAndDefaultsToZero) {
  TraceEvent e = make_event(9, EventKind::kMsgSent, Role::kCacheManager,
                            agent_key({4, 2}), 0, "flecc.push_update");
  e.clock = 0xdeadbeefULL;
  const auto back = from_jsonl(to_jsonl(e));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->clock, 0xdeadbeefULL);

  // Pre-clock traces have no "clock" field; readers default it to 0.
  const auto old = from_jsonl(
      "{\"t\":5,\"kind\":\"msg_sent\",\"role\":\"cm\",\"agent\":\"1:1\","
      "\"span\":\"0\",\"label\":\"x\",\"a\":0,\"b\":0}");
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->clock, 0u);
}

TEST(TraceJsonlTest, EscapesHostileLabels) {
  const TraceEvent e = make_event(1, EventKind::kOpStarted, Role::kOther, 0,
                                  0, "a\"b\\c\td");
  const auto back = from_jsonl(to_jsonl(e));
  ASSERT_TRUE(back.has_value());
  EXPECT_STREQ(back->label, "a\"b\\c\td");
}

TEST(TraceJsonlTest, RejectsMalformedLines) {
  EXPECT_FALSE(from_jsonl("").has_value());
  EXPECT_FALSE(from_jsonl("not json").has_value());
  EXPECT_FALSE(from_jsonl("{\"t\":5}").has_value());
  EXPECT_FALSE(
      from_jsonl("{\"t\":5,\"kind\":\"no_such_kind\",\"role\":\"cm\","
                 "\"agent\":\"1:1\",\"span\":\"0\",\"label\":\"\",\"a\":0,"
                 "\"b\":0}")
          .has_value());
}

TEST(TraceJsonlTest, StreamReaderSkipsBadLinesAndCounts) {
  const auto events = sample_events();
  std::ostringstream os;
  os << to_jsonl(events[0]) << "\n";
  os << "\n";             // blank: skipped silently
  os << "garbage\n";      // malformed: counted
  os << to_jsonl(events[1]) << "\n";
  std::istringstream is(os.str());
  std::size_t bad = 0;
  const auto back = read_jsonl(is, &bad);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(bad, 1u);
  expect_same(events[0], back[0]);
  expect_same(events[1], back[1]);
}

TEST(TraceJsonlTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "trace_io_test.jsonl";
  const auto events = sample_events();
  ASSERT_TRUE(write_jsonl(events, path));
  std::size_t bad = 0;
  const auto back = read_jsonl_file(path, &bad);
  EXPECT_EQ(bad, 0u);
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    expect_same(events[i], back[i]);
  }
  std::remove(path.c_str());
}

TEST(TraceParseTest, KindAndRoleNamesRoundTrip) {
  for (int k = 0; k <= static_cast<int>(kMaxEventKind); ++k) {
    const auto kind = static_cast<EventKind>(k);
    const auto parsed = parse_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  for (int r = 0; r <= static_cast<int>(Role::kOther); ++r) {
    const auto role = static_cast<Role>(r);
    const auto parsed = parse_role(to_string(role));
    ASSERT_TRUE(parsed.has_value()) << to_string(role);
    EXPECT_EQ(*parsed, role);
  }
  EXPECT_FALSE(parse_kind("bogus").has_value());
  EXPECT_FALSE(parse_role("bogus").has_value());
}

TEST(TraceCsvTest, HeaderAndOneRowPerEvent) {
  const auto events = sample_events();
  const std::string csv = to_csv(events);
  std::istringstream is(csv);
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, "t,kind,role,agent,span,label,a,b,clock");
  std::size_t rows = 0;
  while (std::getline(is, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, events.size());
  EXPECT_NE(csv.find("msg_dropped"), std::string::npos);
}

}  // namespace
}  // namespace flecc::obs

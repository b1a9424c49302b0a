// AlertEngine: rule-text parsing (both directions), sustain counting,
// the raise/clear lifecycle per labeled series, trace-event emission,
// and the stale-series sweep that clears alerts whose series vanished.
#include "obs/alerts.hpp"

#include <gtest/gtest.h>

#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

using flecc::obs::ActiveAlert;
using flecc::obs::AlertEngine;
using flecc::obs::AlertRule;
using flecc::obs::EventKind;
using flecc::obs::SeriesId;
using flecc::obs::SeriesKind;
using flecc::obs::SeriesSample;
using flecc::obs::TelemetryWindow;
using flecc::sim::msec;

namespace {

/// Hand-build a closed window with the given counter readings
/// (value + rate pairs) so the engine can be tested without a
/// TimeSeriesRegistry in the loop.
TelemetryWindow window(std::uint64_t index,
                       std::vector<std::pair<SeriesId, SeriesSample>> rows) {
  TelemetryWindow w;
  w.index = index;
  w.start = msec(100) * index;
  w.end = msec(100) * (index + 1);
  for (auto& [id, s] : rows) w.series.emplace(std::move(id), s);
  return w;
}

SeriesSample counter(double value, double rate) {
  SeriesSample s;
  s.kind = SeriesKind::kCounter;
  s.value = value;
  s.rate = rate;
  s.delta = 0;
  return s;
}

SeriesSample gauge(double value) {
  SeriesSample s;
  s.kind = SeriesKind::kGauge;
  s.value = value;
  return s;
}

}  // namespace

// ---- parsing ---------------------------------------------------------------

TEST(AlertRuleTest, ParsesFullSyntax) {
  const auto r =
      AlertRule::parse("breaker-storm: cm.breaker.open/s > 0.5 for 3");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->name, "breaker-storm");
  EXPECT_EQ(r->metric, "cm.breaker.open");
  EXPECT_TRUE(r->rate);
  EXPECT_EQ(r->cmp, AlertRule::Cmp::kGt);
  EXPECT_DOUBLE_EQ(r->threshold, 0.5);
  EXPECT_EQ(r->sustain, 3u);
  EXPECT_EQ(r->to_string(), "breaker-storm: cm.breaker.open/s > 0.5 for 3");
}

TEST(AlertRuleTest, DefaultsAndComparators) {
  const auto r = AlertRule::parse("deep: view.queued_ops >= 8");
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->rate);
  EXPECT_EQ(r->cmp, AlertRule::Cmp::kGe);
  EXPECT_EQ(r->sustain, 1u);  // `for N` defaults to 1
  EXPECT_TRUE(AlertRule::parse("a: m < 1").has_value());
  EXPECT_TRUE(AlertRule::parse("a: m <= -2.5").has_value());
}

TEST(AlertRuleTest, RejectsMalformedText) {
  std::string err;
  EXPECT_FALSE(AlertRule::parse("no-colon m > 1", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(AlertRule::parse(": m > 1", &err).has_value());
  EXPECT_FALSE(AlertRule::parse("a: m", &err).has_value());
  EXPECT_FALSE(AlertRule::parse("a: m == 1", &err).has_value());
  EXPECT_FALSE(AlertRule::parse("a: m > banana", &err).has_value());
  EXPECT_FALSE(AlertRule::parse("a: m > 1 for 0", &err).has_value());
  EXPECT_FALSE(AlertRule::parse("a: m > 1 for -2", &err).has_value());
  EXPECT_FALSE(AlertRule::parse("a: m > 1 sustained 2", &err).has_value());
  EXPECT_FALSE(AlertRule::parse("a: m > 1 for 2 extra", &err).has_value());
}

TEST(AlertRuleTest, Breaches) {
  const auto r = AlertRule::parse("a: m >= 10");
  EXPECT_TRUE(r->breaches(10));
  EXPECT_TRUE(r->breaches(11));
  EXPECT_FALSE(r->breaches(9.999));
}

// ---- lifecycle -------------------------------------------------------------

TEST(AlertEngineTest, RaisesAfterSustainAndClears) {
  AlertEngine eng;
  ASSERT_TRUE(eng.add_rule("retry-storm: cm.op.retry/s > 10 for 2"));
  const SeriesId id{"cm.op.retry", {}};

  eng.evaluate(window(0, {{id, counter(5, 50)}}));  // breach 1/2
  EXPECT_EQ(eng.raised_total(), 0u);
  EXPECT_TRUE(eng.active().empty());

  eng.evaluate(window(1, {{id, counter(10, 50)}}));  // breach 2/2 → raise
  EXPECT_EQ(eng.raised_total(), 1u);
  ASSERT_EQ(eng.active().size(), 1u);
  EXPECT_EQ(eng.active()[0].rule, "retry-storm");
  EXPECT_EQ(eng.active()[0].window, 1u);

  eng.evaluate(window(2, {{id, counter(15, 50)}}));  // still breaching
  EXPECT_EQ(eng.raised_total(), 1u);  // no re-raise
  // The active alert keeps its original raise window.
  EXPECT_EQ(eng.active()[0].window, 1u);

  eng.evaluate(window(3, {{id, counter(15, 0)}}));  // quiet → clear
  EXPECT_EQ(eng.cleared_total(), 1u);
  EXPECT_TRUE(eng.active().empty());
  EXPECT_EQ(eng.windows_evaluated(), 4u);
}

TEST(AlertEngineTest, SustainResetsOnANonBreachingWindow) {
  AlertEngine eng;
  ASSERT_TRUE(eng.add_rule("s: m/s > 0 for 3"));
  const SeriesId id{"m", {}};
  eng.evaluate(window(0, {{id, counter(1, 1)}}));
  eng.evaluate(window(1, {{id, counter(2, 1)}}));
  eng.evaluate(window(2, {{id, counter(2, 0)}}));  // streak broken
  eng.evaluate(window(3, {{id, counter(3, 1)}}));
  eng.evaluate(window(4, {{id, counter(4, 1)}}));
  EXPECT_EQ(eng.raised_total(), 0u);  // never held for 3 consecutive
  eng.evaluate(window(5, {{id, counter(5, 1)}}));
  EXPECT_EQ(eng.raised_total(), 1u);
}

TEST(AlertEngineTest, LabeledSeriesRaiseIndependently) {
  AlertEngine eng;
  ASSERT_TRUE(eng.add_rule("deep: view.queued_ops >= 8"));
  const SeriesId v0{"view.queued_ops", {{"view", "0"}}};
  const SeriesId v1{"view.queued_ops", {{"view", "1"}}};

  eng.evaluate(window(0, {{v0, gauge(2)}, {v1, gauge(9)}}));
  ASSERT_EQ(eng.active().size(), 1u);
  EXPECT_EQ(eng.active()[0].series, v1);

  eng.evaluate(window(1, {{v0, gauge(12)}, {v1, gauge(9)}}));
  EXPECT_EQ(eng.active().size(), 2u);
  EXPECT_EQ(eng.raised_total(), 2u);

  eng.evaluate(window(2, {{v0, gauge(12)}, {v1, gauge(1)}}));
  ASSERT_EQ(eng.active().size(), 1u);
  EXPECT_EQ(eng.active()[0].series, v0);
  EXPECT_EQ(eng.cleared_total(), 1u);
}

TEST(AlertEngineTest, VanishedSeriesClearsItsAlert) {
  AlertEngine eng;
  ASSERT_TRUE(eng.add_rule("deep: view.queued_ops > 5"));
  const SeriesId v7{"view.queued_ops", {{"view", "7"}}};
  eng.evaluate(window(0, {{v7, gauge(9)}}));
  EXPECT_EQ(eng.active().size(), 1u);

  // View 7 crashed: its series stops being reported entirely. The
  // alert must clear (exactly once), not stick forever.
  eng.evaluate(window(1, {}));
  EXPECT_TRUE(eng.active().empty());
  EXPECT_EQ(eng.cleared_total(), 1u);
  eng.evaluate(window(2, {}));
  EXPECT_EQ(eng.cleared_total(), 1u);
}

TEST(AlertEngineTest, EmitsTraceEventsAndCounters) {
  flecc::obs::TraceBuffer buf(64);
  AlertEngine eng;
  eng.set_trace(&buf);
  ASSERT_TRUE(eng.add_rule("storm: m/s > 0"));
  const SeriesId id{"m", {}};

  eng.evaluate(window(0, {{id, counter(1, 10)}}));
  eng.evaluate(window(1, {{id, counter(1, 0)}}));

  const auto events = buf.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kAlertRaised);
  EXPECT_STREQ(events[0].label, "storm");
  EXPECT_EQ(events[0].a, 0u);  // raising window index
  EXPECT_EQ(events[1].kind, EventKind::kAlertCleared);
  EXPECT_EQ(events[1].a, 1u);

  const auto counters = eng.counters();
  EXPECT_EQ(counters.get("alerts.raised"), 1u);
  EXPECT_EQ(counters.get("alerts.cleared"), 1u);
  EXPECT_EQ(counters.get("alerts.evaluations"), 2u);
}

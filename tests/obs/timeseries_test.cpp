// TimeSeriesRegistry: windowed sampling of collector callbacks —
// deltas and rates for counters, reset clamping, labeled series,
// windowed quantiles from log2-bucket deltas, the bounded ring, and
// collector deregistration (shared hubs outliving testbeds).
#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include "sim/stats.hpp"
#include "sim/time.hpp"

using flecc::obs::SampleFrame;
using flecc::obs::SeriesId;
using flecc::obs::SeriesKind;
using flecc::obs::TimeSeriesRegistry;
using flecc::obs::TsLabels;
using flecc::sim::msec;

TEST(TimeSeriesTest, CounterDeltasAndRates) {
  TimeSeriesRegistry reg;
  double cum = 0;
  reg.add_collector([&cum](SampleFrame& f) { f.counter("ops", cum); });

  cum = 10;
  reg.sample(msec(100));
  auto w = reg.latest();
  ASSERT_TRUE(w.has_value());
  const SeriesId id{"ops", {}};
  ASSERT_EQ(w->series.count(id), 1u);
  // First window: delta from an implicit 0 baseline over 100ms.
  EXPECT_DOUBLE_EQ(w->series[id].value, 10.0);
  EXPECT_DOUBLE_EQ(w->series[id].delta, 10.0);
  EXPECT_DOUBLE_EQ(w->series[id].rate, 100.0);

  cum = 25;
  reg.sample(msec(200));
  w = reg.latest();
  EXPECT_DOUBLE_EQ(w->series[id].value, 25.0);
  EXPECT_DOUBLE_EQ(w->series[id].delta, 15.0);
  EXPECT_DOUBLE_EQ(w->series[id].rate, 150.0);
  EXPECT_EQ(w->index, 1u);
  EXPECT_EQ(w->start, msec(100));
  EXPECT_EQ(w->end, msec(200));
}

TEST(TimeSeriesTest, CounterResetClampsToNewValue) {
  TimeSeriesRegistry reg;
  double cum = 100;
  reg.add_collector([&cum](SampleFrame& f) { f.counter("ops", cum); });
  reg.sample(msec(100));

  // A restarted agent reports a shrunken cumulative value: the delta is
  // the new value, never negative.
  cum = 4;
  reg.sample(msec(200));
  const auto w = reg.latest();
  const SeriesId id{"ops", {}};
  EXPECT_DOUBLE_EQ(w->series.at(id).delta, 4.0);
  EXPECT_GE(w->series.at(id).rate, 0.0);
}

TEST(TimeSeriesTest, LabeledSeriesAreIndependent) {
  TimeSeriesRegistry reg;
  reg.add_collector([](SampleFrame& f) {
    f.counter("view.ops", 10, {{"view", "0"}});
    f.counter("view.ops", 30, {{"view", "1"}});
    f.gauge("view.queue", 5, {{"view", "1"}});
  });
  reg.sample(msec(100));
  const auto w = reg.latest();
  EXPECT_EQ(w->series.size(), 3u);
  const SeriesId v0{"view.ops", {{"view", "0"}}};
  const SeriesId v1{"view.ops", {{"view", "1"}}};
  EXPECT_DOUBLE_EQ(w->series.at(v0).value, 10.0);
  EXPECT_DOUBLE_EQ(w->series.at(v1).value, 30.0);
  const SeriesId q1{"view.queue", {{"view", "1"}}};
  EXPECT_EQ(w->series.at(q1).kind, SeriesKind::kGauge);
  EXPECT_DOUBLE_EQ(w->series.at(q1).delta, 0.0);  // gauges carry no delta
}

TEST(TimeSeriesTest, DuplicateReportsAccumulate) {
  // Two collectors (or one collector folding two components) reporting
  // the same id sum into one series.
  TimeSeriesRegistry reg;
  reg.add_collector([](SampleFrame& f) { f.counter("ops", 3); });
  reg.add_collector([](SampleFrame& f) { f.counter("ops", 4); });
  reg.sample(msec(100));
  EXPECT_DOUBLE_EQ(reg.latest()->series.at(SeriesId{"ops", {}}).value, 7.0);
}

TEST(TimeSeriesTest, CounterSetFoldingSplitsDottedFamilies) {
  TimeSeriesRegistry reg;
  flecc::sim::CounterSet set;
  set.inc("msg.sent", 5);
  set.inc("msg.dropped.loss", 2);
  set.inc("msg.dropped.partition", 1);
  reg.add_collector(
      [&set](SampleFrame& f) { f.counters(set, "net.", {{"node", "a"}}); });
  reg.sample(msec(100));
  const auto w = reg.latest();
  // Dimension segments became labels alongside the caller's labels.
  const SeriesId loss{"net.msg.dropped",
                      {{"node", "a"}, {"reason", "loss"}}};
  const SeriesId part{"net.msg.dropped",
                      {{"node", "a"}, {"reason", "partition"}}};
  EXPECT_DOUBLE_EQ(w->series.at(loss).value, 2.0);
  EXPECT_DOUBLE_EQ(w->series.at(part).value, 1.0);
  EXPECT_DOUBLE_EQ(
      w->series.at(SeriesId{"net.msg.sent", {{"node", "a"}}}).value, 5.0);
}

TEST(TimeSeriesTest, WindowedQuantilesUseOnlyTheWindowsDeltas) {
  TimeSeriesRegistry reg;
  flecc::sim::RunningStat lat;
  reg.add_collector([&lat](SampleFrame& f) { f.stat("lat_us", lat); });

  for (int i = 0; i < 100; ++i) lat.add(10.0);  // first window: all fast
  reg.sample(msec(100));
  const SeriesId id{"lat_us", {}};
  auto w = reg.latest();
  ASSERT_EQ(w->stats.count(id), 1u);
  EXPECT_EQ(w->stats[id].count, 100u);
  EXPECT_LE(w->stats[id].p99, 16.0);  // log2 bucket [8,16)

  for (int i = 0; i < 100; ++i) lat.add(1000.0);  // second window: all slow
  reg.sample(msec(200));
  w = reg.latest();
  // The cumulative stat is half fast/half slow, but THIS window only
  // saw slow observations — p50 must reflect the window, not the life.
  EXPECT_EQ(w->stats[id].count, 100u);
  EXPECT_GE(w->stats[id].p50, 512.0);
  EXPECT_GE(w->stats[id].mean, 999.0);
}

TEST(TimeSeriesTest, RingIsBounded) {
  TimeSeriesRegistry reg(/*capacity=*/4);
  reg.add_collector([](SampleFrame& f) { f.counter("ops", 1); });
  for (int i = 1; i <= 10; ++i) reg.sample(msec(100 * i));
  EXPECT_EQ(reg.windows_closed(), 10u);
  const auto recent = reg.recent(100);
  ASSERT_EQ(recent.size(), 4u);  // older windows fell off
  EXPECT_EQ(recent.front().index, 6u);
  EXPECT_EQ(recent.back().index, 9u);
  EXPECT_EQ(reg.recent(2).size(), 2u);
  EXPECT_EQ(reg.recent(2).back().index, 9u);
}

TEST(TimeSeriesTest, RemoveCollectorStopsSampling) {
  TimeSeriesRegistry reg;
  const std::size_t token =
      reg.add_collector([](SampleFrame& f) { f.counter("dead", 1); });
  reg.add_collector([](SampleFrame& f) { f.counter("alive", 1); });
  reg.sample(msec(100));
  EXPECT_EQ(reg.latest()->series.size(), 2u);

  reg.remove_collector(token);
  EXPECT_EQ(reg.collector_count(), 1u);
  reg.sample(msec(200));
  const auto w = reg.latest();
  EXPECT_EQ(w->series.count(SeriesId{"dead", {}}), 0u);
  EXPECT_EQ(w->series.count(SeriesId{"alive", {}}), 1u);
}

TEST(TimeSeriesTest, ClockRestartStartsAFreshWindow) {
  // A long-lived hub handed from one run to the next sees simulated
  // time jump backwards; the sampler must not produce a window
  // spanning the two timelines (or a zero-span rate).
  TimeSeriesRegistry reg;
  double cum = 50;
  reg.add_collector([&cum](SampleFrame& f) { f.counter("ops", cum); });
  reg.sample(msec(40000));  // end of run 1

  cum = 7;                // run 2's fresh counter, small again
  reg.sample(msec(100));  // first sample of run 2
  const auto w = reg.latest();
  EXPECT_EQ(w->start, 0u);
  EXPECT_EQ(w->end, flecc::sim::Time{msec(100)});
  // Reset clamping + restarted clock: a real window span and a real rate.
  EXPECT_DOUBLE_EQ(w->series.at(SeriesId{"ops", {}}).delta, 7.0);
  EXPECT_DOUBLE_EQ(w->series.at(SeriesId{"ops", {}}).rate, 70.0);
}

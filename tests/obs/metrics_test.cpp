// MetricsRegistry tests: counters, absorb(), distributions, and the
// CSV/plaintext exports.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace flecc::obs {
namespace {

TEST(MetricsRegistryTest, CountersAccumulate) {
  MetricsRegistry reg;
  reg.inc("msg.sent");
  reg.inc("msg.sent", 4);
  reg.inc("msg.dropped");
  EXPECT_EQ(reg.counter("msg.sent"), 5u);
  EXPECT_EQ(reg.counter("msg.dropped"), 1u);
  EXPECT_EQ(reg.counter("never.touched"), 0u);
}

TEST(MetricsRegistryTest, AbsorbPrefixesAgentCounters) {
  sim::CounterSet agent;
  agent.inc("op.retry", 3);
  agent.inc("heartbeat.sent", 7);
  MetricsRegistry reg;
  reg.absorb(agent, "cm.7.");
  reg.absorb(agent);  // unprefixed fold-in on top
  EXPECT_EQ(reg.counter("cm.7.op.retry"), 3u);
  EXPECT_EQ(reg.counter("cm.7.heartbeat.sent"), 7u);
  EXPECT_EQ(reg.counter("op.retry"), 3u);
}

TEST(MetricsRegistryTest, ObserveFeedsStatAndSamples) {
  MetricsRegistry reg;
  reg.observe("latency", 10.0);
  reg.observe("latency", 20.0);
  reg.observe("latency", 30.0);
  EXPECT_EQ(reg.stat("latency").count(), 3u);
  EXPECT_DOUBLE_EQ(reg.stat("latency").mean(), 20.0);
  EXPECT_DOUBLE_EQ(reg.samples("latency").median(), 20.0);
}

TEST(MetricsRegistryTest, CsvHasCounterStatAndQuantileRows) {
  MetricsRegistry reg;
  reg.inc("msg.sent", 9);
  reg.observe("latency", 1.0);
  reg.observe("latency", 3.0);
  const std::string csv = reg.to_csv();
  EXPECT_NE(csv.find("counter,msg.sent,value,9"), std::string::npos);
  EXPECT_NE(csv.find("stat,latency,count,2"), std::string::npos);
  EXPECT_NE(csv.find("quantile,latency,p50,"), std::string::npos);
  EXPECT_NE(csv.find("quantile,latency,p99,"), std::string::npos);
}

TEST(MetricsRegistryTest, ToStringSummarizesBoth) {
  MetricsRegistry reg;
  reg.inc("evictions", 2);
  reg.observe("lat", 4.0);
  const std::string text = reg.to_string();
  EXPECT_NE(text.find("evictions"), std::string::npos);
  EXPECT_NE(text.find("lat"), std::string::npos);
}

}  // namespace
}  // namespace flecc::obs

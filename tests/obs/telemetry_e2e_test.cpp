// The whole telemetry pipeline against a real Flecc deployment: a
// FleccTestbed wired to a TelemetryHub, windows closing on simulated
// time, /metrics rendering validator-clean mid-run through a real
// socket, /healthz tracking an injected directory crash, an alert
// raising and clearing over the workload's life — and the determinism
// contract: a run with the hub attached is bit-identical to one
// without.
#include <gtest/gtest.h>

#include <string>

#include "airline/testbed.hpp"
#include "net/telemetry_server.hpp"
#include "obs/prom.hpp"
#include "obs/telemetry.hpp"
#include "sim/time.hpp"

namespace flecc {
namespace {

using airline::FleccTestbed;
using airline::TestbedOptions;
using obs::TelemetryHub;
using obs::TelemetryOptions;
using sim::msec;

TestbedOptions small_opts() {
  TestbedOptions opts;
  opts.n_agents = 6;
  opts.group_size = 3;
  opts.flights_per_group = 2;
  opts.cm_cfg.validity_trigger = "(_age < 500)";
  return opts;
}

TelemetryOptions fast_hub() {
  TelemetryOptions t;
  t.interval = msec(10);  // benches use 250ms; tests want many windows
  return t;
}

void start_workload(FleccTestbed& tb, std::size_t ops = 3) {
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    const auto flight = tb.assignment().agent_flights[i][0];
    tb.agent(i).run_reservation_loop(ops, flight, 1, /*pull_first=*/true);
  }
}

/// Everything observable about a finished run that telemetry must not
/// have changed.
std::string run_signature(FleccTestbed& tb) {
  return tb.fabric().counters().to_string() + "|now=" +
         std::to_string(tb.simulator().now());
}

}  // namespace

TEST(TelemetryE2eTest, WindowsCloseOverARealRun) {
  TelemetryHub hub(fast_hub());
  TestbedOptions opts = small_opts();
  opts.telemetry = &hub;
  FleccTestbed tb(opts);
  tb.init_all_agents();
  start_workload(tb);
  tb.run_until(msec(500));

  EXPECT_GE(hub.registry().windows_closed(), 40u);  // ~500ms / 10ms
  const auto w = hub.registry().latest();
  ASSERT_TRUE(w.has_value());
  // The testbed's collectors cover fabric, directory, CM rollup, and
  // the dimensional per-view series.
  EXPECT_EQ(w->series.count(obs::SeriesId{"net.msg.sent", {}}), 1u);
  EXPECT_EQ(w->series.count(obs::SeriesId{"dm.views.registered", {}}), 1u);
  EXPECT_EQ(
      w->series.count(obs::SeriesId{"view.queued_ops", {{"view", "0"}}}), 1u);
  // Work actually flowed through the windows.
  bool saw_traffic = false;
  for (const auto& win : hub.registry().recent(100)) {
    const auto it = win.series.find(obs::SeriesId{"net.msg.sent", {}});
    if (it != win.series.end() && it->second.delta > 0) saw_traffic = true;
  }
  EXPECT_TRUE(saw_traffic);
}

TEST(TelemetryE2eTest, MetricsScrapeThroughARealSocketMidRun) {
  TelemetryHub hub(fast_hub());
  TestbedOptions opts = small_opts();
  opts.telemetry = &hub;
  FleccTestbed tb(opts);
  tb.init_all_agents();
  start_workload(tb);
  tb.run_until(msec(100));  // mid-run: windows exist, workload unfinished

  net::TelemetryServer server(0);
  ASSERT_TRUE(server.listening());
  net::serve_telemetry(hub, server);
  server.serve_background();

  const auto metrics = net::http_get("127.0.0.1", server.port(), "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->find("flecc_net_msg_sent_total"), std::string::npos);
  EXPECT_NE(metrics->find("flecc_view_queued_ops"), std::string::npos);
  const auto issues = obs::prom::validate(*metrics);
  for (const auto& i : issues) ADD_FAILURE() << i.to_string();

  const auto healthz = net::http_get("127.0.0.1", server.port(), "/healthz");
  ASSERT_TRUE(healthz.has_value());
  EXPECT_NE(healthz->find("\"status\":\"ok\""), std::string::npos);

  tb.run_until(msec(600));  // serving must not wedge the simulation
  EXPECT_GE(hub.registry().windows_closed(), 50u);
}

TEST(TelemetryE2eTest, HealthzReflectsADirectoryCrashAndRecovery) {
  TelemetryHub hub(fast_hub());
  TestbedOptions opts = small_opts();
  opts.telemetry = &hub;
  opts.durable_directory = true;
  FleccTestbed tb(opts);
  tb.init_all_agents();
  start_workload(tb, 1);
  tb.run_until(msec(200));
  EXPECT_EQ(hub.health_status(), "ok");

  tb.crash_directory();
  tb.run_until(msec(300));  // a window closes with health.dm.down = 1
  EXPECT_EQ(hub.health_status(), "degraded");
  // /healthz keys strip the family prefix: "dm.down":1 under "health".
  EXPECT_NE(hub.render_healthz().find("\"dm.down\":1"), std::string::npos);

  tb.restart_directory();
  tb.run_until(msec(1500));  // rebuild completes, gauges return to zero
  EXPECT_EQ(hub.health_status(), "ok");
}

TEST(TelemetryE2eTest, AlertRaisesUnderLoadAndClearsWhenQuiet) {
  TelemetryHub hub(fast_hub());
  std::string err;
  ASSERT_TRUE(hub.alerts().add_rule("traffic: net.msg.sent/s > 0", &err))
      << err;
  TestbedOptions opts = small_opts();
  opts.telemetry = &hub;
  FleccTestbed tb(opts);
  tb.init_all_agents();
  start_workload(tb);
  tb.run_until(msec(300));   // load → the rule breaches and raises
  tb.run_until(msec(2000));  // long idle tail → zero-delta windows clear it

  EXPECT_GE(hub.alerts().raised_total(), 1u);
  EXPECT_EQ(hub.alerts().cleared_total(), hub.alerts().raised_total());
  EXPECT_TRUE(hub.alerts().active().empty());
  EXPECT_EQ(hub.health_status(), "ok");
}

TEST(TelemetryE2eTest, TelemetryNeverPerturbsTheRun) {
  const sim::Time horizon = msec(800);

  std::string with_hub;
  {
    TelemetryHub hub(fast_hub());
    std::string err;
    ASSERT_TRUE(hub.alerts().add_rule("t: net.msg.sent/s > 0", &err));
    TestbedOptions opts = small_opts();
    opts.telemetry = &hub;
    FleccTestbed tb(opts);
    tb.init_all_agents();
    start_workload(tb);
    tb.run_until(horizon);
    with_hub = run_signature(tb);
    EXPECT_GT(hub.registry().windows_closed(), 0u);  // hub really ran
  }

  std::string without_hub;
  {
    FleccTestbed tb(small_opts());
    tb.init_all_agents();
    start_workload(tb);
    tb.run_until(horizon);
    without_hub = run_signature(tb);
  }

  EXPECT_EQ(with_hub, without_hub);
}

}  // namespace flecc

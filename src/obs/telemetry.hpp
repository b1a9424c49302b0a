// TelemetryHub: the one object a bench or testbed wires up to get the
// whole live-telemetry pipeline — a TimeSeriesRegistry sampled on
// simulated time, an AlertEngine evaluated on every closed window, and
// thread-safe renderers for the three scrape surfaces:
//
//   /metrics  Prometheus text exposition (validator-clean, HELP/TYPE,
//             labels, cumulative `_total` counters plus windowed
//             `_per_sec` rate gauges and window-scoped summaries)
//   /varz     JSON of the most recent windows, raw series included
//   /healthz  one-look rollup: status ok|degraded|alerting, the
//             `health.*` gauge family, recovery state, active alerts
//
// The hub lives in obs (no sockets here): net::TelemetryServer serves
// the rendered strings, tools/flecc_top consumes /varz. Convention:
// any gauge reported under the `health.` family must be zero when the
// system is healthy — /healthz derives its `degraded` status purely
// from that family, so new subsystems join the rollup by reporting a
// gauge, not by editing this file. Gauges under `recovery.` (which
// are not zero-when-healthy, e.g. the directory generation) appear in
// /healthz's `recovery` object instead.
//
// tick() is driven from simulated time by whoever owns the simulator
// (FleccTestbed schedules a daemon event every `interval`); it only
// reads protocol state, so a run with a hub attached stays
// bit-identical to one without. `pace_ms` adds a *wall-clock* sleep
// per closed window so an external scraper gets a chance to observe a
// mid-run state — wall time never feeds back into simulated time, so
// pacing cannot perturb determinism either.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/alerts.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace flecc::obs {

/// Knobs for the live-telemetry pipeline (see OBSERVABILITY.md,
/// "Live telemetry").
struct TelemetryOptions {
  /// Sampling cadence (simulated time) — one window per interval. The
  /// hub keeps the last 64 windows and renders 8 of them on /varz.
  sim::Duration interval = sim::msec(250);
  /// Wall-clock milliseconds to sleep after each closed window (0 =
  /// run at full simulation speed). Lets live scrapers see mid-run
  /// windows without touching simulated time.
  unsigned pace_ms = 0;
};

/// Registry + alert engine + scrape-surface renderers, in one object
/// a bench wires up (see the file comment above).
class TelemetryHub {
 public:
  explicit TelemetryHub(TelemetryOptions opts = {});

  [[nodiscard]] const TelemetryOptions& options() const { return opts_; }
  [[nodiscard]] TimeSeriesRegistry& registry() { return registry_; }
  [[nodiscard]] const TimeSeriesRegistry& registry() const {
    return registry_;
  }
  [[nodiscard]] AlertEngine& alerts() { return alerts_; }
  [[nodiscard]] const AlertEngine& alerts() const { return alerts_; }

  /// Route alert_raised/alert_cleared events into `buf` (may be null).
  void set_trace(TraceBuffer* buf) { alerts_.set_trace(buf); }

  /// Close one window at simulated time `now`: sample collectors,
  /// evaluate alert rules, then (optionally) pace wall-clock.
  void tick(sim::Time now);

  /// Bumped by the serving layer; exported as telemetry.http.*.
  void note_http_request(bool ok) {
    ++http_requests_;
    if (!ok) ++http_errors_;
  }
  [[nodiscard]] std::uint64_t http_requests() const { return http_requests_; }

  // Renderers — safe to call from a server thread mid-run.
  [[nodiscard]] std::string render_metrics() const;
  [[nodiscard]] std::string render_varz() const;
  [[nodiscard]] std::string render_healthz() const;

  /// The /healthz status line: "alerting" if any alert is active,
  /// else "degraded" if any `health.*` gauge in the latest window is
  /// non-zero, else "ok".
  [[nodiscard]] std::string health_status() const;

 private:
  TelemetryOptions opts_;
  TimeSeriesRegistry registry_;
  AlertEngine alerts_;
  std::atomic<std::uint64_t> http_requests_{0};
  std::atomic<std::uint64_t> http_errors_{0};
};

}  // namespace flecc::obs

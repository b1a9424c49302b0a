#include "obs/telemetry.hpp"

#include <chrono>
#include <sstream>
#include <thread>

#include "obs/prom.hpp"

namespace flecc::obs {

namespace {

/// Windows retained in the registry's ring.
constexpr std::size_t kWindowCapacity = 64;
/// Most recent windows rendered by /varz.
constexpr std::size_t kVarzWindows = 8;

}  // namespace

TelemetryHub::TelemetryHub(TelemetryOptions opts)
    : opts_(opts), registry_(kWindowCapacity) {}

void TelemetryHub::tick(sim::Time now) {
  registry_.sample(now);
  if (const auto w = registry_.latest()) alerts_.evaluate(*w);
  if (opts_.pace_ms != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opts_.pace_ms));
  }
}

namespace {

prom::Labels to_prom_labels(const TsLabels& in) {
  prom::Labels out;
  out.reserve(in.size());
  for (const TsLabel& l : in) {
    out.push_back({prom::label_key(l.key), l.value});
  }
  return out;
}

}  // namespace

std::string TelemetryHub::render_metrics() const {
  prom::Writer w;
  const auto window = registry_.latest();

  if (window) {
    for (const auto& [id, s] : window->series) {
      if (s.kind == SeriesKind::kCounter) {
        const std::string total = prom::metric_name(id.name) + "_total";
        w.family(total, "counter",
                 "Cumulative count of '" + id.name +
                     "'; see OBSERVABILITY.md.");
        w.sample(total, to_prom_labels(id.labels), s.value);
      } else {
        const std::string fam = prom::metric_name(id.name);
        w.family(fam, "gauge",
                 "Instantaneous value of '" + id.name +
                     "'; see OBSERVABILITY.md.");
        w.sample(fam, to_prom_labels(id.labels), s.value);
      }
    }
    // Second pass so every _per_sec family sits after the _total
    // families rather than interleaving with them.
    for (const auto& [id, s] : window->series) {
      if (s.kind != SeriesKind::kCounter) continue;
      const std::string rate = prom::metric_name(id.name) + "_per_sec";
      w.family(rate, "gauge",
               "Per-second rate of '" + id.name +
                   "' over the last telemetry window.");
      w.sample(rate, to_prom_labels(id.labels), s.rate);
    }
    for (const auto& [id, sw] : window->stats) {
      const std::string fam = prom::metric_name(id.name);
      w.family(fam, "summary",
               "Window-scoped distribution of '" + id.name +
                   "' (quantiles/_sum/_count cover only the last "
                   "telemetry window).");
      const prom::Labels dims = to_prom_labels(id.labels);
      const std::pair<const char*, double> quants[] = {
          {"0.5", sw.p50}, {"0.9", sw.p90}, {"0.99", sw.p99}};
      for (const auto& [q, v] : quants) {
        prom::Labels labels = dims;
        labels.push_back({"quantile", q});
        w.sample(fam, std::move(labels), v);
      }
      w.child_sample(fam, "_sum", dims,
                     sw.mean * static_cast<double>(sw.count));
      w.child_sample(fam, "_count", dims, static_cast<double>(sw.count));
    }
  }

  // alerts.* family.
  w.family("flecc_alerts_raised_total", "counter",
           "Alert rules that began firing (alert_raised events).");
  w.sample("flecc_alerts_raised_total", {},
           static_cast<double>(alerts_.raised_total()));
  w.family("flecc_alerts_cleared_total", "counter",
           "Alert rules that stopped firing (alert_cleared events).");
  w.sample("flecc_alerts_cleared_total", {},
           static_cast<double>(alerts_.cleared_total()));
  w.family("flecc_alerts_evaluations_total", "counter",
           "Telemetry windows evaluated against the alert rules.");
  w.sample("flecc_alerts_evaluations_total", {},
           static_cast<double>(alerts_.windows_evaluated()));
  w.family("flecc_alerts_active", "gauge",
           "1 for each (rule, series) currently firing.");
  for (const ActiveAlert& a : alerts_.active()) {
    prom::Labels labels = to_prom_labels(a.series.labels);
    labels.push_back({"alert", a.rule});
    labels.push_back({"metric", a.series.name});
    w.sample("flecc_alerts_active", std::move(labels), 1.0);
  }

  // telemetry.* meta family.
  w.family("flecc_telemetry_windows_total", "counter",
           "Telemetry windows closed since start.");
  w.sample("flecc_telemetry_windows_total", {},
           static_cast<double>(registry_.windows_closed()));
  w.family("flecc_telemetry_series", "gauge",
           "Distinct labeled series in the latest window.");
  w.sample("flecc_telemetry_series", {},
           static_cast<double>(registry_.series_count()));
  w.family("flecc_telemetry_interval_us", "gauge",
           "Sampling interval in simulated microseconds.");
  w.sample("flecc_telemetry_interval_us", {},
           static_cast<double>(opts_.interval));
  w.family("flecc_telemetry_window_end_us", "gauge",
           "Simulated time (us) at which the latest window closed.");
  w.sample("flecc_telemetry_window_end_us", {},
           window ? static_cast<double>(window->end) : 0.0);
  w.family("flecc_telemetry_http_requests_total", "counter",
           "HTTP requests served by the telemetry server.");
  w.sample("flecc_telemetry_http_requests_total", {},
           static_cast<double>(http_requests_.load()));
  w.family("flecc_telemetry_http_errors_total", "counter",
           "HTTP requests answered with a non-200 status.");
  w.sample("flecc_telemetry_http_errors_total", {},
           static_cast<double>(http_errors_.load()));
  return w.str();
}

namespace {

void json_labels(std::ostringstream& out, const TsLabels& labels) {
  out << "{";
  bool first = true;
  for (const TsLabel& l : labels) {
    if (!first) out << ",";
    first = false;
    out << "\"" << prom::json_escape(l.key) << "\":\""
        << prom::json_escape(l.value) << "\"";
  }
  out << "}";
}

void json_window(std::ostringstream& out, const TelemetryWindow& w) {
  out << "{\"index\":" << w.index << ",\"start_us\":" << w.start
      << ",\"end_us\":" << w.end << ",\"series\":[";
  bool first = true;
  for (const auto& [id, s] : w.series) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << prom::json_escape(id.name) << "\",\"labels\":";
    json_labels(out, id.labels);
    out << ",\"kind\":\""
        << (s.kind == SeriesKind::kCounter ? "counter" : "gauge")
        << "\",\"value\":" << prom::format_value(s.value)
        << ",\"delta\":" << prom::format_value(s.delta)
        << ",\"rate\":" << prom::format_value(s.rate) << "}";
  }
  out << "],\"stats\":[";
  first = true;
  for (const auto& [id, sw] : w.stats) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << prom::json_escape(id.name) << "\",\"labels\":";
    json_labels(out, id.labels);
    out << ",\"count\":" << sw.count
        << ",\"mean\":" << prom::format_value(sw.mean)
        << ",\"p50\":" << prom::format_value(sw.p50)
        << ",\"p90\":" << prom::format_value(sw.p90)
        << ",\"p99\":" << prom::format_value(sw.p99) << "}";
  }
  out << "]}";
}

void json_alerts(std::ostringstream& out, const AlertEngine& alerts) {
  out << "{\"rules\":" << alerts.rules().size()
      << ",\"raised\":" << alerts.raised_total()
      << ",\"cleared\":" << alerts.cleared_total() << ",\"active\":[";
  bool first = true;
  for (const ActiveAlert& a : alerts.active()) {
    if (!first) out << ",";
    first = false;
    out << "{\"rule\":\"" << prom::json_escape(a.rule) << "\",\"metric\":\""
        << prom::json_escape(a.series.name) << "\",\"labels\":";
    json_labels(out, a.series.labels);
    out << ",\"value\":" << prom::format_value(a.value)
        << ",\"since_us\":" << a.since << ",\"window\":" << a.window << "}";
  }
  out << "]}";
}

}  // namespace

std::string TelemetryHub::render_varz() const {
  std::ostringstream out;
  const auto windows = registry_.recent(kVarzWindows);
  out << "{\"interval_us\":" << opts_.interval
      << ",\"windows_closed\":" << registry_.windows_closed()
      << ",\"now_us\":" << (windows.empty() ? 0 : windows.back().end)
      << ",\"status\":\"" << health_status() << "\",\"windows\":[";
  bool first = true;
  for (const TelemetryWindow& w : windows) {
    if (!first) out << ",";
    first = false;
    json_window(out, w);
  }
  out << "],\"alerts\":";
  json_alerts(out, alerts_);
  out << "}";
  return out.str();
}

std::string TelemetryHub::health_status() const {
  if (!alerts_.active().empty()) return "alerting";
  if (const auto w = registry_.latest()) {
    for (const auto& [id, s] : w->series) {
      if (s.kind == SeriesKind::kGauge &&
          id.name.rfind("health.", 0) == 0 && s.value != 0.0) {
        return "degraded";
      }
    }
  }
  return "ok";
}

std::string TelemetryHub::render_healthz() const {
  std::ostringstream out;
  const auto w = registry_.latest();
  out << "{\"status\":\"" << health_status() << "\",\"now_us\":"
      << (w ? w->end : 0) << ",\"windows\":" << registry_.windows_closed()
      << ",\"series\":" << registry_.series_count();
  out << ",\"health\":{";
  bool first = true;
  if (w) {
    for (const auto& [id, s] : w->series) {
      if (s.kind != SeriesKind::kGauge || id.name.rfind("health.", 0) != 0) {
        continue;
      }
      if (!first) out << ",";
      first = false;
      out << "\"" << prom::json_escape(id.name.substr(7));
      if (!id.labels.empty()) {
        out << "|";
        for (std::size_t i = 0; i < id.labels.size(); ++i) {
          if (i != 0) out << ",";
          out << prom::json_escape(id.labels[i].key) << "="
              << prom::json_escape(id.labels[i].value);
        }
      }
      out << "\":" << prom::format_value(s.value);
    }
  }
  out << "},\"recovery\":{";
  first = true;
  if (w) {
    for (const auto& [id, s] : w->series) {
      if (id.name.rfind("recovery.", 0) != 0) continue;
      if (!first) out << ",";
      first = false;
      out << "\"" << prom::json_escape(id.name.substr(9))
          << "\":" << prom::format_value(s.value);
    }
  }
  out << "},\"alerts\":";
  json_alerts(out, alerts_);
  out << "}";
  return out.str();
}

}  // namespace flecc::obs

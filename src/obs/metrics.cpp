#include "obs/metrics.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/prom.hpp"

namespace flecc::obs {

void MetricsRegistry::absorb(const sim::CounterSet& src,
                             const std::string& prefix) {
  for (const auto& [name, value] : src.all()) {
    counters_.inc(prefix + name, value);
  }
}

void MetricsRegistry::observe(const std::string& name, double value) {
  stats_[name].add(value);
  samples_[name].add(value);
}

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string MetricsRegistry::to_csv() const {
  std::ostringstream out;
  out << "kind,name,field,value\n";
  for (const auto& [name, value] : counters_.all()) {
    out << "counter," << name << ",value," << value << "\n";
  }
  for (const auto& [name, st] : stats_) {
    out << "stat," << name << ",count," << st.count() << "\n";
    out << "stat," << name << ",mean," << fmt(st.mean()) << "\n";
    out << "stat," << name << ",stddev," << fmt(st.stddev()) << "\n";
    out << "stat," << name << ",min," << fmt(st.min()) << "\n";
    out << "stat," << name << ",max," << fmt(st.max()) << "\n";
  }
  for (const auto& [name, ss] : samples_) {
    if (ss.empty()) continue;
    out << "quantile," << name << ",p50," << fmt(ss.quantile(0.5)) << "\n";
    out << "quantile," << name << ",p90," << fmt(ss.quantile(0.9)) << "\n";
    out << "quantile," << name << ",p99," << fmt(ss.quantile(0.99)) << "\n";
    out << "quantile," << name << ",p999," << fmt(ss.quantile(0.999)) << "\n";
  }
  return out.str();
}

bool MetricsRegistry::write_csv(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << to_csv();
  return static_cast<bool>(f);
}

std::string MetricsRegistry::to_prometheus() const {
  prom::Writer w;
  for (const auto& [name, value] : counters_.all()) {
    const auto split = prom::split_family(name);
    const std::string& base = split ? split->base : name;
    const std::string fam = prom::metric_name(base) + "_total";
    w.family(fam, "counter",
             "Cumulative count of '" + base + "'; see OBSERVABILITY.md.");
    prom::Labels labels;
    if (split) {
      labels.push_back({prom::label_key(split->label_k), split->label_v});
    }
    w.sample(fam, std::move(labels), static_cast<double>(value));
  }
  for (const auto& [name, ss] : samples_) {
    if (ss.empty()) continue;
    const auto split = prom::split_family(name);
    const std::string& base = split ? split->base : name;
    const std::string fam = prom::metric_name(base);
    w.family(fam, "summary",
             "Distribution of '" + base + "'; see OBSERVABILITY.md.");
    prom::Labels dims;
    if (split) {
      dims.push_back({prom::label_key(split->label_k), split->label_v});
    }
    for (const char* q : {"0.5", "0.9", "0.99", "0.999"}) {
      prom::Labels labels = dims;
      labels.push_back({"quantile", q});
      w.sample(fam, std::move(labels), ss.quantile(std::atof(q)));
    }
    w.child_sample(fam, "_sum", dims,
                   ss.mean() * static_cast<double>(ss.count()));
    w.child_sample(fam, "_count", dims, static_cast<double>(ss.count()));
  }
  for (const auto& [name, st] : stats_) {
    if (samples_.count(name) != 0) continue;  // already a summary
    const std::string fam = prom::metric_name(name);
    w.family(fam, "gauge", "Mean of '" + name + "'; see OBSERVABILITY.md.");
    w.sample(fam, {}, st.mean());
  }
  return w.str();
}

bool MetricsRegistry::write_prometheus(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << to_prometheus();
  return static_cast<bool>(f);
}

std::string MetricsRegistry::to_string() const {
  std::ostringstream out;
  if (!counters_.all().empty()) {
    out << "counters:\n";
    for (const auto& [name, value] : counters_.all()) {
      out << "  " << name << " = " << value << "\n";
    }
  }
  for (const auto& [name, ss] : samples_) {
    if (ss.empty()) continue;
    out << name << ": n=" << ss.count() << " mean=" << fmt(ss.mean())
        << " p50=" << fmt(ss.quantile(0.5)) << " p99=" << fmt(ss.quantile(0.99))
        << " max=" << fmt(ss.quantile(1.0)) << "\n";
  }
  return out.str();
}

}  // namespace flecc::obs

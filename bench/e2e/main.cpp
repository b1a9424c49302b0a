// flecc_e2e — the end-to-end benchmark program.
//
//   flecc_e2e --workload W [--seed S] [--seconds N] [--trace] [--smoke]
//             [--json PATH]
//
// Runs rounds of workload W (workloads.hpp) with seed S until N seconds
// are used, prints every end-to-end metric with its unit, and exits
// non-zero if any correctness check failed. With --trace every other
// round stacks the timing decorators (timed.hpp); those rounds give the
// per-layer split, and the spans of their first ops go beside the JSON.
// See README.md for the metrics, the workloads, and the method.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "span.hpp"
#include "workloads.hpp"

namespace {

using flecc::e2e::Kind;
using flecc::e2e::RoundResult;
using flecc::e2e::Totals;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string json;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "flecc_e2e: %s\n", why);
  std::fprintf(stderr,
               "usage: flecc_e2e --workload W [--seed S] [--seconds N] "
               "[--trace] [--smoke] [--json PATH]\nworkloads:");
  for (const auto& w : flecc::e2e::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed takes an unsigned integer");
    } else if (a == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0.0) ||
          o.seconds > 3600.0) {
        usage("--seconds takes a number in (0, 3600]");
      }
    } else if (a == "--trace") {
      o.trace = true;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--json") {
      o.json = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  const auto& names = flecc::e2e::workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage("unknown or missing --workload");
  }
  return o;
}

using flecc::e2e::mean;
using flecc::e2e::quantile;

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// setup_s is this quantile of a run's set-ups: near the fastest, which
/// a busy host cannot make faster, but not one timer reading.
constexpr double kSetupQuantile = 0.1;

/// Every round's values of `field`, concatenated.
std::vector<double> all_of(const std::vector<RoundResult>& rounds,
                           std::vector<double> RoundResult::*field) {
  std::vector<double> out;
  for (const auto& r : rounds) {
    out.insert(out.end(), (r.*field).begin(), (r.*field).end());
  }
  return out;
}

/// Throughput of the measured loop where the host disturbed it least.
/// Slice k of every SimFabric round of one seed does the same work, so
/// each slice is timed at its fastest round, and the rate is all slices'
/// ops over the sum of those times: the harmonic mean of the per-slice
/// best rates. ThreadFabric windows are alike rather than identical, and
/// take the same rule. A shared host only ever slows a slice, so the
/// best of several repeats tracks the program, not its neighbours.
double best_rate(const std::vector<RoundResult>& rounds) {
  std::size_t slices = rounds.front().slice_rates.size();
  for (const auto& r : rounds) slices = std::min(slices, r.slice_rates.size());
  double inverse = 0.0;
  for (std::size_t k = 0; k < slices; ++k) {
    double best = 0.0;
    for (const auto& r : rounds) best = std::max(best, r.slice_rates[k]);
    inverse += 1.0 / best;
  }
  return slices == 0 ? 0.0 : static_cast<double>(slices) / inverse;
}

/// A metric value; nullopt prints as N/A.
using Value = std::optional<double>;

struct Metric {
  std::string name;
  std::string unit;
  Value value;
  const char* cls;  // "exact" (repeats bit-for-bit on SimFabric) or "wall"
};

Value ratio(double num, double den) {
  if (den == 0.0) return std::nullopt;
  return num / den;
}

std::uint64_t sum_prefix(const std::map<std::string, std::uint64_t>& c,
                         const std::string& prefix) {
  std::uint64_t n = 0;
  for (const auto& [name, v] : c) {
    if (name.rfind(prefix, 0) == 0) n += v;
  }
  return n;
}

std::uint64_t get(const std::map<std::string, std::uint64_t>& c,
                  const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

/// p99 of one API call's latency: exact on SimFabric (every round is
/// identical), the median round on ThreadFabric.
Value p99_of(const std::vector<RoundResult>& rounds,
             std::optional<double> RoundResult::*field) {
  if (!rounds.front().threaded) return rounds.front().*field;
  std::vector<double> v;
  for (const auto& r : rounds) {
    if ((r.*field).has_value()) v.push_back(*(r.*field));
  }
  if (v.empty()) return std::nullopt;
  return median(v);
}

/// Exact counters two rounds of one seed must share. Returns the first
/// difference, or an empty string.
std::string exact_difference(const RoundResult& a, const RoundResult& b) {
  if (a.msgs != b.msgs) return "msgs";
  if (a.hops != b.hops) return "hops";
  if (a.bytes != b.bytes) return "bytes";
  if (a.events != b.events) return "simulator events";
  if (a.allocs != b.allocs) return "allocations";
  if (a.op_lat != b.op_lat) return "op latencies";
  if (a.total_reserved != b.total_reserved) return "total_reserved";
  if (a.stale_grants != b.stale_grants) return "stale grants";
  return {};
}

/// The process's peak resident set (VmHWM). Not getrusage's ru_maxrss,
/// which carries the parent's footprint across fork and exec.
Value peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nullopt;
  char line[256];
  Value out;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long kb = 0;
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
      out = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return out;
}

std::vector<Metric> end_to_end(const std::vector<RoundResult>& plain) {
  const RoundResult& first = plain.front();
  const bool threaded = first.threaded;
  const char* exact = threaded ? "wall" : "exact";
  std::vector<double> allocs;
  double msgs = 0, hops = 0, bytes = 0, done = 0, issued = 0, failed = 0;
  double pulls = 0, unseen = 0;
  for (const auto& r : plain) {
    allocs.push_back(static_cast<double>(r.allocs) /
                     static_cast<double>(r.completed));
    msgs += static_cast<double>(r.msgs);
    hops += static_cast<double>(r.hops);
    bytes += static_cast<double>(r.bytes);
    done += static_cast<double>(r.completed);
    issued += static_cast<double>(r.issued);
    failed += static_cast<double>(r.give_ups + (r.issued - r.completed));
    pulls += static_cast<double>(r.pulls);
    unseen += static_cast<double>(r.unseen);
  }
  // SimFabric latencies are exact; ThreadFabric ones are medians over
  // the measured slices, like ops_per_s.
  const auto& lat = first.op_lat;
  const double p50 = threaded ? median(all_of(plain, &RoundResult::slice_p50))
                              : quantile(lat, 0.5);
  const double p99 = threaded ? median(all_of(plain, &RoundResult::slice_p99))
                              : quantile(lat, 0.99);
  const double avg = threaded ? median(all_of(plain, &RoundResult::slice_mean))
                              : mean(lat);
  return {
      {"setup_s", "s",
       quantile(all_of(plain, &RoundResult::setup_samples), kSetupQuantile),
       "wall"},
      {"ops_per_s", "ops/s", best_rate(plain), "wall"},
      {"op_p50_us", "us", p50, exact},
      {"op_p99_us", "us", p99, exact},
      {"op_mean_us", "us", avg, exact},
      {"msgs_per_op", "msgs", ratio(msgs, done), exact},
      {"hops_per_op", "hops", ratio(hops, done), exact},
      {"bytes_per_op", "B", ratio(bytes, done), exact},
      {"allocs_per_op", "allocs", median(allocs), exact},
      {"unseen_per_pull", "updates", ratio(unseen, pulls), exact},
      {"failed_op_share", "ratio", ratio(failed, issued), exact},
      {"peak_rss_mb", "MB", peak_rss_mb(), "wall"},
  };
}

std::vector<Metric> per_layer(const std::vector<RoundResult>& plain,
                              const std::vector<RoundResult>& traced) {
  Totals t;
  double ops = 0, wall = 0, msgs = 0, pushes = 0;
  std::uint64_t events = 0, peak = 0;
  flecc::e2e::ProbeStats probe;
  std::map<std::string, std::uint64_t> net, dm, cm;
  for (const auto& r : traced) {
    t += r.spans;
    ops += static_cast<double>(r.completed);
    wall += r.measured_s;
    msgs += static_cast<double>(r.msgs);
    pushes += static_cast<double>(r.pushes_issued);
    events += r.events;
    peak = std::max(peak, r.mailbox_peak);
    probe.conflicting_ns += r.probe.conflicting_ns;
    probe.quality_ns += r.probe.quality_ns;
    probe.calls += r.probe.calls;
    probe.useful_sum += r.probe.useful_sum;
    for (const auto& [k, v] : r.net) net[k] += v;
    for (const auto& [k, v] : r.dm) dm[k] += v;
    for (const auto& [k, v] : r.cm) cm[k] += v;
  }
  const RoundResult& first = traced.front();
  const bool sim = !first.threaded;
  auto per_op = [&](double x) { return ratio(x, ops); };
  auto calls = [&](Kind k) { return per_op(static_cast<double>(t.calls_of(k))); };
  auto self_ns = [&](Kind k) {
    return per_op(static_cast<double>(t.self_ns_of(k)));
  };
  auto allocs = [&](Kind k) {
    return per_op(static_cast<double>(t.self_allocs_of(k)));
  };
  auto only = [](bool on, Value v) { return on ? v : std::nullopt; };
  auto sum = [](std::initializer_list<Value> vs) -> Value {
    double s = 0;
    for (const auto& v : vs) s += v.value_or(0.0);
    return s;
  };
  std::uint64_t all_self = 0;
  for (std::size_t i = 0; i < flecc::e2e::kKinds; ++i) all_self += t.self_ns[i];
  const auto f = [](std::uint64_t x) { return static_cast<double>(x); };

  std::vector<Metric> out = {
      {"sim.events_per_op", "events", only(sim, per_op(f(events))), "exact"},
      {"sim.self_ns_per_op", "ns", only(sim, self_ns(Kind::kSimRun)), "wall"},
      {"net.send.self_ns_per_op", "ns", self_ns(Kind::kNetSend), "wall"},
      {"net.send.allocs_per_op", "allocs", allocs(Kind::kNetSend), "exact"},
      {"net.wire.calls_per_op", "calls",
       only(first.batched, calls(Kind::kNetWire)), "exact"},
      {"net.batch.self_ns_per_op", "ns",
       only(first.batched, sum({self_ns(Kind::kNetWire),
                                self_ns(Kind::kNetFlush),
                                self_ns(Kind::kNetDeliver)})),
       "wall"},
      {"net.batch.coalesced_share", "ratio",
       only(first.batched, ratio(f(get(net, "batch.coalesced")), msgs)),
       "exact"},
      {"net.sched.self_ns_per_op", "ns", self_ns(Kind::kNetSched), "wall"},
      {"net.dropped_per_op", "msgs", per_op(f(sum_prefix(net, "msg.dropped."))),
       "exact"},
      {"net.busy_per_op", "msgs", per_op(f(get(net, "msg.sent.flecc.busy"))),
       "exact"},
      {"dm.handle.calls_per_op", "calls", calls(Kind::kDmHandle), "exact"},
      {"dm.handle.self_ns_per_op", "ns", self_ns(Kind::kDmHandle), "wall"},
      {"dm.handle.allocs_per_op", "allocs", allocs(Kind::kDmHandle), "exact"},
      {"dm.timer.self_ns_per_op", "ns", self_ns(Kind::kDmTimer), "wall"},
      {"dm.fetch_rounds_per_op", "rounds",
       per_op(f(get(dm, "op.pull.fetch_round"))), "exact"},
      {"dm.fetch_targets_per_round", "views",
       ratio(f(get(dm, "op.fetch.sent")), f(get(dm, "op.pull.fetch_round"))),
       "exact"},
      {"dm.invalidations_per_acquire", "views",
       ratio(f(get(dm, "op.acquire.invalidations")), f(get(dm, "op.acquire"))),
       "exact"},
      {"dm.merges_per_op", "merges", per_op(f(get(dm, "merge.count"))),
       "exact"},
      {"dm.duplicates_per_op", "msgs",
       per_op(f(sum_prefix(dm, "msg.duplicate.") + get(dm, "echo.duplicate"))),
       "exact"},
      {"dm.conflicting_views.ns_per_call", "ns",
       ratio(f(probe.conflicting_ns), f(probe.calls)), "wall"},
      {"dm.quality.ns_per_call", "ns", ratio(f(probe.quality_ns), f(probe.calls)),
       "wall"},
      {"dm.conflict.useful_ratio", "ratio",
       ratio(probe.useful_sum, f(probe.calls)), "exact"},
      {"cm.api.self_ns_per_op", "ns", self_ns(Kind::kCmApi), "wall"},
      {"cm.handle.calls_per_op", "calls", calls(Kind::kCmHandle), "exact"},
      {"cm.handle.self_ns_per_op", "ns", self_ns(Kind::kCmHandle), "wall"},
      {"cm.handle.allocs_per_op", "allocs", allocs(Kind::kCmHandle), "exact"},
      {"cm.timer.calls_per_op", "calls", calls(Kind::kCmTimer), "exact"},
      {"cm.timer.self_ns_per_op", "ns", self_ns(Kind::kCmTimer), "wall"},
      {"cm.retries_per_op", "msgs", per_op(f(get(cm, "op.retry"))), "exact"},
      {"cm.wbuf.absorbed_share", "ratio",
       only(first.write_buffer, ratio(f(get(cm, "wbuf.absorbed")), pushes)),
       "exact"},
      {"op.pull_p99_us", "us", p99_of(plain, &RoundResult::pull_p99),
       sim ? "exact" : "wall"},
      {"op.push_p99_us", "us", p99_of(plain, &RoundResult::push_p99),
       sim ? "exact" : "wall"},
      {"op.acquire_p99_us", "us", p99_of(plain, &RoundResult::acquire_p99),
       sim ? "exact" : "wall"},
      {"wal.dm.appends_per_op", "appends",
       only(first.durable, calls(Kind::kWalDmAppend)), "exact"},
      {"wal.cm.appends_per_op", "appends",
       only(first.durable, calls(Kind::kWalCmAppend)), "exact"},
      {"wal.append.ns_per_op", "ns",
       only(first.durable,
            sum({self_ns(Kind::kWalDmAppend), self_ns(Kind::kWalCmAppend)})),
       "wall"},
      {"wal.flush.ns_per_op", "ns",
       only(first.durable, self_ns(Kind::kWalFlush)), "wall"},
      {"wal.compact.ns_per_op", "ns",
       only(first.durable, self_ns(Kind::kWalCompact)), "wall"},
      {"wal.allocs_per_op", "allocs",
       only(first.durable,
            sum({allocs(Kind::kWalDmAppend), allocs(Kind::kWalCmAppend),
                 allocs(Kind::kWalFlush), allocs(Kind::kWalCompact),
                 allocs(Kind::kWalOther)})),
       "exact"},
      {"primary.merge.calls_per_op", "calls", calls(Kind::kPrimaryMerge),
       "exact"},
      {"primary.merge.ns_per_op", "ns", self_ns(Kind::kPrimaryMerge), "wall"},
      {"primary.extract.ns_per_op", "ns", self_ns(Kind::kPrimaryExtract),
       "wall"},
      {"view.extract.calls_per_op", "calls", calls(Kind::kViewExtract),
       "exact"},
      {"view.extract.ns_per_op", "ns", self_ns(Kind::kViewExtract), "wall"},
      {"view.merge.ns_per_op", "ns", self_ns(Kind::kViewMerge), "wall"},
      {"rt.mailbox_peak", "msgs", only(!sim, f(peak)), "wall"},
      {"rt.handler_ns_per_op", "ns",
       only(!sim, per_op(f(t.total_ns_of(Kind::kDmHandle) +
                           t.total_ns_of(Kind::kCmHandle) +
                           t.total_ns_of(Kind::kDmTimer) +
                           t.total_ns_of(Kind::kCmTimer) +
                           t.total_ns_of(Kind::kBench)))),
       "wall"},
      {"trace.overhead_share", "ratio",
       best_rate(plain) / best_rate(traced) - 1.0, "wall"},
      {"trace.coverage_share", "ratio",
       only(sim, ratio(f(all_self), wall * 1e9)), "wall"},
  };
  if (!sim) {
    for (auto& m : out) m.cls = "wall";  // thread interleaving varies
  }
  return out;
}

/// Self time per op of each layer, and its share of all self time.
std::vector<std::pair<std::string, std::pair<double, double>>> layer_split(
    const std::vector<RoundResult>& traced) {
  Totals t;
  double ops = 0;
  for (const auto& r : traced) {
    t += r.spans;
    ops += static_cast<double>(r.completed);
  }
  std::vector<std::string> layers;
  std::map<std::string, double> ns;
  double all = 0;
  for (std::size_t i = 0; i < flecc::e2e::kKinds; ++i) {
    const std::string layer = flecc::e2e::kKindInfo[i].layer;
    if (ns.find(layer) == ns.end()) layers.push_back(layer);
    ns[layer] += static_cast<double>(t.self_ns[i]);
    all += static_cast<double>(t.self_ns[i]);
  }
  std::vector<std::pair<std::string, std::pair<double, double>>> out;
  for (const auto& l : layers) {
    out.push_back({l, {ops > 0 ? ns[l] / ops : 0.0, all > 0 ? ns[l] / all : 0.0}});
  }
  return out;
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("\n%-34s %18s  %-8s %s\n", title, "value", "unit", "class");
  for (const auto& m : ms) {
    if (m.value.has_value()) {
      std::printf("%-34s %18.6g  %-8s %s\n", m.name.c_str(), *m.value,
                  m.unit.c_str(), m.cls);
    } else {
      std::printf("%-34s %18s  %-8s %s\n", m.name.c_str(), "N/A",
                  m.unit.c_str(), m.cls);
    }
  }
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_metrics(std::FILE* f, const char* key,
                   const std::vector<Metric>& ms) {
  std::fprintf(f, "  %s: {", json_string(key).c_str());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const auto& m = ms[i];
    std::fprintf(f, "%s\n    %s: {\"value\": %s, \"unit\": %s, \"class\": %s}",
                 i == 0 ? "" : ",", json_string(m.name).c_str(),
                 m.value ? json_number(*m.value).c_str() : "null",
                 json_string(m.unit).c_str(), json_string(m.cls).c_str());
  }
  std::fprintf(f, "\n  }");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  // One malloc arena: glibc's per-thread arenas make threaded_rt's peak
  // RSS depend on which thread freed what (README.md).
  mallopt(M_ARENA_MAX, 1);
  std::string spans_path;
  if (!opt.json.empty()) {
    const std::filesystem::path json(opt.json);
    std::error_code ec;
    if (json.has_parent_path()) {
      std::filesystem::create_directories(json.parent_path(), ec);
    }
    spans_path =
        (json.parent_path() / (opt.workload + ".spans.jsonl")).string();
  }

  // Rounds alternate untraced/traced under --trace; each run keeps going
  // while another round fits in --seconds.
  std::vector<RoundResult> plain, traced;
  std::vector<std::string> failures;
  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0;; ++round) {
    const bool tr = opt.trace && round % 2 == 1;
    flecc::e2e::RoundInput in;
    in.seed = opt.seed;
    in.traced = tr;
    in.smoke = opt.smoke;
    in.log_spans = tr && traced.empty() && !spans_path.empty();
    flecc::e2e::set_tracing(tr);
    RoundResult r = flecc::e2e::run_round(opt.workload, in);
    flecc::e2e::set_tracing(false);
    std::printf("round %d%s: setup %.6f s, measured %.6f s, median slice "
                "%.1f ops/s\n",
                round, tr ? " (traced)" : "", r.setup_s, r.measured_s,
                median(r.slice_rates));
    if (in.log_spans && !flecc::e2e::write_spans(spans_path)) {
      r.failures.push_back("cannot write " + spans_path);
    }
    if (!plain.empty() && !r.threaded) {
      // Every SimFabric round of one seed must match the first untraced
      // one bit-for-bit; only that one's latency samples are kept.
      const std::string d = exact_difference(plain.front(), r);
      if (!d.empty()) {
        failures.push_back(std::string(tr ? "traced" : "untraced") +
                           " round " + std::to_string(round) +
                           " differs from round 0 in " + d);
      }
      r.op_lat.clear();
    }
    (tr ? traced : plain).push_back(std::move(r));
    const bool enough = !plain.empty() && (!opt.trace || !traced.empty());
    if (!enough) continue;
    if (opt.smoke) break;
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    if (elapsed + elapsed / (round + 1) > opt.seconds) break;
  }

  // ---- correctness: every round's own checks ----
  std::uint64_t attempted = 0, failed = 0;
  auto absorb = [&](const std::vector<RoundResult>& rs, const char* kind) {
    for (std::size_t i = 0; i < rs.size(); ++i) {
      for (const auto& f : rs[i].failures) {
        failures.push_back(std::string(kind) + " round " + std::to_string(i) +
                           ": " + f);
      }
      attempted += rs[i].issued;
      failed += rs[i].give_ups + (rs[i].issued - rs[i].completed);
    }
  };
  absorb(plain, "untraced");
  absorb(traced, "traced");

  const auto e2e = end_to_end(plain);
  std::printf("flecc_e2e %s seed=%" PRIu64 "%s%s: %zu untraced + %zu traced "
              "rounds\n",
              opt.workload.c_str(), opt.seed, opt.smoke ? " smoke" : "",
              opt.trace ? " trace" : "", plain.size(), traced.size());
  print_metrics("end-to-end", e2e);
  std::size_t samples = plain.front().completed;
  if (plain.front().threaded) {
    samples = 0;
    for (const auto& r : plain) samples += r.completed;
  }
  std::printf("op latency samples: %zu (%s)\n", samples,
              plain.front().threaded ? "all rounds, wall us"
                                     : "per round, simulated us");

  std::vector<Metric> layers;
  if (!traced.empty()) {
    layers = per_layer(plain, traced);
    print_metrics("per-layer", layers);
    std::printf("\n%-12s %16s %10s\n", "layer", "self ns/op", "share");
    for (const auto& [layer, v] : layer_split(traced)) {
      std::printf("%-12s %16.1f %9.1f%%\n", layer.c_str(), v.first,
                  100.0 * v.second);
    }
  }

  // Per round; every SimFabric round of one seed has the same count.
  const std::uint64_t stale = plain.front().stale_grants;
  if (stale != 0) {
    std::printf("\nSTRONG grants the directory had already revoked: %" PRIu64
                " per round (README.md, \"Known protocol defect\")\n",
                stale);
  }
  std::printf("\ncorrectness: %s\n", failures.empty() ? "ok" : "FAILED");
  for (const auto& f : failures) std::printf("  %s\n", f.c_str());

  if (!opt.json.empty()) {
    std::FILE* f = std::fopen(opt.json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "flecc_e2e: cannot write %s\n", opt.json.c_str());
      return 1;
    }
    const RoundResult& r0 = plain.front();
    std::fprintf(f, "{\n  \"workload\": %s,\n  \"seed\": %" PRIu64
                    ",\n  \"smoke\": %s,\n  \"trace\": %s,\n"
                    "  \"rounds\": {\"untraced\": %zu, \"traced\": %zu},\n",
                 json_string(opt.workload).c_str(), opt.seed,
                 opt.smoke ? "true" : "false", opt.trace ? "true" : "false",
                 plain.size(), traced.size());
    std::fprintf(f, "  \"correct\": %s,\n  \"failures\": [",
                 failures.empty() ? "true" : "false");
    for (std::size_t i = 0; i < failures.size(); ++i) {
      std::fprintf(f, "%s%s", i == 0 ? "" : ", ",
                   json_string(failures[i]).c_str());
    }
    std::fprintf(f,
                 "],\n  \"attempted\": %" PRIu64 ",\n  \"failed\": %" PRIu64
                 ",\n  \"op_samples\": %zu,\n  \"stale_grants\": %" PRIu64
                 ",\n",
                 attempted, failed, samples, stale);
    std::fprintf(f,
                 "  \"digest\": {\"events\": %" PRIu64 ", \"msgs\": %" PRIu64
                 ", \"hops\": %" PRIu64 ", \"bytes\": %" PRIu64
                 ", \"allocs\": %" PRIu64 ", \"total_reserved\": %lld},\n",
                 r0.events, r0.msgs, r0.hops, r0.bytes, r0.allocs,
                 static_cast<long long>(r0.total_reserved));
    write_metrics(f, "metrics", e2e);
    std::fprintf(f, ",\n");
    write_metrics(f, "layers", layers);
    std::fprintf(f, ",\n  \"layer_share\": {");
    if (!traced.empty()) {
      bool first = true;
      for (const auto& [layer, v] : layer_split(traced)) {
        std::fprintf(f, "%s%s: %s", first ? "" : ", ",
                     json_string(layer).c_str(),
                     json_number(v.second).c_str());
        first = false;
      }
    }
    std::fprintf(f, "}\n}\n");
    if (std::fclose(f) != 0) {
      std::fprintf(stderr, "flecc_e2e: cannot write %s\n", opt.json.c_str());
      return 1;
    }
  }
  return failures.empty() ? 0 : 1;
}

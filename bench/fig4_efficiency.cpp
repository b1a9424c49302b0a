// Figure 4 — Efficiency: number of messages sent between the cache
// managers and the directory manager.
//
// Paper setup (§5.2): 100 travel agents in a LAN connected to the main
// database. Every agent: create cache manager, set weak mode, init data,
// reserve tickets (on the most current data), kill cache manager. The
// number of agents serving similar flights (the conflicting-group size)
// sweeps 10 → 100 in steps of 10.
//
// Compared protocols:
//   * flecc        — demand fetches go only to *conflicting* agents
//   * time-sharing — token-serialized turns (constant control traffic)
//   * multicast    — application-oblivious: asks ALL agents for updates
//
// Expected shape (paper): time-sharing flat and lowest; multicast flat
// and highest; Flecc grows with the group size and meets multicast when
// every agent conflicts with every other (group = 100).
//
// With `--trace` every Flecc run is executed twice — once bare, once
// recording an obs trace — and the bench aborts if the two message
// counts differ: recording must never perturb the protocol. The
// group=100 trace is written to fig4_trace.jsonl.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "airline/testbed.hpp"
#include "net/telemetry_server.hpp"
#include "obs/monitor/invariant_monitor.hpp"
#include "obs/prom.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_io.hpp"
#include "sim/table.hpp"

using namespace flecc;
using airline::CoherenceTestbed;
using airline::Protocol;
using airline::TestbedOptions;

namespace {

constexpr std::size_t kAgents = 100;
constexpr int kOpsPerAgent = 1;

// Raw-speed knobs (PERFORMANCE.md), shared by every protocol in the
// sweep so the comparison stays apples-to-apples.
bool g_batch = false;
std::size_t g_wbuf = 0;

/// Full lifecycle message count for one protocol at one group size.
std::uint64_t run_lifecycle(Protocol protocol, std::size_t group_size,
                            obs::TraceRecorder* trace = nullptr,
                            obs::TelemetryHub* hub = nullptr) {
  TestbedOptions opts;
  opts.n_agents = kAgents;
  opts.group_size = group_size;
  opts.flights_per_group = 5;
  opts.capacity = 1 << 20;
  opts.cm_cfg.mode = core::Mode::kWeak;
  opts.trace = trace;
  opts.telemetry = hub;
  opts.batch_fabric = g_batch;
  opts.cm_cfg.write_buffer_ops = g_wbuf;
  CoherenceTestbed tb(protocol, opts);

  tb.connect_all();
  for (int op = 0; op < kOpsPerAgent; ++op) {
    for (std::size_t i = 0; i < tb.agent_count(); ++i) {
      const auto flight = tb.assignment().agent_flights[i][0];
      tb.client(i).do_operation(
          [&tb, i, flight] { tb.view(i).confirm_tickets(flight, 1); }, {});
    }
    tb.run();
  }
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    tb.client(i).disconnect({});
  }
  tb.run();
  // A lifecycle lasts a few simulated milliseconds, less than one
  // telemetry interval, so close the run's window here.
  if (hub != nullptr) hub->tick(tb.simulator().now());
  return tb.fabric().sent_count();
}

}  // namespace

int main(int argc, char** argv) {
  bool tracing = false;
  bool monitor = false;
  const char* json_path = nullptr;
  bool serve = false;
  unsigned serve_port = 0;
  unsigned telemetry_interval_ms = 250;
  unsigned pace_ms = 0;
  bool telemetry = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      tracing = true;
    } else if (std::strcmp(argv[i], "--monitor") == 0) {
      // The monitor rides on the traced re-runs, so it implies --trace.
      monitor = tracing = true;
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      g_batch = true;
    } else if (std::strcmp(argv[i], "--wbuf") == 0 && i + 1 < argc) {
      g_wbuf = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      serve = telemetry = true;
      serve_port =
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--telemetry-interval") == 0 &&
               i + 1 < argc) {
      telemetry = true;
      telemetry_interval_ms =
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
      if (telemetry_interval_ms == 0) telemetry_interval_ms = 250;
    } else if (std::strcmp(argv[i], "--pace") == 0 && i + 1 < argc) {
      telemetry = true;
      pace_ms = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace] [--monitor] [--batch] [--wbuf N] "
                   "[--json out.json] [--serve PORT] "
                   "[--telemetry-interval MS] [--pace MS]\n",
                   argv[0]);
      return 2;
    }
  }

  // Live telemetry rides the BARE Flecc runs; with --trace the traced
  // re-run stays hub-free, so the message-count equality below proves
  // both recording and telemetry leave the protocol untouched.
  std::unique_ptr<obs::TelemetryHub> hub;
  std::unique_ptr<net::TelemetryServer> server;
  if (telemetry) {
    obs::TelemetryOptions topts;
    topts.interval = sim::msec(telemetry_interval_ms);
    topts.pace_ms = pace_ms;
    hub = std::make_unique<obs::TelemetryHub>(topts);
    if (serve) {
      server = std::make_unique<net::TelemetryServer>(
          static_cast<std::uint16_t>(serve_port));
      if (!server->listening()) {
        std::fprintf(stderr, "cannot bind telemetry port %u\n", serve_port);
        return 1;
      }
      net::serve_telemetry(*hub, *server);
      server->serve_background();
      std::printf("# telemetry: http://127.0.0.1:%u/metrics (also /healthz, "
                  "/varz)\n",
                  server->port());
    }
  }

  std::printf("# Figure 4 — messages between cache managers and the "
              "directory manager\n");
  std::printf("# %zu agents, %d reserve op(s) each, full lifecycle "
              "(register/init/op/kill)\n",
              kAgents, kOpsPerAgent);

  sim::Table table({"group_size", "flecc", "time-sharing", "multicast"});
  obs::TraceRecorder last_trace;
  struct Row {
    std::size_t group;
    std::uint64_t flecc, ts, mc;
  };
  std::vector<Row> rows;
  for (std::size_t g = 10; g <= 100; g += 10) {
    const std::uint64_t flecc_msgs =
        run_lifecycle(Protocol::kFlecc, g, nullptr, hub.get());
    if (tracing) {
      // Re-run with a recorder attached; the deterministic simulator
      // must send exactly the same messages with tracing on. Each group
      // size is an independent run (fresh addresses and spans), so the
      // conformance monitor is fresh per group too.
      obs::TraceRecorder rec;
      obs::monitor::InvariantMonitor checker;
      if (monitor) rec.attach_sink(&checker);
      const std::uint64_t traced = run_lifecycle(Protocol::kFlecc, g, &rec);
      if (traced != flecc_msgs) {
        std::fprintf(stderr,
                     "FAIL: tracing perturbed the run at group=%zu: "
                     "%llu msgs traced vs %llu bare\n",
                     g, static_cast<unsigned long long>(traced),
                     static_cast<unsigned long long>(flecc_msgs));
        return 1;
      }
      if (monitor) {
        checker.finalize();
        if (!checker.violations().empty()) {
          std::fprintf(stderr, "FAIL: invariant violations at group=%zu:\n%s",
                       g, checker.health_report().c_str());
          return 1;
        }
      }
      // The checker dies with this iteration; drop its registration
      // before the recorder can outlive it.
      rec.attach_sink(nullptr);
      if (g == 100) last_trace = std::move(rec);
    }
    const std::uint64_t ts_msgs = run_lifecycle(Protocol::kTimeSharing, g);
    const std::uint64_t mc_msgs = run_lifecycle(Protocol::kMulticast, g);
    table.add_row({static_cast<std::int64_t>(g), flecc_msgs, ts_msgs,
                   mc_msgs});
    rows.push_back({g, flecc_msgs, ts_msgs, mc_msgs});
  }
  std::printf("%s", table.to_string().c_str());
  // Generated artifacts land in the git-ignored out/ directory.
  std::error_code out_ec;
  std::filesystem::create_directories("out", out_ec);
  if (table.write_csv("out/fig4_efficiency.csv")) {
    std::printf("\n# data also written to out/fig4_efficiency.csv\n");
  }
  if (json_path != nullptr) {
    // Machine-readable results for scripted before/after comparisons
    // (the PERFORMANCE.md hop-count trajectory): physical fabric hops
    // per protocol and group size, plus the knob settings that
    // produced them.
    if (std::FILE* f = std::fopen(json_path, "w")) {
      std::fprintf(f,
                   "{\n  \"batch\": %s,\n  \"write_buffer_ops\": %zu,\n"
                   "  \"rows\": [\n",
                   g_batch ? "true" : "false", g_wbuf);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        std::fprintf(f,
                     "    {\"group_size\": %zu, \"flecc\": %llu, "
                     "\"time_sharing\": %llu, \"multicast\": %llu}%s\n",
                     rows[i].group,
                     static_cast<unsigned long long>(rows[i].flecc),
                     static_cast<unsigned long long>(rows[i].ts),
                     static_cast<unsigned long long>(rows[i].mc),
                     i + 1 < rows.size() ? "," : "");
      }
      std::fprintf(f, "  ]\n}\n");
      std::fclose(f);
      std::printf("# hop counts also written to %s\n", json_path);
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
  }
  if (monitor) {
    std::printf("\n# monitor check passed: zero invariant violations at "
                "every group size\n");
  }
  if (tracing) {
    std::printf("\n# tracing check passed: message counts identical with "
                "recording on\n");
    const auto events = last_trace.snapshot();
    if (obs::write_jsonl(events, "out/fig4_trace.jsonl")) {
      std::printf("# group=100 trace (%zu events) written to "
                  "out/fig4_trace.jsonl\n",
                  events.size());
    }
  }
  if (hub != nullptr) {
    const auto issues = obs::prom::validate(hub->render_metrics());
    for (const auto& issue : issues) {
      std::fprintf(stderr, "prom: %s\n", issue.to_string().c_str());
    }
    if (!issues.empty() || hub->registry().windows_closed() == 0) {
      std::fprintf(stderr, "FAIL: telemetry exposition check failed\n");
      return 1;
    }
    std::printf("\n# telemetry check passed: %llu windows sampled, /metrics "
                "validator-clean\n",
                static_cast<unsigned long long>(
                    hub->registry().windows_closed()));
  }

  std::printf("\n# shape check (paper): time-sharing flat & lowest; "
              "multicast flat & highest;\n");
  std::printf("# flecc grows with the conflicting-group size and meets "
              "multicast at group=100.\n");
  return 0;
}

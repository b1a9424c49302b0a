// Figure 5 — Adaptability: method execution time vs data quality as the
// agents switch WEAK → STRONG → WEAK at run time.
//
// Paper setup (§5.2): ten conflicting travel agents connected to the
// main database in one LAN. They run the reserve-tickets loop in weak
// mode, switch to strong, then switch back to weak. The figure's lower
// band is per-method execution time; the upper band is the data quality
// (number of remote unseen updates) of the data each method ran on.
//
// Expected shape (paper): execution time small in WEAK and large in
// STRONG; data quality degrades over time in WEAK and is always perfect
// (0 unseen updates) in STRONG.
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <vector>

#include "airline/testbed.hpp"
#include "sim/script.hpp"
#include "sim/table.hpp"

using namespace flecc;
using airline::FleccTestbed;
using airline::TestbedOptions;

namespace {

constexpr std::size_t kAgents = 10;
constexpr std::size_t kOpsPerPhase = 6;

struct OpRecord {
  sim::Time at = 0;
  std::size_t agent = 0;
  const char* phase = "";
  double latency_us = 0.0;
  std::uint64_t quality = 0;
};

}  // namespace

int main() {
  TestbedOptions opts;
  opts.n_agents = kAgents;
  opts.group_size = kAgents;  // all conflicting
  opts.capacity = 1 << 20;
  opts.cm_cfg.mode = core::Mode::kWeak;
  opts.think_time = sim::msec(2);  // the method does some work
  FleccTestbed tb(opts);
  tb.init_all_agents();
  const auto flight = tb.assignment().agent_flights[0][0];

  std::vector<OpRecord> records;
  const char* current_phase = "WEAK-1";

  // Probe wiring: quality sampled at execution time, latency at
  // completion (correlated through the shared records vector).
  for (std::size_t i = 0; i < kAgents; ++i) {
    airline::TravelAgent& agent = tb.agent(i);
    agent.set_op_probe([&, i](std::size_t, sim::Time at) {
      OpRecord rec;
      rec.at = at;
      rec.agent = i;
      rec.phase = current_phase;
      rec.quality = tb.directory().quality(agent.cache().id());
      records.push_back(rec);
    });
  }

  // op_latencies accumulate per agent in op order, matching the order of
  // that agent's probe records; harvest walks both in lock-step.
  std::size_t harvested_records = 0;
  std::vector<std::size_t> next_latency(kAgents, 0);
  auto harvest_latencies = [&] {
    for (; harvested_records < records.size(); ++harvested_records) {
      OpRecord& rec = records[harvested_records];
      rec.latency_us =
          tb.agent(rec.agent).op_latencies().samples()[next_latency[rec.agent]++];
    }
  };

  auto run_phase = [&](const char* label, core::Mode mode, bool pull_first) {
    current_phase = label;
    for (std::size_t i = 0; i < kAgents; ++i) {
      airline::TravelAgent& agent = tb.agent(i);
      sim::Script script;
      script.then([&agent, mode](sim::Script::Next next) {
        agent.switch_mode(mode, std::move(next));
      });
      script.repeat(kOpsPerPhase, [&agent, flight, pull_first, mode](
                                      std::size_t, sim::Script::Next next) {
        agent.reserve_once(flight, 1, pull_first, [&agent, mode, next] {
          // In weak mode, publish the update so other agents' quality
          // metric sees it (the paper's agents synchronize with the
          // database after working).
          if (mode == core::Mode::kWeak) {
            agent.push_now(next);
          } else {
            next();
          }
        });
      });
      std::move(script).run();
    }
    tb.run();
    harvest_latencies();
  };

  run_phase("WEAK-1", core::Mode::kWeak, /*pull_first=*/false);
  run_phase("STRONG", core::Mode::kStrong, false);
  run_phase("WEAK-2", core::Mode::kWeak, false);

  std::printf("# Figure 5 — execution time vs data quality across "
              "WEAK -> STRONG -> WEAK\n");
  std::printf("# %zu conflicting agents, %zu reserve ops per agent per "
              "phase\n", kAgents, kOpsPerPhase);
  sim::Table table({"sim_time_ms", "phase", "agent", "exec_time_ms",
                    "quality"});
  for (const auto& rec : records) {
    table.add_row({sim::to_ms(rec.at), std::string(rec.phase),
                   static_cast<std::uint64_t>(rec.agent),
                   rec.latency_us / 1000.0, rec.quality});
  }
  std::printf("%s", table.to_string().c_str());
  // Generated artifacts land in the git-ignored out/ directory.
  std::error_code out_ec;
  std::filesystem::create_directories("out", out_ec);
  if (table.write_csv("out/fig5_adaptability.csv")) {
    std::printf("\n# data also written to out/fig5_adaptability.csv\n");
  }

  // Phase aggregates (the figure's two bands).
  std::printf("\n%-8s %18s %18s\n", "phase", "mean_exec_ms", "mean_quality");
  for (const char* phase : {"WEAK-1", "STRONG", "WEAK-2"}) {
    sim::RunningStat lat, qual;
    for (const auto& rec : records) {
      if (std::string_view(rec.phase) != phase) continue;
      lat.add(rec.latency_us / 1000.0);
      qual.add(static_cast<double>(rec.quality));
    }
    std::printf("%-8s %18.3f %18.2f\n", phase, lat.mean(), qual.mean());
  }
  std::printf("\n# shape check (paper): STRONG has the largest execution "
              "time and quality always 0;\n");
  std::printf("# WEAK phases are fast but accumulate unseen remote "
              "updates.\n");
  return 0;
}

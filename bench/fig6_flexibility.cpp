// Figure 6 — Flexibility: effect of a time-based pull trigger on data
// quality and message count.
//
// Paper setup (§5.2): ten conflicting travel agents in weak mode. The
// tracked agent executes a sequence of method calls and explicitly
// pulls the current data before four of them; in the second variant the
// same agent additionally defines a time-based pull trigger. The figure
// plots the data quality (remote unseen updates) at every method call;
// the text reports 116 messages without triggers vs 182 with triggers.
//
// Expected shape: without the trigger, quality decays (unseen updates
// pile up) between the four explicit pulls — a sawtooth with four
// resets; with the trigger, auto-pulls keep the unseen count near zero,
// at the price of more messages.
#include <cstdio>
#include <filesystem>
#include <utility>
#include <vector>

#include "airline/testbed.hpp"
#include "sim/script.hpp"
#include "sim/table.hpp"

using namespace flecc;
using airline::FleccTestbed;
using airline::TestbedOptions;

namespace {

constexpr std::size_t kAgents = 10;       // 1 tracked + 9 producers
constexpr std::size_t kMethodCalls = 20;  // tracked agent's calls
constexpr sim::Duration kCallGap = sim::msec(100);

struct CallRecord {
  sim::Time at;
  std::uint64_t quality;
  bool explicit_pull;
};

struct RunResult {
  std::vector<CallRecord> calls;
  std::uint64_t messages = 0;
  std::uint64_t auto_pulls = 0;
};

RunResult run_variant(bool with_trigger) {
  // The paper's trigger string is time-based; "(t > 250)" here means
  // "pull if more than 250 ms elapsed since my last pull". Agents are
  // symmetric (as in the paper); we track agent 0.
  TestbedOptions opts;
  opts.n_agents = kAgents;
  opts.group_size = kAgents;
  opts.capacity = 1 << 20;
  opts.cm_cfg.mode = core::Mode::kWeak;
  opts.cm_cfg.trigger_poll = sim::msec(50);
  if (with_trigger) opts.cm_cfg.pull_trigger = "(t > 250)";
  FleccTestbed tb2(opts);
  tb2.init_all_agents();
  const auto flight = tb2.assignment().agent_flights[0][0];

  RunResult result;
  airline::TravelAgent& tracked = tb2.agent(0);

  // Producers: agents 1..9 keep reserving and pushing on a cadence so
  // remote updates continuously appear at the directory.
  for (std::size_t i = 1; i < kAgents; ++i) {
    airline::TravelAgent& producer = tb2.agent(i);
    for (std::size_t k = 0; k < kMethodCalls; ++k) {
      tb2.simulator().schedule_at(
          sim::msec(40) + static_cast<sim::Time>(k) * kCallGap +
              static_cast<sim::Time>(i) * sim::msec(7),
          [&producer, flight] {
            producer.view().confirm_tickets(flight, 1);
            producer.push_now();
          });
    }
  }

  // The tracked agent's method calls, every kCallGap; explicit pull
  // before calls 0, 5, 10, 15 (the paper's four explicit pulls).
  for (std::size_t k = 0; k < kMethodCalls; ++k) {
    const bool explicit_pull = (k % 5 == 0);
    tb2.simulator().schedule_at(
        sim::msec(60) + static_cast<sim::Time>(k) * kCallGap,
        [&tb2, &tracked, &result, flight, explicit_pull] {
          auto do_call = [&tb2, &tracked, &result, flight, explicit_pull] {
            result.calls.push_back(
                CallRecord{tb2.simulator().now(),
                           tb2.directory().quality(tracked.cache().id()),
                           explicit_pull});
            tracked.view().confirm_tickets(flight, 1);
          };
          if (explicit_pull) {
            tracked.pull_now(do_call);
          } else {
            do_call();
          }
        });
  }

  tb2.run_until(sim::msec(60) + kMethodCalls * kCallGap + sim::msec(200));
  result.messages = tb2.fabric().sent_count();
  result.auto_pulls = tracked.cache().stats().get("auto.pull");
  return result;
}

void print_series(const char* label, const RunResult& r) {
  std::printf("\n## %s\n", label);
  std::printf("%-8s %12s %10s %14s\n", "call", "sim_time_ms", "quality",
              "explicit_pull");
  for (std::size_t k = 0; k < r.calls.size(); ++k) {
    std::printf("%-8zu %12.1f %10llu %14s\n", k, sim::to_ms(r.calls[k].at),
                static_cast<unsigned long long>(r.calls[k].quality),
                r.calls[k].explicit_pull ? "yes" : "no");
  }
}

}  // namespace

int main() {
  std::printf("# Figure 6 — remote updates not seen by a WEAK-mode cache "
              "manager,\n");
  std::printf("# with vs without a time-based pull trigger "
              "(%zu conflicting agents)\n", kAgents);

  const RunResult without = run_variant(false);
  const RunResult with = run_variant(true);

  print_series("explicit pulls only (paper: upper plot)", without);
  print_series("explicit pulls + pull trigger \"(t > 250)\" "
               "(paper: lower plot)", with);

  sim::Table csv({"variant", "call", "sim_time_ms", "quality",
                  "explicit_pull"});
  const std::pair<const RunResult*, const char*> variants[] = {
      {&without, "no-trigger"}, {&with, "with-trigger"}};
  for (const auto& [result, label] : variants) {
    for (std::size_t k = 0; k < result->calls.size(); ++k) {
      csv.add_row({std::string(label), static_cast<std::uint64_t>(k),
                   sim::to_ms(result->calls[k].at), result->calls[k].quality,
                   std::string(result->calls[k].explicit_pull ? "yes"
                                                              : "no")});
    }
  }
  // Generated artifacts land in the git-ignored out/ directory.
  std::error_code out_ec;
  std::filesystem::create_directories("out", out_ec);
  if (csv.write_csv("out/fig6_flexibility.csv")) {
    std::printf("\n# data also written to out/fig6_flexibility.csv\n");
  }

  sim::RunningStat q_without, q_with;
  for (const auto& c : without.calls) {
    q_without.add(static_cast<double>(c.quality));
  }
  for (const auto& c : with.calls) q_with.add(static_cast<double>(c.quality));

  std::printf("\n%-28s %14s %14s %12s\n", "variant", "mean_quality",
              "max_quality", "messages");
  std::printf("%-28s %14.2f %14.0f %12llu\n", "no trigger", q_without.mean(),
              q_without.max(),
              static_cast<unsigned long long>(without.messages));
  std::printf("%-28s %14.2f %14.0f %12llu\n", "with pull trigger",
              q_with.mean(), q_with.max(),
              static_cast<unsigned long long>(with.messages));
  std::printf("\n# paper's run: 116 messages without triggers vs 182 with "
              "triggers;\n");
  std::printf("# shape check: trigger variant has lower quality values "
              "(fresher data) and\n");
  std::printf("# strictly more messages (auto pulls fired: %llu).\n",
              static_cast<unsigned long long>(with.auto_pulls));
  return 0;
}

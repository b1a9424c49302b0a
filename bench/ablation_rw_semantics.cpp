// Ablation A3 — read/write semantics (the paper's future-work ext. 1).
//
// "The number of control messages can be further reduced by attaching
// read/write semantics to the shared data" (§6). Our implementation
// annotates pulls with an AccessIntent; with Config::use_rw_semantics
// the directory skips demand fetches for read-only pulls (browsing).
//
// Setup: 10 conflicting agents modelling the viewer/buyer mix of §5.1;
// we sweep the browse (read-only) fraction and compare message counts
// with the extension off and on.
#include <cstdio>
#include <memory>
#include <vector>

#include "airline/testbed.hpp"

using namespace flecc;
using airline::FleccTestbed;
using airline::TestbedOptions;

namespace {

constexpr std::size_t kAgents = 10;
constexpr std::size_t kOpsPerAgent = 10;

std::uint64_t run(double read_fraction, bool rw_semantics) {
  TestbedOptions opts;
  opts.n_agents = kAgents;
  opts.group_size = kAgents;
  opts.capacity = 1 << 20;
  opts.cm_cfg.validity_trigger = "false";  // buyers always fetch freshest
  opts.dir_cfg.use_rw_semantics = rw_semantics;
  FleccTestbed tb(opts);
  tb.init_all_agents();
  const auto flight = tb.assignment().agent_flights[0][0];

  const auto baseline = tb.fabric().sent_count();
  for (std::size_t op = 0; op < kOpsPerAgent; ++op) {
    for (std::size_t i = 0; i < kAgents; ++i) {
      airline::TravelAgent& agent = tb.agent(i);
      // Deterministic viewer/buyer interleave per the read fraction.
      const bool is_read =
          static_cast<double>((op * kAgents + i) % 100) <
          read_fraction * 100.0;
      agent.cache().set_intent(is_read ? core::AccessIntent::kReadOnly
                                       : core::AccessIntent::kReadWrite);
      if (is_read) {
        // Browse: refresh, look at availability, do not mutate.
        agent.pull_now([&agent, flight] {
          (void)agent.view().available(flight);
        });
      } else {
        agent.reserve_once(flight, 1, /*pull_first=*/true);
      }
    }
    tb.run();
  }
  return tb.fabric().sent_count() - baseline;
}

}  // namespace

int main() {
  std::printf("# Ablation A3 — read/write semantics "
              "(future-work extension 1)\n");
  std::printf("# %zu conflicting agents, %zu ops each; read-only ops are "
              "browses\n\n", kAgents, kOpsPerAgent);
  std::printf("%-16s %16s %16s %10s\n", "read_fraction", "msgs_plain",
              "msgs_rw_ext", "saved");
  for (const double frac : {0.0, 0.25, 0.5, 0.75, 0.9}) {
    const auto plain = run(frac, false);
    const auto ext = run(frac, true);
    std::printf("%-16.2f %16llu %16llu %9.1f%%\n", frac,
                static_cast<unsigned long long>(plain),
                static_cast<unsigned long long>(ext),
                100.0 * (1.0 - static_cast<double>(ext) /
                                   static_cast<double>(plain)));
  }
  std::printf("\n# the more browsing dominates, the more control messages "
              "the extension removes\n");
  std::printf("# (a read-only pull never triggers a demand-fetch round).\n");
  return 0;
}

// Scalability sweep: how the Flecc directory behaves as the fleet
// grows. The paper evaluates at 100 agents; this bench characterizes
// the implementation beyond that point, up to 10,000 agents — messages
// per operation, simulated events processed, and host wall time split
// into registration (set-up) and per-operation cost — with the
// conflicting group size held at the paper's initial value (10).
#include <chrono>
#include <cstdio>

#include "airline/testbed.hpp"

using namespace flecc;
using airline::CoherenceTestbed;
using airline::Protocol;
using airline::TestbedOptions;

namespace {

using Clock = std::chrono::steady_clock;

struct Point {
  std::uint64_t messages = 0;
  std::uint64_t events = 0;
  double register_ms = 0.0;      // register + initImage every agent
  double us_per_agent_op = 0.0;  // host time of the op phase per agent-op
  std::int64_t reserved = 0;
};

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

Point run(std::size_t n_agents, int ops_per_agent) {
  Point p;
  TestbedOptions opts;
  opts.n_agents = n_agents;
  opts.group_size = 10;
  opts.capacity = 1 << 20;
  CoherenceTestbed tb(Protocol::kFlecc, opts);
  const auto register_start = Clock::now();
  tb.connect_all();
  p.register_ms = ms_since(register_start);

  const auto ops_start = Clock::now();
  for (int op = 0; op < ops_per_agent; ++op) {
    for (std::size_t i = 0; i < tb.agent_count(); ++i) {
      const auto flight = tb.assignment().agent_flights[i][0];
      tb.client(i).do_operation(
          [&tb, i, flight] { tb.view(i).confirm_tickets(flight, 1); }, {});
    }
    tb.run();
  }
  p.us_per_agent_op = 1000.0 * ms_since(ops_start) /
                      (static_cast<double>(n_agents) * ops_per_agent);
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    tb.client(i).disconnect({});
  }
  tb.run();

  p.messages = tb.fabric().sent_count();
  p.events = tb.simulator().executed_events();
  p.reserved = tb.database().total_reserved();
  return p;
}

}  // namespace

int main() {
  constexpr int kOps = 3;
  std::printf("# Scalability sweep — Flecc, conflicting groups of 10, "
              "%d fetch-fresh ops/agent\n\n", kOps);
  std::printf("%-8s %12s %14s %12s %12s %14s %10s\n", "agents", "messages",
              "msgs/agent-op", "sim_events", "register_ms", "us/agent-op",
              "reserved");
  for (const std::size_t n :
       {10u, 50u, 100u, 200u, 400u, 1000u, 2000u, 5000u, 10000u}) {
    const Point p = run(n, kOps);
    std::printf("%-8zu %12llu %14.1f %12llu %12.1f %14.1f %10lld\n", n,
                static_cast<unsigned long long>(p.messages),
                static_cast<double>(p.messages) /
                    (static_cast<double>(n) * kOps),
                static_cast<unsigned long long>(p.events), p.register_ms,
                p.us_per_agent_op, static_cast<long long>(p.reserved));
    std::fflush(stdout);
  }
  std::printf("\n# shape check: msgs/agent-op stays flat as the fleet "
              "grows — the directory pays\n");
  std::printf("# for actual sharing, not for fleet size (contrast Figure "
              "4's multicast). us/agent-op\n");
  std::printf("# stays near flat too (conflict index: per-op work is "
              "O(conflict degree));\n");
  std::printf("# register_ms grows quadratically: each registration checks "
              "the conflict rule\n");
  std::printf("# against every registered view once.\n");
  return 0;
}

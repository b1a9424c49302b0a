// coherence_sim — command-line driver for the simulated airline testbed.
//
// Runs a configurable fleet of travel agents over any of the three
// coherence protocols and reports traffic, reservation outcomes, and
// (for Flecc) data-quality statistics. This is the "try the system on
// your own parameters" entry point a release ships alongside the fixed
// figure benches.
//
//   coherence_sim --protocol flecc --agents 40 --group 10 --ops 5
//                 --validity '(_unseen == 0)' --csv run.csv
//   (single command line; wrapped here for readability)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "airline/testbed.hpp"
#include "sim/table.hpp"

using namespace flecc;
using airline::CoherenceTestbed;
using airline::Protocol;
using airline::TestbedOptions;

namespace {

struct CliOptions {
  Protocol protocol = Protocol::kFlecc;
  std::size_t agents = 20;
  std::size_t group = 10;
  std::size_t flights_per_group = 5;
  std::int64_t capacity = 1 << 20;
  int ops = 5;
  core::Mode mode = core::Mode::kWeak;
  std::string push_trigger;
  std::string pull_trigger;
  std::string validity_trigger;
  sim::Duration lan_latency = sim::usec(200);
  std::string csv_path;
  bool verbose = false;
};

[[noreturn]] void usage(const char* argv0, const char* complaint = nullptr) {
  if (complaint != nullptr) std::fprintf(stderr, "error: %s\n\n", complaint);
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --protocol flecc|time-sharing|multicast  (default flecc)\n"
               "  --agents N            fleet size (default 20)\n"
               "  --group G             conflicting-group size (default 10)\n"
               "  --flights F           flights per group (default 5)\n"
               "  --capacity C          seats per flight (default 2^20)\n"
               "  --ops K               reserve ops per agent (default 5)\n"
               "  --mode weak|strong    consistency mode (default weak)\n"
               "  --push-trigger EXPR   e.g. '(t > 1500)'\n"
               "  --pull-trigger EXPR\n"
               "  --validity EXPR       e.g. 'false' or '(_unseen == 0)'\n"
               "  --lan-latency-us L    host-to-host latency (default 200)\n"
               "  --csv FILE            write the summary table as CSV\n"
               "  --verbose             per-agent breakdown\n",
               argv0);
  std::exit(2);
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions opt;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0], "missing value for option");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--protocol") {
      const std::string v = need_value(i);
      if (v == "flecc") {
        opt.protocol = Protocol::kFlecc;
      } else if (v == "time-sharing") {
        opt.protocol = Protocol::kTimeSharing;
      } else if (v == "multicast") {
        opt.protocol = Protocol::kMulticast;
      } else {
        usage(argv[0], "unknown protocol");
      }
    } else if (arg == "--agents") {
      opt.agents = static_cast<std::size_t>(std::atoll(need_value(i)));
    } else if (arg == "--group") {
      opt.group = static_cast<std::size_t>(std::atoll(need_value(i)));
    } else if (arg == "--flights") {
      opt.flights_per_group =
          static_cast<std::size_t>(std::atoll(need_value(i)));
    } else if (arg == "--capacity") {
      opt.capacity = std::atoll(need_value(i));
    } else if (arg == "--ops") {
      opt.ops = std::atoi(need_value(i));
    } else if (arg == "--mode") {
      const std::string v = need_value(i);
      if (v == "weak") {
        opt.mode = core::Mode::kWeak;
      } else if (v == "strong") {
        opt.mode = core::Mode::kStrong;
      } else {
        usage(argv[0], "unknown mode");
      }
    } else if (arg == "--push-trigger") {
      opt.push_trigger = need_value(i);
    } else if (arg == "--pull-trigger") {
      opt.pull_trigger = need_value(i);
    } else if (arg == "--validity") {
      opt.validity_trigger = need_value(i);
    } else if (arg == "--lan-latency-us") {
      opt.lan_latency = sim::usec(std::atoll(need_value(i)));
    } else if (arg == "--csv") {
      opt.csv_path = need_value(i);
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      usage(argv[0], ("unknown option '" + arg + "'").c_str());
    }
  }
  if (opt.agents == 0 || opt.group == 0 || opt.ops < 0) {
    usage(argv[0], "agents/group must be > 0 and ops >= 0");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse_cli(argc, argv);

  TestbedOptions opts;
  opts.n_agents = cli.agents;
  opts.group_size = cli.group;
  opts.flights_per_group = cli.flights_per_group;
  opts.capacity = cli.capacity;
  opts.cm_cfg.mode = cli.mode;
  opts.cm_cfg.push_trigger = cli.push_trigger;
  opts.cm_cfg.pull_trigger = cli.pull_trigger;
  opts.cm_cfg.validity_trigger = cli.validity_trigger;
  opts.lan_latency = cli.lan_latency;

  CoherenceTestbed tb(cli.protocol, opts);
  std::printf("protocol=%s agents=%zu group=%zu ops=%d mode=%s\n",
              airline::to_string(cli.protocol), cli.agents, cli.group,
              cli.ops, core::to_string(cli.mode));

  tb.connect_all();
  for (int op = 0; op < cli.ops; ++op) {
    for (std::size_t i = 0; i < tb.agent_count(); ++i) {
      const auto flight = tb.assignment().agent_flights[i][0];
      tb.client(i).do_operation(
          [&tb, i, flight] { tb.view(i).confirm_tickets(flight, 1); }, {});
    }
    tb.run();
  }

  // Sample quality before teardown (Flecc only; view ids are assigned
  // sequentially from 1).
  sim::RunningStat quality;
  if (auto* dir = tb.flecc_directory(); dir != nullptr) {
    for (core::ViewId v = 1; v <= tb.agent_count(); ++v) {
      if (dir->known(v)) {
        quality.add(static_cast<double>(dir->quality(v)));
      }
    }
  }

  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    tb.client(i).disconnect({});
  }
  tb.run();

  std::int64_t confirmed = 0, refused = 0;
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    confirmed += tb.view(i).confirmed_total();
    refused += tb.view(i).refused_total();
  }

  sim::Table summary({"metric", "value"});
  summary.add_row({std::string("messages"), tb.fabric().sent_count()});
  summary.add_row({std::string("bytes"),
                   tb.fabric().counters().get("bytes.sent")});
  summary.add_row({std::string("sim_time_ms"),
                   sim::to_ms(tb.simulator().now())});
  summary.add_row({std::string("sim_events"),
                   static_cast<std::uint64_t>(
                       tb.simulator().executed_events())});
  summary.add_row({std::string("seats_confirmed"), confirmed});
  summary.add_row({std::string("seats_refused_locally"), refused});
  summary.add_row({std::string("seats_in_database"),
                   tb.database().total_reserved()});
  summary.add_row({std::string("seats_rejected_at_merge"),
                   tb.database().rejected_seats()});
  if (quality.count() > 0) {
    summary.add_row({std::string("quality_mean_unseen"), quality.mean()});
    summary.add_row({std::string("quality_max_unseen"), quality.max()});
  }
  std::printf("\n%s", summary.to_string().c_str());

  if (cli.verbose) {
    sim::Table per_agent({"agent", "confirmed", "refused", "pending"});
    for (std::size_t i = 0; i < tb.agent_count(); ++i) {
      per_agent.add_row({static_cast<std::uint64_t>(i),
                         tb.view(i).confirmed_total(),
                         tb.view(i).refused_total(),
                         tb.view(i).pending_total()});
    }
    std::printf("\n%s", per_agent.to_string().c_str());

    std::printf("\nmessage breakdown:\n");
    for (const auto& [name, count] : tb.fabric().counters().all()) {
      if (name.rfind("msg.sent.", 0) == 0) {
        std::printf("  %-32s %llu\n", name.c_str() + 9,
                    static_cast<unsigned long long>(count));
      }
    }
  }

  if (!cli.csv_path.empty()) {
    if (summary.write_csv(cli.csv_path)) {
      std::printf("\nsummary written to %s\n", cli.csv_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", cli.csv_path.c_str());
      return 1;
    }
  }
  return 0;
}

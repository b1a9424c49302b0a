// Protocol fingerprint: seeded airline scenarios whose whole protocol
// trace and final counters are hashed and compared with recorded
// constants. A refactor that claims "same behaviour" must leave both
// hashes unchanged: the same messages, merges, counters and trace
// events, in the same order.
//
// The scenarios cover WEAK views with a validity trigger, STRONG views,
// 5-8% message loss, a durable directory crashed and restarted mid-run,
// and one liveness eviction. Round timeouts are shorter than the work
// inside a use section, so deferred commands come back late and are
// resent. The constants are re-recorded only for an intended protocol
// change (OBSERVABILITY.md, "Protocol fingerprint").
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "airline/testbed.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"

namespace flecc::airline {
namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Hashes every trace event's JSONL line in emission order.
class HashingSink final : public obs::TraceSink {
 public:
  void on_event(const obs::TraceEvent& e) override {
    hash_ = fnv1a(hash_, obs::to_jsonl(e));
    hash_ = fnv1a(hash_, "\n");
  }
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffset;
};

enum class Scenario { kWeakValidity, kStrongInvalidation, kDirectoryCrash };

struct Fingerprint {
  std::uint64_t trace = 0;
  std::uint64_t counters = 0;
  /// Directory counters, summed over every directory incarnation.
  std::map<std::string, std::uint64_t> dm;
};

void add_counters(std::map<std::string, std::uint64_t>& into,
                  const std::string& prefix, const sim::CounterSet& from) {
  for (const auto& [name, value] : from.all()) into[prefix + name] += value;
}

Fingerprint run(Scenario s) {
  obs::TraceRecorder recorder;
  HashingSink sink;
  recorder.attach_sink(&sink);

  TestbedOptions opts;
  opts.trace = &recorder;
  opts.capacity = 1 << 20;
  opts.fabric_cfg.seed = 11;
  opts.heartbeat_interval = sim::msec(250);
  opts.heartbeat_miss_limit = 4;
  // Rounds time out before a target leaves its use section.
  opts.think_time = sim::msec(200);
  opts.dir_cfg.fetch_timeout = sim::msec(100);
  std::size_t ops = 12;
  switch (s) {
    case Scenario::kWeakValidity:
      opts.n_agents = 30;
      opts.group_size = 10;
      opts.validity_trigger = "false";  // every pull demand-fetches
      opts.fabric_cfg.loss_probability = 0.08;
      opts.dir_cfg.liveness_timeout = sim::seconds(1);
      break;
    case Scenario::kStrongInvalidation:
      opts.n_agents = 16;
      opts.group_size = 4;
      opts.mode = core::Mode::kStrong;
      opts.fabric_cfg.loss_probability = 0.05;
      break;
    case Scenario::kDirectoryCrash:
      opts.n_agents = 20;
      opts.group_size = 10;
      opts.validity_trigger = "false";
      opts.fabric_cfg.loss_probability = 0.05;
      opts.durable_directory = true;
      // A lagging checkpoint: the crash eats the WAL tail, so echoes of
      // the last rounds revive them.
      opts.checkpoint_flush_every = 32;
      ops = 8;
      break;
  }

  FleccTestbed tb(opts);
  tb.init_all_agents();
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    tb.agent(i).run_reservation_loop(ops, tb.assignment().agent_flights[i][0],
                                     1, /*pull_first=*/true);
  }

  Fingerprint fp;
  constexpr std::size_t kCrashedAgent = 3;
  if (s == Scenario::kWeakValidity) {
    // One agent dies silently; the directory evicts it.
    tb.run_until(tb.simulator().now() + sim::msec(800));
    tb.crash_agent(kCrashedAgent);
  } else if (s == Scenario::kDirectoryCrash) {
    tb.run_until(tb.simulator().now() + sim::msec(950));
    for (const auto& [name, value] : tb.directory().stats().all()) {
      fp.dm[name] += value;
    }
    tb.crash_directory();
    tb.run_until(tb.simulator().now() + sim::msec(300));
    tb.restart_directory();
  }
  tb.run_until(tb.simulator().now() + sim::seconds(20));
  tb.run();
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    if (!tb.crashed(i)) tb.agent(i).shutdown();
  }
  tb.run();

  for (const auto& [name, value] : tb.directory().stats().all()) {
    fp.dm[name] += value;
  }
  std::map<std::string, std::uint64_t> all;
  for (const auto& [name, value] : fp.dm) all["dm." + name] = value;
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    add_counters(all, "cm.", tb.agent(i).cache().stats());
  }
  add_counters(all, "net.", tb.fabric().counters());
  all["db.total_reserved"] =
      static_cast<std::uint64_t>(tb.database().total_reserved());
  all["sim.end_us"] = static_cast<std::uint64_t>(tb.simulator().now());

  fp.counters = kFnvOffset;
  for (const auto& [name, value] : all) {
    fp.counters = fnv1a(fp.counters, name + "=" + std::to_string(value) + "\n");
  }
  fp.trace = sink.hash();
  return fp;
}

/// The recorded fingerprints. Under FLECC_TRACE=OFF no events are
/// emitted, so only the counter hash is compared.
struct Expected {
  std::uint64_t trace;
  std::uint64_t counters;
};

void expect_fingerprint(Scenario s, Expected want) {
  const Fingerprint got = run(s);
  EXPECT_EQ(got.counters, want.counters)
      << "counter hash 0x" << std::hex << got.counters;
#if FLECC_TRACE_ENABLED
  EXPECT_EQ(got.trace, want.trace) << "trace hash 0x" << std::hex << got.trace;
#endif
}

TEST(ProtocolFingerprintTest, WeakValidityRounds) {
  expect_fingerprint(Scenario::kWeakValidity,
                     {0x8a89d798d44b1095ull, 0xa63d65d364dda622ull});
}

TEST(ProtocolFingerprintTest, StrongInvalidationRounds) {
  expect_fingerprint(Scenario::kStrongInvalidation,
                     {0x520e0160161be2a2ull, 0x891be76abbc5a555ull});
}

TEST(ProtocolFingerprintTest, DirectoryCrashAndRestart) {
  expect_fingerprint(Scenario::kDirectoryCrash,
                     {0x0468f82032560679ull, 0x28471185bd893250ull});
}

// The fingerprint only guards paths the scenarios reach: every round
// path of tests/core/round_paths_test.cpp must run somewhere here.
TEST(ProtocolFingerprintTest, ScenariosReachEveryRoundPath) {
  std::map<std::string, std::uint64_t> dm;
  for (const Scenario s :
       {Scenario::kWeakValidity, Scenario::kStrongInvalidation,
        Scenario::kDirectoryCrash}) {
    for (const auto& [name, value] : run(s).dm) dm[name] += value;
  }
  for (const char* counter :
       {"msg.duplicate.dropped", "op.fetch.retry", "op.invalidate.retry",
        "op.fetch.late.merged", "op.invalidate.late.merged", "echo.merged",
        "echo.duplicate", "echo.unknown", "echo.revived",
        "recovery.revived_round", "view.evicted.liveness"}) {
    EXPECT_GT(dm[counter], 0u) << counter;
  }
}

}  // namespace
}  // namespace flecc::airline

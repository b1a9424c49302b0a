// Protocol fingerprint: seeded airline scenarios whose whole protocol
// trace and final counters are hashed and compared with recorded
// constants. A refactor that claims "same behaviour" must leave both
// hashes unchanged: the same messages, merges, counters and trace
// events, in the same order.
//
// The scenarios cover WEAK views with a validity trigger, STRONG views,
// 5-8% message loss, a durable directory crashed and restarted mid-run,
// one liveness eviction, and journaled cache managers with a write
// buffer that are migrated, lose a migration destination, and crash and
// restart. Round timeouts are shorter than the work inside a use
// section, so deferred commands come back late and are resent. The
// constants are re-recorded only for an intended protocol change
// (OBSERVABILITY.md, "Protocol fingerprint").
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

enum class Scenario {
  kWeakValidity,
  kStrongInvalidation,
  kDirectoryCrash,
  kMigrationJournal
};

struct Fingerprint {
  std::uint64_t trace = 0;
  std::uint64_t counters = 0;
  /// Directory counters, summed over every directory incarnation.
  std::map<std::string, std::uint64_t> dm;
  /// Cache-manager counters, summed over the agents' current lives and
  /// the migration destinations.
  std::map<std::string, std::uint64_t> cm;
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
  opts.cm_cfg.heartbeat_interval = sim::msec(250);
  opts.cm_cfg.heartbeat_miss_limit = 4;
  // Rounds time out before a target leaves its use section.
  opts.think_time = sim::msec(200);
  opts.dir_cfg.fetch_timeout = sim::msec(100);
  std::size_t ops = 12;
  switch (s) {
    case Scenario::kWeakValidity:
      opts.n_agents = 30;
      opts.group_size = 10;
      opts.cm_cfg.validity_trigger = "false";  // every pull demand-fetches
      opts.fabric_cfg.loss_probability = 0.08;
      opts.dir_cfg.liveness_timeout = sim::seconds(1);
      break;
    case Scenario::kStrongInvalidation:
      opts.n_agents = 16;
      opts.group_size = 4;
      opts.cm_cfg.mode = core::Mode::kStrong;
      opts.fabric_cfg.loss_probability = 0.05;
      break;
    case Scenario::kDirectoryCrash:
      opts.n_agents = 20;
      opts.group_size = 10;
      opts.cm_cfg.validity_trigger = "false";
      opts.fabric_cfg.loss_probability = 0.05;
      opts.durable_directory = true;
      // A lagging checkpoint: the crash eats the WAL tail, so echoes of
      // the last rounds revive them.
      opts.checkpoint_flush_every = 32;
      ops = 8;
      break;
    case Scenario::kMigrationJournal:
      opts.n_agents = 16;
      opts.group_size = 8;
      opts.fabric_cfg.loss_probability = 0.05;
      // Pushes for the buffer to absorb.
      opts.cm_cfg.push_trigger = "(t > 400)";
      opts.cm_cfg.write_buffer_ops = 4;
      opts.cm_journal = true;
      opts.spare_hosts = 2;
      break;
  }

  FleccTestbed tb(opts);
  // kMigrationJournal: two early-quiescent agents migrate, a third
  // crashes mid-run and restarts from its journal.
  constexpr std::size_t kMovedAgents[] = {2, 9};
  constexpr std::size_t kRestartedAgent = 5;
  const auto is_moved = [&](std::size_t i) {
    return s == Scenario::kMigrationJournal &&
           (i == kMovedAgents[0] || i == kMovedAgents[1]);
  };

  tb.init_all_agents();
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    tb.agent(i).run_reservation_loop(is_moved(i) ? 3 : ops,
                                     tb.assignment().agent_flights[i][0], 1,
                                     /*pull_first=*/true);
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
  } else if (s == Scenario::kMigrationJournal) {
    tb.run_until(tb.simulator().now() + sim::msec(600));
    tb.crash_agent(kRestartedAgent);
    tb.run_until(tb.simulator().now() + sim::msec(300));
    tb.restart_agent(kRestartedAgent);
    tb.run_until(tb.simulator().now() + sim::msec(1600));
    // A warm move, and a move whose destination dies before its install
    // arrives: that migration aborts and the source resumes.
    for (std::size_t k = 0; k < 2; ++k) {
      tb.spawn_destination(kMovedAgents[k], k);
      EXPECT_TRUE(tb.migrate_agent(kMovedAgents[k], k));
    }
    tb.crash_spare(1);
  }
  tb.run_until(tb.simulator().now() + sim::seconds(20));
  tb.run();
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    if (!tb.crashed(i)) tb.agent(i).shutdown();
  }
  if (tb.has_spare(0)) tb.spare(0).shutdown();
  tb.run();

  for (const auto& [name, value] : tb.directory().stats().all()) {
    fp.dm[name] += value;
  }
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    add_counters(fp.cm, "", tb.agent(i).cache().stats());
  }
  for (std::size_t k = 0; tb.has_spare(k); ++k) {
    add_counters(fp.cm, "", tb.spare(k).cache().stats());
  }
  std::map<std::string, std::uint64_t> all;
  for (const auto& [name, value] : fp.dm) all["dm." + name] = value;
  for (const auto& [name, value] : fp.cm) all["cm." + name] = value;
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

/// The recorded fingerprints.
struct Expected {
  std::uint64_t trace;
  std::uint64_t counters;
};

void expect_fingerprint(Scenario s, Expected want) {
  const Fingerprint got = run(s);
  EXPECT_EQ(got.counters, want.counters)
      << "counter hash 0x" << std::hex << got.counters;
  EXPECT_EQ(got.trace, want.trace) << "trace hash 0x" << std::hex << got.trace;
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

TEST(ProtocolFingerprintTest, MigrationJournalAndWriteBuffer) {
  expect_fingerprint(Scenario::kMigrationJournal,
                     {0xe10f5c0ea7a41fa3ull, 0x54a8a8e6c099ab67ull});
}

// The fingerprint only guards paths the scenarios reach: every round
// path of tests/core/round_paths_test.cpp must run somewhere here, so
// must the directory's migration, registration and rebuild paths, and
// so must the cache manager's command deferral and replay, and its
// retransmission, migration, journal and write-buffer paths.
TEST(ProtocolFingerprintTest, ScenariosReachEveryRoundPath) {
  std::map<std::string, std::uint64_t> dm;
  std::map<std::string, std::uint64_t> cm;
  for (const Scenario s :
       {Scenario::kWeakValidity, Scenario::kStrongInvalidation,
        Scenario::kDirectoryCrash, Scenario::kMigrationJournal}) {
    const Fingerprint fp = run(s);
    for (const auto& [name, value] : fp.dm) dm[name] += value;
    for (const auto& [name, value] : fp.cm) cm[name] += value;
  }
  for (const char* counter :
       {"msg.duplicate.dropped", "op.fetch.retry", "op.invalidate.retry",
        "op.fetch.late.merged", "op.invalidate.late.merged", "echo.merged",
        "echo.duplicate", "echo.unknown", "echo.revived",
        "recovery.revived_round", "view.evicted.liveness",
        // The lifecycle paths (tests/core/view_lifecycle_test).
        "migrate.done", "migrate.aborted", "migrate.resend",
        "migrate.install.sent", "op.register.superseded",
        "recovery.probe.sent", "recovery.reannounced", "view.resumed"}) {
    EXPECT_GT(dm[counter], 0u) << "dm." << counter;
  }
  for (const char* counter :
       {"fetch.deferred", "invalidate.deferred", "msg.duplicate.replayed",
        "register.retry", "op.retry", "migrate.sealed", "migrate.moved",
        "migrate.resumed", "migrate.installed", "journal.replay",
        "wbuf.absorbed"}) {
    EXPECT_GT(cm[counter], 0u) << "cm." << counter;
  }
}

}  // namespace
}  // namespace flecc::airline

// Chaos soak — the reliability layer under compound failure.
//
// 100 weak-mode travel agents run the airline workload while the
// harness injects, in one run:
//   * 10% uniform message loss (seeded, deterministic),
//   * two silent view crashes (CacheManager::halt(): no teardown),
//   * one network partition/heal cycle cutting a block of agents off
//     from the directory mid-workload,
// with liveness heartbeats and directory-side eviction enabled.
//
// Convergence asserts (the run aborts if any fails):
//   * every surviving agent completes ALL its operations,
//   * no surviving cache manager is wedged (empty queue, nothing in
//     flight),
//   * the database equals the surviving agents' confirmed seats plus
//     whatever the crashed agents managed to surrender before dying
//     (bounded below by the former, above by the sum),
//   * two runs with the same seed produce bit-identical output.
//
// Emits the aggregated reliability counters as chaos_soak.csv. With
// `--trace out.jsonl` the first run also records an obs protocol trace
// (readable with tools/flecc_trace); the recorder is attached to the
// first run only so the two-run determinism check stays meaningful.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "airline/testbed.hpp"
#include "core/flow_control.hpp"
#include "net/telemetry_server.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor/invariant_monitor.hpp"
#include "obs/prom.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_io.hpp"

using namespace flecc;
using airline::FleccTestbed;
using airline::TestbedOptions;

namespace {

constexpr std::size_t kAgents = 100;
constexpr std::size_t kOpsPerAgent = 10;
constexpr std::size_t kCrashed[] = {7, 42};
constexpr std::size_t kPartitionLo = 20, kPartitionHi = 29;

bool is_crashed(std::size_t i) {
  return i == kCrashed[0] || i == kCrashed[1];
}

/// Generated artifacts (CSV, Prometheus export, traces named by the
/// caller) land in the git-ignored out/ directory.
std::string out_path(const char* name) {
  std::error_code ec;
  std::filesystem::create_directories("out", ec);
  return std::string("out/") + name;
}

#define SOAK_CHECK(cond, ...)                                   \
  do {                                                          \
    if (!(cond)) {                                              \
      std::fprintf(stderr, "CHAOS SOAK FAILED: " __VA_ARGS__);  \
      std::fprintf(stderr, "\n  at %s:%d: %s\n", __FILE__,      \
                   __LINE__, #cond);                            \
      std::exit(1);                                             \
    }                                                           \
  } while (0)

/// Every mode runs its scenarios with this seed.
constexpr std::uint64_t kSeed = 0xc0a5;

using Counters = std::map<std::string, std::uint64_t>;

/// Agent `i`'s cache manager is not wedged: nothing queued, nothing in
/// flight.
void check_idle(FleccTestbed& tb, std::size_t i) {
  SOAK_CHECK(tb.agent(i).cache().queued_ops() == 0,
             "agent %zu has %zu wedged queued ops", i,
             tb.agent(i).cache().queued_ops());
  SOAK_CHECK(!tb.agent(i).cache().op_in_flight(),
             "agent %zu has a wedged in-flight op", i);
}

/// Every component's counters, summed by name: the directory's under
/// "dm.", those of every agent and of the first `spares` spare hosts
/// under "cm.", and the fabric counters `net_keys` names under "net."
/// (one the fabric never counted reads 0).
Counters aggregate(FleccTestbed& tb,
                   std::initializer_list<const char*> net_keys,
                   std::size_t spares = 0) {
  Counters agg;
  for (const auto& [k, v] : tb.directory().stats().all()) agg["dm." + k] += v;
  const auto add_cm = [&agg](airline::TravelAgent& a) {
    for (const auto& [k, v] : a.cache().stats().all()) agg["cm." + k] += v;
  };
  for (std::size_t i = 0; i < tb.agent_count(); ++i) add_cm(tb.agent(i));
  for (std::size_t k = 0; k < spares; ++k) {
    if (tb.has_spare(k)) add_cm(tb.spare(k));
  }
  for (const char* key : net_keys) {
    agg[std::string("net.") + key] = tb.fabric().counters().get(key);
  }
  return agg;
}

/// A scenario's printable result: every counter, then its summary rows
/// and its simulated end time.
std::string render(
    FleccTestbed& tb, const Counters& agg,
    std::initializer_list<std::pair<const char*, std::int64_t>> summary) {
  std::string out = "counter,value\n";
  for (const auto& [k, v] : agg) out += k + "," + std::to_string(v) + "\n";
  for (const auto& [k, v] : summary) {
    out += std::string("summary.") + k + "," + std::to_string(v) + "\n";
  }
  out += "summary.sim_end_us," + std::to_string(tb.simulator().now()) + "\n";
  return out;
}

/// One full soak; returns the printable result (counters + summary) so
/// the driver can compare two same-seed runs bit for bit. With
/// `crash_dm` the directory itself is crashed and restarted mid-run
/// from its checkpoint (`empty_checkpoint` drops the WAL first, leaving
/// only the generation superblock — the pure CM-assisted rebuild).
std::string run_soak(std::uint64_t seed, obs::TraceRecorder* trace,
                     bool crash_dm, bool empty_checkpoint, bool batch,
                     std::size_t wbuf, obs::TelemetryHub* hub) {
  TestbedOptions opts;
  opts.trace = trace;
  // Telemetry rides the FIRST run only (like the trace recorder), so
  // the two-run comparison below also proves the live pipeline never
  // perturbs the protocol.
  opts.telemetry = hub;
  // Raw-speed layer (PERFORMANCE.md): batching implies heartbeat
  // piggybacking — suppressed beacons only make sense when regular
  // traffic is being coalesced toward the directory anyway.
  opts.batch_fabric = batch;
  opts.cm_cfg.piggyback_heartbeats = batch;
  opts.cm_cfg.write_buffer_ops = wbuf;
  // The reservation loop is pull-driven (deltas reach the database via
  // demand-fetch chasing), so exercising the write buffer needs
  // trigger-fired pushes: idle dirty agents absorb `wbuf` of them
  // locally, then surrender the accumulated delta in one capacity
  // flush. Kill-time extraction flushes whatever remains, so the
  // database audit below is unaffected.
  if (wbuf > 0) opts.cm_cfg.push_trigger = "(t > 400)";
  opts.n_agents = kAgents;
  opts.group_size = 10;
  opts.flights_per_group = 5;
  opts.capacity = 1 << 20;
  opts.cm_cfg.mode = core::Mode::kWeak;
  // Demand-fetch rounds chase conflicting dirty views, so crashed
  // agents' deltas can reach the database before they die.
  opts.cm_cfg.validity_trigger = "(_age < 500)";
  // Stretch each loop across the chaos window (10 ops x 300 ms think
  // time ~ 3 s of simulated work before loss/partition stalls).
  opts.think_time = sim::msec(300);
  opts.fabric_cfg.loss_probability = 0.10;
  opts.fabric_cfg.seed = seed;
  opts.cm_cfg.heartbeat_interval = sim::msec(500);
  opts.cm_cfg.heartbeat_miss_limit = 3;
  opts.dir_cfg.liveness_timeout = sim::seconds(2);
  if (crash_dm) {
    opts.durable_directory = true;
    // A warm-but-lagging checkpoint: the crash eats up to 3 buffered
    // WAL appends, so the rebuild round must recover the tail from the
    // cache managers themselves.
    opts.checkpoint_flush_every = 4;
  }
  FleccTestbed tb(opts);
  tb.init_all_agents();

  std::size_t loops_completed = 0;
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    const auto flight = tb.assignment().agent_flights[i][0];
    tb.agent(i).run_reservation_loop(kOpsPerAgent, flight, 1,
                                     /*pull_first=*/true,
                                     [&] { ++loops_completed; });
  }

  // t+1.5s: two agents die silently, mid-loop.
  tb.run_until(tb.simulator().now() + sim::msec(1500));
  for (const std::size_t i : kCrashed) tb.crash_agent(i);

  // t+3s: a block of agents is partitioned away from the directory...
  tb.run_until(tb.simulator().now() + sim::msec(1500));
  std::vector<std::size_t> cut;
  for (std::size_t i = kPartitionLo; i <= kPartitionHi; ++i) cut.push_back(i);
  tb.partition_agents(cut);

  // ...long enough for the directory to evict them, then heals.
  tb.run_until(tb.simulator().now() + sim::seconds(4));
  tb.heal_partition();

  if (crash_dm) {
    // t+~8s: the directory itself dies with rounds in flight. In-flight
    // replies to it vanish; agents retry into the void and start
    // missing heartbeats.
    tb.run_until(tb.simulator().now() + sim::seconds(1));
    tb.crash_directory();
    tb.run_until(tb.simulator().now() + sim::seconds(1));
    if (empty_checkpoint) tb.durability()->drop_all();
    tb.restart_directory();
  }

  // Generous recovery horizon (daemon-paced register retries need
  // run_until), then run the remaining work to quiescence.
  tb.run_until(tb.simulator().now() + sim::seconds(30));
  tb.run();

  // ---- convergence asserts ---------------------------------------------
  std::int64_t survivors_confirmed = 0, crashed_confirmed = 0;
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    if (is_crashed(i)) {
      crashed_confirmed += tb.agent(i).view().confirmed_total();
      continue;
    }
    survivors_confirmed += tb.agent(i).view().confirmed_total();
    SOAK_CHECK(tb.agent(i).ops_completed() == kOpsPerAgent,
               "agent %zu completed %zu/%zu ops", i,
               tb.agent(i).ops_completed(), kOpsPerAgent);
    check_idle(tb, i);
  }
  SOAK_CHECK(loops_completed == kAgents - 2,
             "%zu/%zu survivor loops completed", loops_completed,
             kAgents - 2);

  // Surrender survivors' remaining deltas so the database is auditable.
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    if (!tb.crashed(i)) tb.agent(i).shutdown();
  }
  tb.run();

  const std::int64_t db_total = tb.database().total_reserved();
  SOAK_CHECK(db_total >= survivors_confirmed,
             "database lost survivor updates: %lld < %lld",
             static_cast<long long>(db_total),
             static_cast<long long>(survivors_confirmed));
  if (!empty_checkpoint) {
    SOAK_CHECK(db_total <= survivors_confirmed + crashed_confirmed,
               "database over-merged: %lld > %lld + %lld",
               static_cast<long long>(db_total),
               static_cast<long long>(survivors_confirmed),
               static_cast<long long>(crashed_confirmed));
  }
  // With the WAL wiped (empty_checkpoint) the directory loses its
  // exactly-once markers, so unacked pre-crash merges legitimately
  // re-apply when cache managers re-deliver them: delivery degrades to
  // at-least-once. Updates still can't be LOST (the lower bound above
  // holds unconditionally) and the coherence invariants stay green —
  // the monitor grants each pre-crash extraction one re-merge per
  // recovery epoch for exactly this case.

  // ---- aggregate counters ----------------------------------------------
  Counters agg = aggregate(
      tb, {"msg.dropped.loss", "msg.dropped.partition", "msg.dropped.unbound",
           "msg.sent", "batch.frames", "batch.subs", "batch.coalesced",
           "batch.flush.window", "batch.flush.capacity", "batch.flush.single",
           "batch.sub.unbound"});
  if (batch) {
    SOAK_CHECK(agg["net.batch.frames"] >= 1,
               "batching enabled but no train ever coalesced");
  }
  if (wbuf > 0) {
    SOAK_CHECK(agg["cm.wbuf.absorbed"] >= 1,
               "write buffer enabled but no push was ever absorbed");
  }

  SOAK_CHECK(agg["cm.op.retry"] >= 1, "loss injected but nothing retried");
  SOAK_CHECK(agg["net.msg.dropped.partition"] >= 1,
             "the partition dropped no traffic");
  if (crash_dm) {
    // The restarted incarnation's counters replace the pre-crash ones
    // (they died with the old DirectoryManager), so liveness-eviction
    // counts are not assertable here; recovery completion is.
    SOAK_CHECK(agg["dm.recovery.restart"] >= 1,
               "the directory never restarted from its checkpoint");
    SOAK_CHECK(agg["dm.recovery.completed"] >= 1,
               "directory recovery never completed");
  } else {
    SOAK_CHECK(agg["dm.view.evicted.liveness"] >= 2,
               "crashed views were never evicted");
  }

  return render(tb, agg,
                {{"survivors_confirmed", survivors_confirmed},
                 {"crashed_confirmed", crashed_confirmed},
                 {"db_total", db_total}});
}

// ---- overload storm (--overload) -------------------------------------------

constexpr std::size_t kStormAgents = 40;
constexpr std::size_t kStormOps = 8;
/// Per-destination bulk-queue bound for the flow-controlled run. The
/// synchronized storm start alone puts ~kStormAgents bulk requests in
/// flight toward the directory, so the unbounded baseline must exceed
/// this while the bounded run stays at or under it.
constexpr std::size_t kStormQueueBound = 12;

struct OverloadResult {
  std::uint64_t queue_peak = 0;
  std::uint64_t fabric_shed = 0;
  std::uint64_t dm_shed = 0;
  std::uint64_t breaker_opened = 0;
  std::uint64_t degraded = 0;
};

/// One overload storm: every agent conflicts on the same tiny hot
/// flight set (the Zipf head), all start at once with zero think time,
/// and the directory is the slow node (every message to it pays extra
/// queuing delay). With `flow_on` the full ladder is armed — bounded
/// fabric queues, DM admission control, CM breaker + WEAK degradation;
/// without it only the lane classifier is installed so the baseline
/// still reports the same peak-depth metric it is compared on. With
/// `crash_dm` the slow directory additionally dies mid-storm and
/// restarts from its checkpoint — overload plus crash recovery in one
/// run.
std::string run_overload(std::uint64_t seed, obs::TraceRecorder* trace,
                         bool flow_on, OverloadResult& result, bool crash_dm,
                         obs::TelemetryHub* hub = nullptr) {
  TestbedOptions opts;
  opts.trace = trace;
  opts.telemetry = hub;
  opts.n_agents = kStormAgents;
  opts.group_size = kStormAgents;  // one conflict group: everyone collides
  opts.flights_per_group = 2;      // tiny hot-object set
  opts.capacity = 1 << 20;
  opts.cm_cfg.mode = core::Mode::kStrong;  // acquire/invalidate amplification
  opts.think_time = 0;  // no pacing: the burst IS the storm
  opts.fabric_cfg.seed = seed;
  opts.cm_cfg.heartbeat_interval = sim::msec(500);
  opts.cm_cfg.heartbeat_miss_limit = 5;
  if (crash_dm) {
    // Fully-flushed WAL: every exactly-once merge marker is durable, so
    // the strict db == confirmed equality below must survive the crash
    // (the lagging-checkpoint / at-least-once regime is covered by the
    // main soak's --crash-dm variants).
    opts.durable_directory = true;
    opts.checkpoint_flush_every = 1;
  }

  net::FlowControl bounds;
  bounds.queue_capacity = flow_on ? kStormQueueBound : 0;
  bounds.retry_after = sim::msec(50);
  opts.fabric_cfg.flow = core::flow::make_fabric_flow(bounds);
  if (flow_on) {
    opts.dir_cfg.max_acquire_queue = 8;
    opts.dir_cfg.max_fetch_rounds = 8;
    opts.dir_cfg.busy_retry_after = sim::msec(50);
    opts.cm_cfg.breaker_threshold = 3;
    opts.cm_cfg.breaker_open_timeout = sim::msec(200);
    opts.cm_cfg.degrade_on_overload = true;
    opts.cm_cfg.write_buffer_ops = 4;  // degraded WEAK pushes absorb locally
  }

  FleccTestbed tb(opts);
  // The slow component: every message toward the directory pays extra
  // queuing delay, so the synchronized burst piles up in front of it.
  tb.fabric().set_endpoint_delay(tb.directory().address(), sim::msec(5));
  tb.init_all_agents();

  std::size_t loops_completed = 0;
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    const auto flight = tb.assignment().agent_flights[i][0];
    tb.agent(i).run_reservation_loop(kStormOps, flight, 1,
                                     /*pull_first=*/false,
                                     [&] { ++loops_completed; });
  }
  if (crash_dm) {
    // The overloaded slow node dies at the height of the pile-up, takes
    // its queue down with it, and restarts from the lagging checkpoint
    // while every agent is still retrying into the void.
    tb.run_until(tb.simulator().now() + sim::msec(400));
    tb.crash_directory();
    tb.run_until(tb.simulator().now() + sim::msec(500));
    tb.restart_directory();
  }
  tb.run();

  // ---- convergence asserts ---------------------------------------------
  SOAK_CHECK(loops_completed == kStormAgents,
             "%zu/%zu storm loops completed", loops_completed, kStormAgents);
  std::int64_t confirmed = 0;
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    confirmed += tb.agent(i).view().confirmed_total();
    SOAK_CHECK(tb.agent(i).ops_completed() == kStormOps,
               "agent %zu completed %zu/%zu ops", i,
               tb.agent(i).ops_completed(), kStormOps);
    check_idle(tb, i);
    // Degradation is transient: once the storm drains the breaker
    // closes and the manager climbs back to STRONG.
    SOAK_CHECK(!tb.agent(i).cache().degraded(),
               "agent %zu is still degraded after the storm", i);
    SOAK_CHECK(tb.agent(i).cache().mode() == core::Mode::kStrong,
               "agent %zu never restored STRONG mode", i);
  }

  for (std::size_t i = 0; i < tb.agent_count(); ++i) tb.agent(i).shutdown();
  tb.run();

  const std::int64_t db_total = tb.database().total_reserved();
  SOAK_CHECK(db_total == confirmed,
             "database diverged from confirmations: %lld != %lld",
             static_cast<long long>(db_total),
             static_cast<long long>(confirmed));

  // ---- aggregate counters ----------------------------------------------
  Counters agg = aggregate(tb, {"msg.sent"});
  for (const auto& [k, v] : tb.fabric().counters().all()) {
    if (k.rfind("flow.", 0) == 0) agg["net." + k] += v;
  }
  if (crash_dm) {
    SOAK_CHECK(agg["dm.recovery.restart"] >= 1,
               "the directory never restarted from its checkpoint");
    SOAK_CHECK(agg["dm.recovery.completed"] >= 1,
               "directory recovery never completed under overload");
  }

  // find(), not operator[]: inserting zero rows here would change the
  // printed counters.
  const auto get = [&agg](const char* k) -> std::uint64_t {
    const auto it = agg.find(k);
    return it == agg.end() ? 0 : it->second;
  };
  result.queue_peak = get("net.flow.queue.peak");
  result.fabric_shed = get("net.flow.shed");
  result.dm_shed = get("dm.shed.acquire") + get("dm.shed.pull");
  result.breaker_opened = get("cm.breaker.open");
  result.degraded = get("cm.breaker.degrade");

  return render(tb, agg, {{"db_total", db_total}});
}

// ---- live migration soak (--migrate) ---------------------------------------

constexpr std::size_t kMigAgents = 24;
constexpr std::size_t kMigOps = 12;        // bystanders: still working
constexpr std::size_t kMigVictimOps = 4;   // victims: quiescent early
constexpr std::size_t kMigVictims[] = {3, 11};
constexpr std::size_t kMigSpares = 2;

bool is_mig_victim(std::size_t i) {
  return i == kMigVictims[0] || i == kMigVictims[1];
}

/// Who the chaos hook kills when the migration FSM reaches the armed
/// phase (kTargetNone = warm run, no sabotage).
enum MigrateCrashTarget { kTargetNone = 0, kTargetSource, kTargetDest };

struct MigrateVariant {
  const char* name;
  MigrateCrashTarget target;
  int phase;  ///< core::DirectoryManager::MigratePhase to strike at
};

/// Shared state for the on_migrate_phase chaos hook. Declared before
/// the testbed so the callback outlives every component that fires it.
struct MigrateChaos {
  FleccTestbed* tb = nullptr;
  MigrateCrashTarget target = kTargetNone;
  int phase = -1;
  /// view id -> agent index / spare slot of the two armed migrations.
  std::map<std::uint64_t, std::size_t> victim_of_view;
  std::map<std::uint64_t, std::size_t> spare_of_view;
  /// Views already sabotaged: the retry migration runs unharmed.
  std::set<std::uint64_t> struck_views;
  /// Spare slots currently holding a crashed destination.
  std::set<std::size_t> crashed_spares;
  std::size_t crashes = 0;
};

/// One live-migration soak: 24 journaled weak-mode agents work under
/// 5% loss while two early-quiescent victims are migrated onto spare
/// hosts. Per variant the chaos hook kills the source or destination
/// cache manager at a chosen FSM phase; crashed sources restart from
/// their write-ahead journals, aborted moves are retried onto a fresh
/// destination. The database must end EXACTLY equal to every life's
/// confirmed sales — zero lost updates, zero double merges.
std::string run_migrate(std::uint64_t seed, obs::TraceRecorder* trace,
                        const MigrateVariant& variant,
                        obs::TelemetryHub* hub) {
  MigrateChaos chaos;
  chaos.target = variant.target;
  chaos.phase = variant.phase;

  TestbedOptions opts;
  opts.trace = trace;
  opts.telemetry = hub;
  opts.n_agents = kMigAgents;
  opts.group_size = 8;
  opts.flights_per_group = 4;
  opts.capacity = 1 << 20;
  opts.cm_cfg.mode = core::Mode::kWeak;
  // Demand-fetch chasing keeps deltas flowing toward the database while
  // the write buffer makes sure some WEAK updates are still buffered
  // CM-side whenever a crash or a handoff strikes.
  opts.cm_cfg.validity_trigger = "(_age < 500)";
  opts.cm_cfg.write_buffer_ops = 4;
  opts.cm_cfg.push_trigger = "(t > 400)";
  opts.think_time = sim::msec(300);
  opts.fabric_cfg.loss_probability = 0.05;
  opts.fabric_cfg.seed = seed;
  opts.cm_cfg.heartbeat_interval = sim::msec(500);
  opts.cm_cfg.heartbeat_miss_limit = 3;
  opts.dir_cfg.liveness_timeout = sim::seconds(2);
  opts.cm_journal = true;
  opts.cm_journal_flush_every = 1;
  opts.spare_hosts = kMigSpares;
  // The chaos hook fires synchronously inside directory processing at
  // every FSM transition — deterministic under the simulated fabric.
  opts.dir_cfg.on_migrate_phase = [&chaos](core::ViewId v, int phase) {
    if (chaos.tb == nullptr || chaos.target == kTargetNone) return;
    if (phase != chaos.phase) return;
    if (chaos.struck_views.count(v) != 0) return;
    const auto vit = chaos.victim_of_view.find(v);
    if (vit == chaos.victim_of_view.end()) return;
    chaos.struck_views.insert(v);
    ++chaos.crashes;
    if (chaos.target == kTargetSource) {
      chaos.tb->crash_agent(vit->second);
    } else {
      const std::size_t slot = chaos.spare_of_view.at(v);
      chaos.tb->crash_spare(slot);
      chaos.crashed_spares.insert(slot);
    }
  };

  FleccTestbed tb(opts);
  chaos.tb = &tb;
  tb.init_all_agents();

  std::size_t loops_completed = 0;
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    const auto flight = tb.assignment().agent_flights[i][0];
    const std::size_t ops = is_mig_victim(i) ? kMigVictimOps : kMigOps;
    tb.agent(i).run_reservation_loop(ops, flight, 1, /*pull_first=*/true,
                                     [&] { ++loops_completed; });
  }

  // The victims' short loops drain first; migrate their (quiescent)
  // views live while the bystanders are still mid-workload.
  tb.run_until(tb.simulator().now() + sim::msec(2500));
  for (std::size_t k = 0; k < kMigSpares; ++k) {
    const std::size_t v = kMigVictims[k];
    SOAK_CHECK(tb.agent(v).ops_completed() == kMigVictimOps,
               "victim %zu not quiescent before migration (%zu/%zu ops)", v,
               tb.agent(v).ops_completed(), kMigVictimOps);
    tb.spawn_destination(v, k);
    const std::uint64_t view = tb.agent(v).cache().id();
    chaos.victim_of_view[view] = v;
    chaos.spare_of_view[view] = k;
    SOAK_CHECK(tb.migrate_agent(v, k),
               "directory rejected migration of view %llu",
               static_cast<unsigned long long>(view));
  }

  // Let the moves — and, in the crash variants, their per-phase
  // timeouts — fully resolve while the bystander workload continues.
  tb.run_until(tb.simulator().now() + sim::seconds(8));
  if (variant.target != kTargetNone) {
    SOAK_CHECK(chaos.crashes >= 1,
               "variant '%s' armed but the chaos hook never fired",
               variant.name);
  }

  // Repairs. Crashed sources restart on the same address and journal:
  // the new life replays buffered writes and strong intents, resumes
  // its view (or is fenced onto a fresh registration when the view
  // already moved) and re-delivers every update exactly once. Aborted
  // moves get a fresh destination and a second, unharmed attempt.
  if (variant.target == kTargetSource) {
    for (const std::size_t v : kMigVictims) {
      if (tb.crashed(v)) tb.restart_agent(v);
    }
  } else if (variant.target == kTargetDest) {
    for (std::size_t k = 0; k < kMigSpares; ++k) {
      const std::size_t v = kMigVictims[k];
      if (!tb.agent(v).cache().moved()) {
        tb.spawn_destination(v, k);
        chaos.crashed_spares.erase(k);
        SOAK_CHECK(tb.migrate_agent(v, k),
                   "directory rejected the retry migration of agent %zu", v);
      }
      // moved() && crashed spare: the handoff completed and THEN the
      // destination died — liveness eviction reclaims the view; its
      // delta already merged at handoff, so nothing is lost.
    }
  }

  tb.run_until(tb.simulator().now() + sim::seconds(20));
  tb.run();

  // ---- convergence asserts ---------------------------------------------
  SOAK_CHECK(loops_completed == kMigAgents, "%zu/%zu loops completed",
             loops_completed, kMigAgents);
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    SOAK_CHECK(!tb.crashed(i), "agent %zu left crashed", i);
    check_idle(tb, i);
  }

  // Surrender the remaining deltas so the database is auditable. Moved
  // managers are inert (their view lives at the destination now);
  // killing the destination instead surrenders the migrated copy.
  std::int64_t live_confirmed = 0;
  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    live_confirmed += tb.agent(i).view().confirmed_total();
    if (!tb.agent(i).cache().moved()) tb.agent(i).shutdown();
  }
  for (std::size_t k = 0; k < kMigSpares; ++k) {
    const std::size_t v = kMigVictims[k];
    if (tb.has_spare(k) && chaos.crashed_spares.count(k) == 0 &&
        tb.agent(v).cache().moved()) {
      live_confirmed += tb.spare(k).view().confirmed_total();
      tb.spare(k).shutdown();
    }
  }
  tb.run();

  // Zero lost updates, zero double merges: the database equals every
  // life's confirmed sales EXACTLY — across crashes, journal replays,
  // handoffs, aborted moves and re-pushed deltas.
  const std::int64_t db_total = tb.database().total_reserved();
  const std::int64_t expected = live_confirmed + tb.retired_confirmed();
  SOAK_CHECK(db_total == expected,
             "lost-update accounting failed: database %lld != confirmed %lld"
             " (live %lld + retired %lld)",
             static_cast<long long>(db_total),
             static_cast<long long>(expected),
             static_cast<long long>(live_confirmed),
             static_cast<long long>(tb.retired_confirmed()));
  SOAK_CHECK(db_total > 0, "the workload confirmed nothing");

  // ---- aggregate counters ----------------------------------------------
  Counters agg = aggregate(
      tb, {"msg.dropped.loss", "msg.dropped.unbound", "msg.sent"}, kMigSpares);

  SOAK_CHECK(agg["cm.wbuf.absorbed"] >= 1,
             "write buffer enabled but no push was ever absorbed");
  switch (variant.target) {
    case kTargetNone:
      SOAK_CHECK(agg["dm.migrate.done"] >= kMigSpares,
                 "warm variant: not every migration completed");
      break;
    case kTargetSource:
      SOAK_CHECK(agg["cm.journal.replay"] >= 1,
                 "a source crashed but no journal was ever replayed");
      if (variant.phase == core::DirectoryManager::kMigrateQuiesce) {
        SOAK_CHECK(agg["dm.migrate.aborted"] >= 1,
                   "source died at quiesce but nothing aborted");
      } else {
        // The handoff had already merged: the move completes without
        // the source, whose restarted life is fenced onto a fresh
        // registration instead of stealing the view back.
        SOAK_CHECK(agg["dm.migrate.done"] >= kMigSpares,
                   "post-handoff source crash should not stop the move");
        SOAK_CHECK(agg["dm.register.fenced.moved"] >= 1,
                   "restarted source was never fenced off its moved view");
      }
      break;
    case kTargetDest:
      if (variant.phase == core::DirectoryManager::kMigrateDone) {
        SOAK_CHECK(agg["dm.migrate.done"] >= kMigSpares,
                   "dest died after done: the move itself should complete");
        SOAK_CHECK(agg["dm.view.evicted.liveness"] >= 1,
                   "dead destination was never evicted");
      } else {
        SOAK_CHECK(agg["dm.migrate.aborted"] >= 1,
                   "dest died mid-move but nothing aborted");
        SOAK_CHECK(agg["dm.migrate.done"] >= kMigSpares,
                   "the retry migration never completed");
      }
      break;
  }

  return render(tb, agg,
                {{"live_confirmed", live_confirmed},
                 {"retired_confirmed", tb.retired_confirmed()},
                 {"db_total", db_total}});
}

/// The first run's observers, from the command line.
struct Observers {
  const char* trace_path = nullptr;  ///< --trace
  bool monitor = false;              ///< --monitor
  obs::TelemetryHub* hub = nullptr;  ///< --serve, --telemetry-interval, --pace
};

/// What a twin leaves of its monitor's verdict besides the checks.
enum class Export {
  kNone,    ///< nothing
  kProm,    ///< the monitor's metrics, added to the caller's registry
  kReport,  ///< those and the health report
};

/// One scenario: runs with the given trace recorder and telemetry hub
/// (either may be null) and returns its printable result.
using Scenario =
    std::function<std::string(obs::TraceRecorder*, obs::TelemetryHub*)>;

/// Runs `scenario` twice with one seed and returns the first result,
/// which must equal the second bit for bit. The observers ride the
/// first run only, so the comparison also proves that tracing, the
/// online monitor and telemetry never perturb the protocol. With the
/// monitor, the verdict: no invariant violation, and every recovery and
/// migration epoch resolved. `recorder` keeps the first run's trace for
/// the caller to write; `metrics` collects what `exp` exports, for
/// write_prom().
std::string twin(const std::string& name, const Scenario& scenario,
                 const Observers& o, Export exp, obs::TraceRecorder& recorder,
                 obs::MetricsRegistry& metrics) {
  obs::monitor::InvariantMonitor checker;
  if (o.monitor) recorder.attach_sink(&checker);
  const bool tracing = o.trace_path != nullptr || o.monitor;
  const std::string first = scenario(tracing ? &recorder : nullptr, o.hub);
  recorder.attach_sink(nullptr);
  SOAK_CHECK(first == scenario(nullptr, nullptr),
             "%s: two same-seed runs diverged", name.c_str());
  if (!o.monitor) return first;
  checker.finalize();
  if (exp == Export::kReport) {
    std::fputs(checker.health_report().c_str(), stdout);
  }
  if (exp != Export::kNone) checker.export_metrics(metrics);
  SOAK_CHECK(checker.violations().empty(), "%s: %zu invariant violation(s)",
             name.c_str(), checker.violations().size());
  SOAK_CHECK(checker.unresolved_recovery_epochs() == 0,
             "%s: a recovery epoch never resolved", name.c_str());
  SOAK_CHECK(checker.unresolved_migration_epochs() == 0,
             "%s: a migration epoch never settled", name.c_str());
  return first;
}

/// With the monitor, writes the metrics of a mode's twins to
/// out/flecc_metrics.prom, naming the file if `announce`.
void write_prom(const Observers& o, const obs::MetricsRegistry& metrics,
                bool announce) {
  if (!o.monitor) return;
  const std::string prom = out_path("flecc_metrics.prom");
  if (metrics.write_prometheus(prom.c_str()) && announce) {
    std::printf("# monitor metrics -> %s\n", prom.c_str());
  }
}

/// `path` with `.variant` before its extension: trace.jsonl becomes
/// trace.warm.jsonl.
std::string variant_path(const char* path, const char* variant) {
  std::filesystem::path p(path);
  p.replace_extension(variant + p.extension().string());
  return p.string();
}

/// Writes `recorder`'s trace to `path` as JSONL; returns its event count.
std::size_t write_trace(const obs::TraceRecorder& recorder, const char* path) {
  const auto events = recorder.snapshot();
  if (!obs::write_jsonl(events, path)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  return events.size();
}

}  // namespace

int main(int argc, char** argv) {
  const char* trace_path = nullptr;
  bool monitor = false;
  bool crash_dm = false;
  bool batch = false;
  bool overload = false;
  bool migrate = false;
  std::size_t wbuf = 0;
  bool serve = false;
  unsigned serve_port = 0;
  unsigned telemetry_interval_ms = 250;
  unsigned pace_ms = 0;
  bool telemetry = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--monitor") == 0) {
      monitor = true;
    } else if (std::strcmp(argv[i], "--crash-dm") == 0) {
      crash_dm = true;
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      batch = true;
    } else if (std::strcmp(argv[i], "--overload") == 0) {
      overload = true;
    } else if (std::strcmp(argv[i], "--migrate") == 0) {
      migrate = true;
    } else if (std::strcmp(argv[i], "--wbuf") == 0 && i + 1 < argc) {
      wbuf = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
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
                   "usage: %s [--trace out.jsonl] [--monitor] [--crash-dm] "
                   "[--batch] [--overload] [--migrate] [--wbuf N] "
                   "[--serve PORT] [--telemetry-interval MS] [--pace MS]\n",
                   argv[0]);
      return 2;
    }
  }

  // Live telemetry: a hub sampled on simulated time by the first run's
  // testbed, optionally served over HTTP while the soak executes. The
  // SLO rules below are tuned to the chaos the soak injects, so every
  // telemetry-enabled run demonstrates the full alert lifecycle:
  // retries/breakers fire the rules mid-chaos, the long recovery
  // horizon drains them, and the run ends with zero active alerts.
  std::unique_ptr<obs::TelemetryHub> hub;
  std::unique_ptr<net::TelemetryServer> server;
  if (telemetry) {
    obs::TelemetryOptions topts;
    topts.interval = sim::msec(telemetry_interval_ms);
    topts.pace_ms = pace_ms;
    hub = std::make_unique<obs::TelemetryHub>(topts);
    std::string rule_err;
    for (const char* rule :
         {"retransmit-storm: cm.op.retry/s > 0",
          "breaker-open: cm.breaker.open/s > 0",
          "directory-down: health.dm.down >= 1"}) {
      SOAK_CHECK(hub->alerts().add_rule(rule, &rule_err), "bad SLO rule: %s",
                 rule_err.c_str());
    }
    if (serve) {
      server = std::make_unique<net::TelemetryServer>(
          static_cast<std::uint16_t>(serve_port));
      SOAK_CHECK(server->listening(), "cannot bind telemetry port %u",
                 serve_port);
      net::serve_telemetry(*hub, *server);
      server->serve_background();
      std::printf("# telemetry: http://127.0.0.1:%u/metrics (also /healthz, "
                  "/varz)\n",
                  server->port());
    }
  }

  // Every mode runs its scenarios through twin(): twice with the same
  // seed, output compared bit for bit, observers on the first run only.
  const Observers observers{trace_path, monitor, hub.get()};
  obs::MetricsRegistry metrics;  // out/flecc_metrics.prom
  std::string result;  // printed and written to out/chaos_soak.csv
  std::string note;    // printed after it
  const char* verdict = nullptr;

  if (migrate) {
    std::printf("# Migration soak — %zu journaled agents, 5%% loss, two live "
                "view moves onto spare hosts, crash matrix over every "
                "migration phase\n",
                kMigAgents);
    static const MigrateVariant kVariants[] = {
        {"warm", kTargetNone, -1},
        {"src-quiesce", kTargetSource, core::DirectoryManager::kMigrateQuiesce},
        {"src-handoff", kTargetSource, core::DirectoryManager::kMigrateHandoff},
        {"src-done", kTargetSource, core::DirectoryManager::kMigrateDone},
        {"dest-quiesce", kTargetDest, core::DirectoryManager::kMigrateQuiesce},
        {"dest-handoff", kTargetDest, core::DirectoryManager::kMigrateHandoff},
        {"dest-done", kTargetDest, core::DirectoryManager::kMigrateDone},
    };
    for (const auto& v : kVariants) {
      obs::TraceRecorder recorder;
      const std::string first = twin(
          std::string("variant '") + v.name + "'",
          [&v](obs::TraceRecorder* t, obs::TelemetryHub* h) {
            return run_migrate(kSeed, t, v, h);
          },
          observers, Export::kProm, recorder, metrics);
      if (trace_path != nullptr) {
        write_trace(recorder, variant_path(trace_path, v.name).c_str());
      }
      std::printf("# migrate variant %-13s converged; twin bit-identical\n",
                  v.name);
      result += std::string("# variant ") + v.name + "\n" + first;
    }
    write_prom(observers, metrics, false);
    verdict = "# all migration variants converged; every twin was "
              "bit-identical";
  } else if (overload) {
    std::printf("# Overload storm — %zu strong-mode agents on one hot "
                "flight group, slow directory, queue bound %zu%s\n",
                kStormAgents, kStormQueueBound,
                crash_dm ? ", directory crash-restart mid-storm" : "");
    obs::TraceRecorder recorder;
    OverloadResult flow_res;
    result = twin(
        "overload storm",
        [&](obs::TraceRecorder* t, obs::TelemetryHub* h) {
          return run_overload(kSeed, t, /*flow_on=*/true, flow_res, crash_dm,
                              h);
        },
        observers, Export::kReport, recorder, metrics);
    // Surface the overload ladder in the same Prometheus export the
    // monitor writes: flow.*/shed.*/breaker.* families.
    metrics.inc("net.flow.queue.peak", flow_res.queue_peak);
    metrics.inc("net.flow.shed", flow_res.fabric_shed);
    metrics.inc("dm.shed", flow_res.dm_shed);
    metrics.inc("cm.breaker.open", flow_res.breaker_opened);
    metrics.inc("cm.breaker.degrade", flow_res.degraded);
    write_prom(observers, metrics, true);
    OverloadResult base_res;
    run_overload(kSeed, nullptr, /*flow_on=*/false, base_res, crash_dm);

    // The bound held where the baseline blew through it, and every
    // layer of the ladder actually engaged.
    SOAK_CHECK(flow_res.queue_peak <= kStormQueueBound,
               "bounded run peak %llu exceeds bound %zu",
               static_cast<unsigned long long>(flow_res.queue_peak),
               kStormQueueBound);
    SOAK_CHECK(base_res.queue_peak > kStormQueueBound,
               "baseline peak %llu never exceeded the bound %zu — the "
               "storm is not a storm",
               static_cast<unsigned long long>(base_res.queue_peak),
               kStormQueueBound);
    SOAK_CHECK(flow_res.fabric_shed + flow_res.dm_shed >= 1,
               "flow control on but nothing was ever shed");
    SOAK_CHECK(flow_res.breaker_opened >= 1,
               "sustained pressure never opened a breaker");
    SOAK_CHECK(flow_res.degraded >= 1,
               "no STRONG manager ever degraded to buffered WEAK");

    if (trace_path != nullptr) {
      std::printf("# trace: %zu events -> %s\n",
                  write_trace(recorder, trace_path), trace_path);
    }
    char peak[160];
    std::snprintf(peak, sizeof(peak),
                  "# peak bulk queue depth: bounded %llu <= %zu, unbounded "
                  "baseline %llu\n",
                  static_cast<unsigned long long>(flow_res.queue_peak),
                  kStormQueueBound,
                  static_cast<unsigned long long>(base_res.queue_peak));
    note = peak;
    verdict = "# overload storm converged; two same-seed runs were "
              "bit-identical";
  } else {
    std::printf("# Chaos soak — %zu agents, 10%% loss, partition of agents "
                "[%zu,%zu], crashes {%zu,%zu}%s%s%s\n",
                kAgents, kPartitionLo, kPartitionHi, kCrashed[0], kCrashed[1],
                crash_dm ? ", directory crash-restart" : "",
                batch ? ", send batching + piggybacked heartbeats" : "",
                wbuf > 0 ? ", CM write buffer" : "");
    obs::TraceRecorder recorder;
    result = twin(
        "soak",
        [&](obs::TraceRecorder* t, obs::TelemetryHub* h) {
          return run_soak(kSeed, t, crash_dm, false, batch, wbuf, h);
        },
        observers, Export::kReport, recorder, metrics);
    write_prom(observers, metrics, true);

    if (crash_dm) {
      // Second scenario: the checkpoint is wiped before the restart, so
      // only the generation superblock survives and the state comes back
      // purely via CM re-registration (heartbeats fenced with
      // known=false). Same determinism bar as the warm variant; it is
      // neither exported nor watched by telemetry.
      std::printf("# crash-dm: warm-checkpoint variant converged; running "
                  "empty-checkpoint variant\n");
      obs::TraceRecorder empty_rec;
      twin(
          "empty-checkpoint variant",
          [&](obs::TraceRecorder* t, obs::TelemetryHub* h) {
            return run_soak(kSeed, t, /*crash_dm=*/true,
                            /*empty_checkpoint=*/true, batch, wbuf, h);
          },
          Observers{nullptr, monitor, nullptr}, Export::kNone, empty_rec,
          metrics);
      std::printf("# crash-dm: empty-checkpoint variant converged\n");
    }

    if (trace_path != nullptr) {
      const std::size_t events = write_trace(recorder, trace_path);
      std::printf("# trace: %zu events (%llu recorded, %llu lost to ring "
                  "wraparound) -> %s\n",
                  events,
                  static_cast<unsigned long long>(recorder.total_emitted()),
                  static_cast<unsigned long long>(recorder.total_dropped()),
                  trace_path);
    }
    verdict = "# all convergence checks passed; two same-seed runs were "
              "bit-identical";
  }

  std::printf("%s%s", result.c_str(), note.c_str());
  const std::string csv = out_path("chaos_soak.csv");
  if (std::FILE* f = std::fopen(csv.c_str(), "w")) {
    std::fputs(result.c_str(), f);
    std::fclose(f);
    std::printf("\n# data also written to %s\n", csv.c_str());
  }

  // The hub rode the first run of every scenario that has one; these
  // checks run after the mode finishes.
  if (hub != nullptr) {
    SOAK_CHECK(hub->registry().windows_closed() >= 1,
               "telemetry enabled but no window ever closed");
    SOAK_CHECK(hub->alerts().raised_total() >= 1,
               "chaos injected but no SLO alert ever fired");
    SOAK_CHECK(hub->alerts().cleared_total() == hub->alerts().raised_total(),
               "%llu alert(s) still active after the recovery horizon",
               static_cast<unsigned long long>(hub->alerts().raised_total() -
                                               hub->alerts().cleared_total()));
    const auto issues = obs::prom::validate(hub->render_metrics());
    for (const auto& issue : issues) {
      std::fprintf(stderr, "prom: %s\n", issue.to_string().c_str());
    }
    SOAK_CHECK(issues.empty(), "/metrics failed exposition validation");
    std::printf("# telemetry: %llu windows, %llu series, alerts raised=%llu "
                "cleared=%llu, /metrics validator-clean\n",
                static_cast<unsigned long long>(
                    hub->registry().windows_closed()),
                static_cast<unsigned long long>(hub->registry().series_count()),
                static_cast<unsigned long long>(hub->alerts().raised_total()),
                static_cast<unsigned long long>(hub->alerts().cleared_total()));
  }
  std::printf("%s\n", verdict);
  return 0;
}

// Ready-made simulated deployments of the airline system, shared by
// tests, examples, and the figure-reproduction benches.
//
// Physical layout mirrors the paper's experiment: all travel agents and
// the main database in one LAN ("deployed into a LAN and connected to a
// main database running in the same LAN", §5.2).
#pragma once

#include <memory>
#include <vector>

#include "airline/flight_database.hpp"
#include "airline/travel_agent.hpp"
#include "airline/workload.hpp"
#include "baselines/coherence_client.hpp"
#include "baselines/multicast.hpp"
#include "baselines/time_sharing.hpp"
#include "core/directory_manager.hpp"
#include "core/durability.hpp"
#include "net/batch_fabric.hpp"
#include "net/sim_fabric.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace flecc::obs {
class TelemetryHub;
}  // namespace flecc::obs

namespace flecc::airline {

/// Which coherence protocol a CoherenceTestbed deploys (Figure 4).
enum class Protocol { kFlecc, kTimeSharing, kMulticast };

const char* to_string(Protocol p) noexcept;

struct TestbedOptions {
  std::size_t n_agents = 10;
  std::size_t group_size = 10;
  std::size_t flights_per_group = 5;
  std::int64_t capacity = 100000;
  /// Simulated work inside each travel agent's use section.
  sim::Duration think_time = 0;
  sim::Duration lan_latency = sim::usec(200);
  /// Template for every Flecc cache manager the testbed creates: mode,
  /// triggers, reliability, raw-speed and overload knobs. The testbed
  /// fills in each manager's view name, properties, trace buffer and
  /// journal.
  core::CacheManager::Config cm_cfg{};
  core::DirectoryManager::Config dir_cfg{};
  /// Fabric knobs (loss injection, seed) for chaos experiments.
  net::SimFabric::Config fabric_cfg{};
  /// Protocol-event recorder (obs layer, not owned; nullptr disables).
  /// The testbed creates one buffer per role: "dm" (directory), "fabric"
  /// (drop events), and "cm.<i>" per agent, so each writer stays
  /// single-threaded and the merged snapshot is time-ordered.
  obs::TraceRecorder* trace = nullptr;
  /// Wrap the simulated fabric in a net::BatchFabric (PERFORMANCE.md):
  /// message trains between the same pair of nodes travel as one framed
  /// hop. All protocol components (directory, agents, baselines) ride
  /// it, so cross-protocol comparisons stay apples-to-apples.
  bool batch_fabric = false;
  /// Give the directory an owned in-memory durability store so
  /// crash_directory()/restart_directory() can exercise checkpointed
  /// recovery. Ignored when dir_cfg.durability is already set.
  bool durable_directory = false;
  /// Checkpoint lag: WAL appends between flushes (1 = every append is
  /// durable; larger values leave an unflushed tail that a crash eats,
  /// forcing the rebuild round to recover more from the CMs).
  std::size_t checkpoint_flush_every = 1;
  // ---- dynamic reconfiguration knobs (PROTOCOL.md "View migration &
  // CM journaling") -------------------------------------------------------
  /// Give every agent an owned in-memory write-ahead journal, so
  /// crash_agent()/restart_agent() exercise journaled CM recovery
  /// (buffered WEAK writes and unacked push intents survive the crash).
  bool cm_journal = false;
  /// CM journal appends between flushes (1 = every append durable).
  std::size_t cm_journal_flush_every = 1;
  /// Extra idle LAN hosts reserved as live-migration destinations
  /// (spawn_destination() places an await-migration agent on one).
  std::size_t spare_hosts = 0;
  // ---- live telemetry (OBSERVABILITY.md "Live telemetry") ---------------
  /// Live-telemetry hub (not owned; nullptr disables — zero overhead).
  /// The testbed registers read-only collectors (directory/fabric/CM
  /// counters, per-view and per-flight dimensional series, `health.*`
  /// gauges) and drives hub->tick() from a simulated-time daemon event
  /// every hub interval, so sampling is deterministic and never
  /// perturbs the protocol.
  obs::TelemetryHub* telemetry = nullptr;
};

/// Full-featured Flecc deployment with TravelAgent drivers (Figures 5-6).
class FleccTestbed {
 public:
  explicit FleccTestbed(TestbedOptions opts);
  ~FleccTestbed();

  FleccTestbed(const FleccTestbed&) = delete;
  FleccTestbed& operator=(const FleccTestbed&) = delete;

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] net::SimFabric& fabric() noexcept { return *fabric_; }
  /// The fabric protocol components are wired to: the BatchFabric when
  /// opts.batch_fabric, the SimFabric otherwise.
  [[nodiscard]] net::Fabric& protocol_fabric() noexcept {
    return batch_ != nullptr ? static_cast<net::Fabric&>(*batch_) : *fabric_;
  }
  [[nodiscard]] net::BatchFabric* batch_fabric() noexcept {
    return batch_.get();
  }
  [[nodiscard]] FlightDatabase& database() noexcept { return db_; }
  [[nodiscard]] core::DirectoryManager& directory() noexcept {
    return *directory_;
  }
  [[nodiscard]] std::size_t agent_count() const noexcept {
    return agents_.size();
  }
  [[nodiscard]] TravelAgent& agent(std::size_t i) { return *agents_.at(i); }
  [[nodiscard]] const GroupAssignment& assignment() const noexcept {
    return assignment_;
  }

  /// Run the simulator until idle.
  void run() { sim_.run(); }
  void run_until(sim::Time t) { sim_.run_until(t); }

  /// Initialize every agent (registration + initImage) and run to idle.
  void init_all_agents();

  // ---- chaos hooks ------------------------------------------------------

  /// Silently crash agent `i`: its endpoint is unbound (messages to it
  /// vanish) and no kill/teardown protocol runs. The TravelAgent object
  /// stays alive for post-mortem inspection but must not be driven.
  /// With cm_journal, the agent's journal store also loses its
  /// unflushed tail (MemoryDurabilityStore::crash).
  void crash_agent(std::size_t i);
  [[nodiscard]] bool crashed(std::size_t i) const {
    return crashed_.at(i);
  }

  /// Restart a crashed agent on the SAME address and journal store: the
  /// new cache manager replays the journal, resumes its view id under a
  /// bumped incarnation, and re-delivers journaled updates exactly
  /// once. The old agent's confirmed sales are folded into
  /// retired_confirmed() before the object is replaced (its view-level
  /// counters die with it). Requires cm_journal.
  TravelAgent& restart_agent(std::size_t i);

  /// Confirmed-minus-cancelled sales of agent lives that were retired
  /// by restart_agent(); add to the surviving agents' totals when
  /// balancing against the database.
  [[nodiscard]] std::int64_t retired_confirmed() const noexcept {
    return retired_confirmed_;
  }

  /// Agent `i`'s journal store (nullptr unless cm_journal).
  [[nodiscard]] core::MemoryDurabilityStore* agent_journal(std::size_t i) {
    return cm_journal_stores_.empty() ? nullptr
                                      : cm_journal_stores_.at(i).get();
  }

  // ---- live view migration ----------------------------------------------

  /// Place an idle await-migration agent on spare host `spare` (0-based,
  /// < opts.spare_hosts), configured with the same flights as source
  /// agent `src` so it can adopt that view's data. Re-spawning on an
  /// occupied slot replaces the previous (e.g. crashed) destination;
  /// its confirmed sales fold into retired_confirmed().
  TravelAgent& spawn_destination(std::size_t src, std::size_t spare);
  [[nodiscard]] TravelAgent& spare(std::size_t i) { return *spares_.at(i); }
  [[nodiscard]] bool has_spare(std::size_t i) const {
    return i < spares_.size() && spares_[i] != nullptr;
  }

  /// Silently crash the destination agent on spare slot `i`.
  void crash_spare(std::size_t i);

  /// Ask the directory to migrate agent `src`'s view to the destination
  /// on spare slot `spare` (which must have been spawned).
  bool migrate_agent(std::size_t src, std::size_t spare);

  /// Cut the given agents off from everyone else (including the
  /// directory) until heal_partition().
  void partition_agents(const std::vector<std::size_t>& agent_indices);
  void heal_partition() { fabric_->heal(); }

  /// Crash the directory: every in-memory table (sharing sets, open
  /// rounds, dedup windows) dies with the DirectoryManager object and
  /// its endpoint unbinds, so in-flight messages to it vanish. The
  /// durability store survives in the testbed, minus any unflushed WAL
  /// tail (MemoryDurabilityStore::crash). Requires durable_directory.
  void crash_directory();

  /// Restart the directory from the surviving checkpoint: the new
  /// incarnation replays the WAL under a bumped generation, probes
  /// surviving agents (DirectoryRebuild), and fences stale traffic.
  void restart_directory();

  [[nodiscard]] bool directory_crashed() const noexcept {
    return dir_crashed_;
  }

  /// The owned durability store (nullptr unless durable_directory).
  [[nodiscard]] core::MemoryDurabilityStore* durability() noexcept {
    return durability_.get();
  }

 private:
  /// Shared agent configuration (constructor + restart_agent).
  TravelAgent::Config agent_config(std::size_t i);
  /// Register the telemetry collectors on opts_.telemetry.
  void wire_telemetry();

  TestbedOptions opts_;
  GroupAssignment assignment_;
  sim::Simulator sim_;
  std::unique_ptr<net::SimFabric> fabric_;
  /// Optional batching decorator; must outlive everything bound
  /// through it (declared before, hence destroyed after, the protocol
  /// components below).
  std::unique_ptr<net::BatchFabric> batch_;
  FlightDatabase db_;
  std::unique_ptr<FlightDatabaseAdapter> adapter_;
  std::unique_ptr<core::MemoryDurabilityStore> durability_;
  /// Per-agent CM write-ahead journals (empty unless cm_journal); the
  /// stores outlive agent restarts, which is the whole point.
  std::vector<std::unique_ptr<core::MemoryDurabilityStore>> cm_journal_stores_;
  /// Journals for spawned migration destinations, by spare slot.
  std::vector<std::unique_ptr<core::MemoryDurabilityStore>> spare_journals_;
  std::unique_ptr<core::DirectoryManager> directory_;
  std::vector<std::unique_ptr<TravelAgent>> agents_;
  /// Migration destinations, by spare slot (nullptr = not spawned).
  std::vector<std::unique_ptr<TravelAgent>> spares_;
  std::vector<bool> crashed_;
  std::vector<net::NodeId> hosts_;
  net::Address dir_addr_{};
  bool dir_crashed_ = false;
  std::int64_t retired_confirmed_ = 0;
  /// Collector registration on opts_.telemetry (removed on destruction
  /// so a hub shared across consecutive runs never samples a dead
  /// testbed).
  std::size_t telemetry_token_ = 0;
};

/// Protocol-parametric deployment behind the CoherenceClient interface
/// (the Figure-4 efficiency comparison).
class CoherenceTestbed {
 public:
  CoherenceTestbed(Protocol protocol, TestbedOptions opts);
  ~CoherenceTestbed();

  CoherenceTestbed(const CoherenceTestbed&) = delete;
  CoherenceTestbed& operator=(const CoherenceTestbed&) = delete;

  [[nodiscard]] Protocol protocol() const noexcept { return protocol_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] net::SimFabric& fabric() noexcept { return *fabric_; }
  [[nodiscard]] FlightDatabase& database() noexcept { return db_; }
  [[nodiscard]] std::size_t agent_count() const noexcept {
    return clients_.size();
  }
  [[nodiscard]] baselines::CoherenceClient& client(std::size_t i) {
    return *clients_.at(i);
  }
  [[nodiscard]] TravelAgentView& view(std::size_t i) { return *views_.at(i); }
  [[nodiscard]] const GroupAssignment& assignment() const noexcept {
    return assignment_;
  }
  /// Non-null only for Protocol::kFlecc.
  [[nodiscard]] core::DirectoryManager* flecc_directory() noexcept {
    return directory_.get();
  }

  void run() { sim_.run(); }

  /// Connect every client and run to idle.
  void connect_all();

 private:
  /// Minimal telemetry wiring (fabric/db/directory counters) so fig4
  /// runs can serve live metrics too.
  void wire_telemetry();

  Protocol protocol_;
  TestbedOptions opts_;
  GroupAssignment assignment_;
  sim::Simulator sim_;
  std::unique_ptr<net::SimFabric> fabric_;
  /// Optional batching decorator (see FleccTestbed::batch_).
  std::unique_ptr<net::BatchFabric> batch_;
  FlightDatabase db_;
  std::unique_ptr<FlightDatabaseAdapter> adapter_;

  // exactly one of these coordinator sets is populated
  std::unique_ptr<core::DirectoryManager> directory_;
  std::unique_ptr<baselines::TimeSharingCoordinator> ts_coord_;
  std::unique_ptr<baselines::MulticastDirectory> mc_dir_;

  std::vector<std::unique_ptr<TravelAgentView>> views_;
  std::vector<std::unique_ptr<baselines::CoherenceClient>> clients_;
  /// See FleccTestbed::telemetry_token_.
  std::size_t telemetry_token_ = 0;
};

}  // namespace flecc::airline

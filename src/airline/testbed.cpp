#include "airline/testbed.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "baselines/flecc_client.hpp"
#include "obs/telemetry.hpp"

namespace flecc::airline {

const char* to_string(Protocol p) noexcept {
  switch (p) {
    case Protocol::kFlecc: return "flecc";
    case Protocol::kTimeSharing: return "time-sharing";
    case Protocol::kMulticast: return "multicast";
  }
  return "?";
}

namespace {

constexpr net::PortId kServicePort = 1;

// Role buffer sizing: the directory and the fabric see every agent's
// traffic, so they get much deeper rings than the per-agent default
// (4096). At 100 agents the whole recorder stays around 30 MB.
constexpr std::size_t kDirTraceCapacity = std::size_t{1} << 17;
constexpr std::size_t kFabricTraceCapacity = std::size_t{1} << 15;

net::Topology make_lan(std::size_t n_agents, sim::Duration latency,
                       std::vector<net::NodeId>& hosts) {
  net::LinkSpec link;
  link.latency = latency;
  // +1 host for the database/coordinator node.
  return net::Topology::lan(n_agents + 1, link, &hosts);
}

FlightDatabase make_db(const GroupAssignment& assignment,
                       std::int64_t capacity, FlightNumber base = 100) {
  return FlightDatabase::uniform(
      base, assignment.flight_count, capacity);
}

/// Self-rescheduling daemon event calling hub.tick() every hub interval.
/// Daemon: the sampler must not keep run() alive once the protocol goes
/// idle, and a pure read of protocol state cannot perturb the event
/// order either way — that is the telemetry-never-perturbs guarantee.
void schedule_telemetry_tick(sim::Simulator& sim, obs::TelemetryHub& hub) {
  sim::Duration interval = hub.options().interval;
  if (interval <= 0) interval = sim::msec(250);
  sim.schedule_after(interval,
                     [&sim, &hub] {
                       hub.tick(sim.now());
                       schedule_telemetry_tick(sim, hub);
                     },
                     /*daemon=*/true);
}

}  // namespace

// ---- FleccTestbed -----------------------------------------------------------

FleccTestbed::FleccTestbed(TestbedOptions opts)
    : opts_(std::move(opts)),
      assignment_(assign_flight_groups(opts_.n_agents, opts_.group_size,
                                       opts_.flights_per_group)) {
  // Spare hosts sit idle between the agents and the database host until
  // spawn_destination() places a migration target on one.
  auto topo = make_lan(opts_.n_agents + opts_.spare_hosts, opts_.lan_latency,
                       hosts_);
  fabric_ = std::make_unique<net::SimFabric>(sim_, std::move(topo),
                                             opts_.fabric_cfg);
  if (opts_.batch_fabric) {
    batch_ = std::make_unique<net::BatchFabric>(*fabric_,
                                                net::BatchFabric::Config{});
  }
  net::Fabric& proto = protocol_fabric();

  db_ = make_db(assignment_, opts_.capacity);
  adapter_ = std::make_unique<FlightDatabaseAdapter>(db_);

  if (opts_.trace != nullptr) {
    fabric_->set_trace_buffer(
        opts_.trace->make_buffer("fabric", kFabricTraceCapacity));
    opts_.dir_cfg.trace = opts_.trace->make_buffer("dm", kDirTraceCapacity);
  }

  if (opts_.durable_directory && opts_.dir_cfg.durability == nullptr) {
    durability_ = std::make_unique<core::MemoryDurabilityStore>(
        opts_.checkpoint_flush_every);
    opts_.dir_cfg.durability = durability_.get();
  }
  dir_addr_ = net::Address{hosts_.back(), kServicePort};
  const net::Address dir_addr = dir_addr_;
  directory_ = std::make_unique<core::DirectoryManager>(proto, dir_addr,
                                                        *adapter_,
                                                        opts_.dir_cfg);

  if (opts_.cm_journal) {
    cm_journal_stores_.reserve(opts_.n_agents);
    for (std::size_t i = 0; i < opts_.n_agents; ++i) {
      cm_journal_stores_.push_back(
          std::make_unique<core::MemoryDurabilityStore>(
              opts_.cm_journal_flush_every));
    }
  }
  for (std::size_t i = 0; i < opts_.n_agents; ++i) {
    const net::Address addr{hosts_[i], kServicePort};
    agents_.push_back(std::make_unique<TravelAgent>(proto, addr, dir_addr,
                                                    agent_config(i)));
  }
  crashed_.assign(agents_.size(), false);
  spares_.resize(opts_.spare_hosts);
  spare_journals_.resize(opts_.spare_hosts);

  if (opts_.telemetry != nullptr) {
    wire_telemetry();
    schedule_telemetry_tick(sim_, *opts_.telemetry);
  }
}

TravelAgent::Config FleccTestbed::agent_config(std::size_t i) {
  TravelAgent::Config cfg;
  cfg.flights = assignment_.agent_flights[i];
  cfg.think_time = opts_.think_time;
  cfg.cm_cfg = opts_.cm_cfg;
  cfg.cm_cfg.trace = opts_.trace == nullptr
                         ? nullptr
                         : opts_.trace->make_buffer("cm." + std::to_string(i));
  cfg.cm_cfg.journal =
      cm_journal_stores_.empty() ? nullptr : cm_journal_stores_[i].get();
  return cfg;
}

FleccTestbed::~FleccTestbed() {
  if (opts_.telemetry != nullptr) {
    opts_.telemetry->registry().remove_collector(telemetry_token_);
  }
}

void FleccTestbed::wire_telemetry() {
  // One read-only collector over the whole deployment. It captures
  // `this` (agents are replaced by restart_agent(), so per-agent
  // pointers would dangle) and runs on the sim thread inside
  // TelemetryHub::tick — it must never mutate protocol state.
  telemetry_token_ = opts_.telemetry->registry().add_collector(
      [this](obs::SampleFrame& f) {
    if (directory_ != nullptr && !dir_crashed_) {
      f.counters(directory_->stats(), "dm.");
      f.gauge("dm.views.registered",
              static_cast<double>(directory_->registered_count()));
      f.gauge("dm.migrations.inflight",
              static_cast<double>(directory_->migrations_inflight()));
      f.gauge("recovery.generation",
              static_cast<double>(directory_->generation()));
      f.gauge("health.recovery.rebuilding",
              directory_->rebuilding() ? 1.0 : 0.0);
    }
    f.gauge("health.dm.down", dir_crashed_ ? 1.0 : 0.0);
    f.counters(fabric_->counters(), "net.");
    if (batch_ != nullptr) f.counters(batch_->counters(), "logical.");

    // Cache-manager rollup plus per-view dimensional series. Crashed
    // agents keep contributing their frozen counters to the aggregate
    // (the object survives for post-mortem) but drop their per-view
    // series, so view-scoped alerts clear when a view dies; an agent
    // restart resets its counters, which the registry treats as a
    // counter reset.
    sim::CounterSet cm;
    double breakers_open = 0.0;
    double degraded = 0.0;
    const auto fold = [&](const TravelAgent& a) {
      for (const auto& [name, value] : a.cache().stats().all()) {
        cm.inc(name, value);
      }
      if (a.cache().breaker_state() == core::flow::BreakerState::kOpen) {
        breakers_open += 1.0;
      }
      if (a.cache().degraded()) degraded += 1.0;
    };
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      fold(*agents_[i]);
      if (crashed_[i]) continue;
      const TravelAgent& a = *agents_[i];
      obs::TsLabels view{{"view", std::to_string(i)}};
      f.gauge("view.queued_ops",
              static_cast<double>(a.cache().queued_ops()), view);
      f.gauge("view.breaker",
              static_cast<double>(a.cache().breaker_state()), view);
      f.counter("view.ops_completed",
                static_cast<double>(a.ops_completed()), view);
      f.counter("view.confirmed",
                static_cast<double>(a.view().confirmed_total()), view);
      f.stat("view.op_latency_us", a.op_latencies(), view);
    }
    for (const auto& spare : spares_) {
      if (spare != nullptr) fold(*spare);
    }
    f.counters(cm, "cm.");
    f.gauge("health.breaker.open", breakers_open);
    f.gauge("health.cm.degraded", degraded);

    // Per-object (flight) hot-set series, plus database truth.
    for (const auto& [number, flight] : db_) {
      f.counter("airline.flight.reserved",
                static_cast<double>(flight.reserved),
                {{"flight", std::to_string(number)}});
    }
    f.gauge("airline.db.total_reserved",
            static_cast<double>(db_.total_reserved()));
    f.counter("airline.db.rejected_seats",
              static_cast<double>(db_.rejected_seats()));
  });
}

void FleccTestbed::init_all_agents() {
  for (auto& agent : agents_) agent->init();
  sim_.run();
}

void FleccTestbed::crash_agent(std::size_t i) {
  if (crashed_.at(i)) return;
  crashed_[i] = true;
  // Silent crash: the endpoint disappears mid-protocol and all local
  // activity (timers, retransmissions, heartbeats) stops. The directory
  // learns about it only through liveness eviction or round timeouts.
  agents_[i]->cache().halt();
  if (!cm_journal_stores_.empty()) {
    // The host died with the process: unflushed journal appends are gone.
    cm_journal_stores_[i]->crash();
  }
}

TravelAgent& FleccTestbed::restart_agent(std::size_t i) {
  if (!crashed_.at(i) || cm_journal_stores_.empty()) {
    return *agents_.at(i);
  }
  // The view-level sales counters die with the old object; fold them
  // into the retired total so database accounting stays exact.
  retired_confirmed_ += agents_[i]->view().net_sold();
  const net::Address addr{hosts_[i], kServicePort};
  // Destroy the old (halted) agent first: its endpoint is already
  // unbound, but the address must be free before the new bind.
  agents_[i].reset();
  agents_[i] = std::make_unique<TravelAgent>(protocol_fabric(), addr,
                                             dir_addr_, agent_config(i));
  crashed_[i] = false;
  return *agents_[i];
}

TravelAgent& FleccTestbed::spawn_destination(std::size_t src,
                                             std::size_t spare) {
  if (spares_.at(spare) != nullptr) {
    retired_confirmed_ += spares_[spare]->view().net_sold();
    spares_[spare].reset();
  }
  TravelAgent::Config cfg = agent_config(src);
  if (opts_.trace != nullptr) {
    cfg.cm_cfg.trace =
        opts_.trace->make_buffer("cm.spare." + std::to_string(spare));
  }
  cfg.cm_cfg.await_migration = true;
  if (opts_.cm_journal) {
    spare_journals_[spare] = std::make_unique<core::MemoryDurabilityStore>(
        opts_.cm_journal_flush_every);
    cfg.cm_cfg.journal = spare_journals_[spare].get();
  }
  const net::Address addr{hosts_[opts_.n_agents + spare], kServicePort};
  spares_[spare] = std::make_unique<TravelAgent>(protocol_fabric(), addr,
                                                 dir_addr_, std::move(cfg));
  return *spares_[spare];
}

void FleccTestbed::crash_spare(std::size_t i) {
  if (spares_.at(i) == nullptr) return;
  spares_[i]->cache().halt();
  if (spare_journals_[i] != nullptr) spare_journals_[i]->crash();
}

bool FleccTestbed::migrate_agent(std::size_t src, std::size_t spare) {
  if (directory_ == nullptr || spares_.at(spare) == nullptr) return false;
  return directory_->begin_migration(agents_.at(src)->cache().id(),
                                     spares_[spare]->cache().address());
}

void FleccTestbed::crash_directory() {
  if (dir_crashed_ || directory_ == nullptr) return;
  dir_crashed_ = true;
  // Destroying the manager unbinds its endpoint and cancels its timers:
  // every in-memory table dies, in-flight messages to it vanish, and
  // only the durability store survives — minus its unflushed WAL tail.
  directory_.reset();
  if (durability_ != nullptr) durability_->crash();
}

void FleccTestbed::restart_directory() {
  if (!dir_crashed_) return;
  dir_crashed_ = false;
  // The new incarnation reads the surviving checkpoint (generation
  // superblock + durable WAL prefix), bumps the generation, and probes
  // the checkpointed views; opts_.dir_cfg still carries the durability
  // pointer and the "dm" trace buffer, so the trace spans both lives.
  directory_ = std::make_unique<core::DirectoryManager>(protocol_fabric(),
                                                        dir_addr_, *adapter_,
                                                        opts_.dir_cfg);
}

void FleccTestbed::partition_agents(
    const std::vector<std::size_t>& agent_indices) {
  std::vector<net::Address> cut;
  cut.reserve(agent_indices.size());
  for (const std::size_t i : agent_indices) {
    cut.push_back(agents_.at(i)->cache().address());
  }
  std::vector<net::Address> rest;
  rest.push_back(directory_->address());
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    if (std::find(agent_indices.begin(), agent_indices.end(), i) ==
        agent_indices.end()) {
      rest.push_back(agents_[i]->cache().address());
    }
  }
  fabric_->partition(cut, rest);
}

// ---- CoherenceTestbed --------------------------------------------------------

CoherenceTestbed::CoherenceTestbed(Protocol protocol, TestbedOptions opts)
    : protocol_(protocol),
      opts_(std::move(opts)),
      assignment_(assign_flight_groups(opts_.n_agents, opts_.group_size,
                                       opts_.flights_per_group)) {
  std::vector<net::NodeId> hosts;
  auto topo = make_lan(opts_.n_agents, opts_.lan_latency, hosts);
  fabric_ = std::make_unique<net::SimFabric>(sim_, std::move(topo),
                                             opts_.fabric_cfg);
  if (opts_.batch_fabric) {
    batch_ = std::make_unique<net::BatchFabric>(*fabric_,
                                                net::BatchFabric::Config{});
  }
  // Every protocol (Flecc and baselines) rides the same fabric stack so
  // the Figure-4 comparison stays apples-to-apples.
  net::Fabric& proto =
      batch_ != nullptr ? static_cast<net::Fabric&>(*batch_) : *fabric_;

  db_ = make_db(assignment_, opts_.capacity);
  adapter_ = std::make_unique<FlightDatabaseAdapter>(db_);

  if (opts_.trace != nullptr) {
    fabric_->set_trace_buffer(
        opts_.trace->make_buffer("fabric", kFabricTraceCapacity));
    opts_.dir_cfg.trace = opts_.trace->make_buffer("dm", kDirTraceCapacity);
  }
  const net::Address coord_addr{hosts.back(), kServicePort};
  switch (protocol_) {
    case Protocol::kFlecc:
      directory_ = std::make_unique<core::DirectoryManager>(
          proto, coord_addr, *adapter_, opts_.dir_cfg);
      break;
    case Protocol::kTimeSharing:
      ts_coord_ = std::make_unique<baselines::TimeSharingCoordinator>(
          proto, coord_addr, *adapter_);
      break;
    case Protocol::kMulticast:
      mc_dir_ = std::make_unique<baselines::MulticastDirectory>(
          proto, coord_addr, *adapter_);
      break;
  }

  for (std::size_t i = 0; i < opts_.n_agents; ++i) {
    auto view =
        std::make_unique<TravelAgentView>(assignment_.agent_flights[i]);
    const net::Address addr{hosts[i], kServicePort};
    switch (protocol_) {
      case Protocol::kFlecc: {
        core::CacheManager::Config cfg = opts_.cm_cfg;
        cfg.view_name = TravelAgent::kComponentType;
        cfg.properties = view->properties();
        cfg.trace = opts_.trace == nullptr
                        ? nullptr
                        : opts_.trace->make_buffer("cm." + std::to_string(i));
        clients_.push_back(std::make_unique<baselines::FleccClient>(
            proto, addr, coord_addr, *view, std::move(cfg)));
        break;
      }
      case Protocol::kTimeSharing:
        clients_.push_back(std::make_unique<baselines::TimeSharingClient>(
            proto, addr, coord_addr, *view, TravelAgent::kComponentType,
            view->properties()));
        break;
      case Protocol::kMulticast:
        clients_.push_back(std::make_unique<baselines::MulticastClient>(
            proto, addr, coord_addr, *view, TravelAgent::kComponentType,
            view->properties()));
        break;
    }
    views_.push_back(std::move(view));
  }

  if (opts_.telemetry != nullptr) {
    wire_telemetry();
    schedule_telemetry_tick(sim_, *opts_.telemetry);
  }
}

CoherenceTestbed::~CoherenceTestbed() {
  if (opts_.telemetry != nullptr) {
    opts_.telemetry->registry().remove_collector(telemetry_token_);
  }
}

void CoherenceTestbed::wire_telemetry() {
  telemetry_token_ = opts_.telemetry->registry().add_collector(
      [this](obs::SampleFrame& f) {
    f.counters(fabric_->counters(), "net.");
    if (batch_ != nullptr) f.counters(batch_->counters(), "logical.");
    if (directory_ != nullptr) {
      f.counters(directory_->stats(), "dm.");
      f.gauge("dm.views.registered",
              static_cast<double>(directory_->registered_count()));
    }
    for (std::size_t i = 0; i < views_.size(); ++i) {
      f.counter("view.confirmed",
                static_cast<double>(views_[i]->confirmed_total()),
                {{"view", std::to_string(i)}});
    }
    for (const auto& [number, flight] : db_) {
      f.counter("airline.flight.reserved",
                static_cast<double>(flight.reserved),
                {{"flight", std::to_string(number)}});
    }
    f.gauge("airline.db.total_reserved",
            static_cast<double>(db_.total_reserved()));
    f.counter("airline.db.rejected_seats",
              static_cast<double>(db_.rejected_seats()));
  });
}

void CoherenceTestbed::connect_all() {
  for (auto& client : clients_) client->connect({});
  sim_.run();
}

}  // namespace flecc::airline

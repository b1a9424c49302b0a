#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "airline/flight_database.hpp"
#include "airline/travel_agent_view.hpp"
#include "airline/workload.hpp"
#include "core/cache_manager.hpp"
#include "core/directory_manager.hpp"
#include "net/sim_fabric.hpp"
#include "rt/thread_fabric.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "timed.hpp"

namespace flecc::e2e {
namespace {

using WallClock = std::chrono::steady_clock;
using Counts = std::map<std::string, std::uint64_t>;

double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

/// Seats per flight: far above what any run sells, so no confirm is
/// ever refused and conservation is exact.
constexpr std::int64_t kCapacity = std::int64_t{1} << 40;
constexpr net::PortId kPort = 1;
constexpr airline::FlightNumber kFirstFlight = 100;
constexpr std::size_t kFlightsPerGroup = 5;
/// Message loss of the durable workload (seeded by the run's seed).
constexpr double kDurableLoss = 0.01;
/// Views sampled per conflict-probe checkpoint, and checkpoints per
/// measured phase (SimFabric; ThreadFabric probes once, after drain).
constexpr std::size_t kProbeViews = 64;
constexpr std::uint64_t kProbeCheckpoints = 10;
/// Extra set-ups per untraced round: until their wall time reaches the
/// floor, at most this many samples.
constexpr double kSetupFloorS = 0.05;
constexpr std::size_t kMaxSetupSamples = 64;
/// Throughput is timed over this many equal slices of each round's
/// closed loop (SimFabric) or measured wall time (ThreadFabric), so a
/// run can time each slice at its least-disturbed round (main.cpp).
constexpr std::uint64_t kSlices = 32;
constexpr std::size_t kWindows = 20;
/// Smoke mode runs this fraction of the measured ops.
constexpr std::uint64_t kSmokeDivisor = 50;

/// Host-to-switch link latencies are drawn from this range (simulated
/// us), so host-to-host latency spans 190-210 us around
/// net::Topology::lan's 200 us and op latencies depend on the seed like
/// the op schedule does.
constexpr std::int64_t kLinkMinUs = 95;
constexpr std::int64_t kLinkMaxUs = 105;

/// Independent deterministic stream `k` of a seed.
sim::Rng stream(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t s = seed + k * 0x9e3779b97f4a7c15ULL;
  return sim::Rng(sim::splitmix64(s));
}

/// A single-switch LAN like net::Topology::lan, with a seeded latency
/// per host link.
net::Topology jittered_lan(std::size_t n, std::uint64_t seed,
                           std::vector<net::NodeId>& hosts) {
  sim::Rng rng = stream(seed, 1u << 21);
  net::Topology topo;
  for (std::size_t i = 0; i < n; ++i) {
    hosts.push_back(topo.add_node("host" + std::to_string(i)));
  }
  const net::NodeId hub = topo.add_node("switch");
  for (const net::NodeId h : hosts) {
    net::LinkSpec link;
    link.latency = sim::usec(rng.uniform_int(kLinkMinUs, kLinkMaxUs));
    topo.add_link(h, hub, link);
  }
  return topo;
}

std::optional<double> p99(const std::vector<double>& v) {
  if (v.empty()) return std::nullopt;
  Quiet quiet;
  return quantile(v, 0.99);
}

std::optional<double> p99(const LatencyHist& h) {
  if (h.empty()) return std::nullopt;
  return quantile(h, 0.99);
}

Counts snapshot(const sim::CounterSet& c) {
  Quiet quiet;
  Counts out;
  for (const auto& [name, value] : c.all()) out.emplace(name, value);
  return out;
}

void add_into(Counts& sum, const sim::CounterSet& c) {
  Quiet quiet;
  for (const auto& [name, value] : c.all()) sum[name] += value;
}

Counts delta(const Counts& before, const Counts& after) {
  Quiet quiet;
  Counts out;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    const std::uint64_t base = it == before.end() ? 0 : it->second;
    if (value != base) out.emplace(name, value - base);
  }
  return out;
}

/// Logical sends: every per-type send counter except batch frames,
/// which carry messages already counted by type.
std::uint64_t logical_sends(const Counts& net) {
  const std::string frame = std::string("msg.sent.") + net::kBatchFrame;
  std::uint64_t n = 0;
  for (const auto& [name, value] : net) {
    if (name.rfind("msg.sent.", 0) == 0 && name != frame) n += value;
  }
  return n;
}

std::uint64_t count_of(const Counts& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

/// Time the directory's conflict queries on `kProbeViews` seeded views.
void probe(const core::DirectoryManager& dm,
           const std::vector<core::ViewId>& ids, sim::Rng& rng,
           ProbeStats& out) {
  Quiet quiet;
  const double registered = static_cast<double>(dm.registered_count());
  for (std::size_t k = 0; k < kProbeViews; ++k) {
    const core::ViewId v = ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
    const auto t0 = WallClock::now();
    const std::vector<core::ViewId> conflicting = dm.conflicting_views(v);
    const auto t1 = WallClock::now();
    (void)dm.quality(v);
    const auto t2 = WallClock::now();
    out.conflicting_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    out.quality_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count());
    ++out.calls;
    if (registered > 0) {
      out.useful_sum += static_cast<double>(conflicting.size()) / registered;
    }
  }
}

// ---- SimFabric workloads ------------------------------------------------------

/// One view's operation, repeated in a closed loop.
enum class Shape {
  /// Figure 4: pull (demand-fetch round), start-use, confirm, end-use.
  kPullUse,
  /// BM_ProtocolTrain: start-use, confirm, end-use, push; every fifth
  /// op is a pull instead.
  kTrain,
  /// STRONG: start-use (acquire + invalidation round), confirm,
  /// end-use, push.
  kStrongPush,
};

struct SimSpec {
  std::size_t views;
  std::size_t group_size;
  core::Mode mode;
  const char* validity;  // "" = no validity trigger
  Shape shape;
  /// Mean of the exponential think time before each op (simulated us).
  double think_mean_us;
  /// All cache managers on one host (their trains to the directory
  /// share a node pair and can be batched).
  bool one_host;
  bool batch;
  std::size_t write_buffer_ops;
  /// Durable directory, CM journals, heartbeats with liveness, and
  /// kDurableLoss message loss.
  bool durable;
  /// Measured ops per round, before the kill wave.
  std::uint64_t ops;
};

class SimRound {
 public:
  SimRound(const SimSpec& spec, const RoundInput& in)
      : spec_(spec),
        in_(in),
        budget_(in.smoke ? std::max<std::uint64_t>(spec.ops / kSmokeDivisor, 1)
                         : spec.ops),
        probe_rng_(stream(in.seed, 1u << 20)) {}

  /// Build, register, init_image and warm up; returns the wall seconds.
  double setup();
  RoundResult run();

 private:
  struct ViewState {
    sim::Rng rng;
    sim::Time op_start = 0;
    sim::Time api_start = 0;
    std::uint64_t step = 0;
  };

  void build();
  void run_sim();
  void next_op(std::size_t i);
  void start_op(std::size_t i);
  void use_and_finish(std::size_t i, const char* kind);
  void push_and_finish(std::size_t i, const char* kind);
  void on_pulled(std::size_t i);
  void finish_op(std::size_t i, const char* kind);
  void check_grant(std::size_t i);
  void confirm(std::size_t i);
  void record(LatencyHist& into, sim::Time since) {
    if (!measuring_) return;
    Quiet quiet;
    ++into[sim_.now() - since];
  }
  void check(bool ok, const std::string& what) {
    if (!ok) r_.failures.push_back(what);
  }

  const SimSpec& spec_;
  RoundInput in_;
  std::uint64_t budget_;
  RoundResult r_;

  // Declaration order is teardown order reversed: cache managers and
  // the directory unbind from fabrics that must still exist.
  sim::Simulator sim_;
  std::unique_ptr<net::SimFabric> fabric_;
  std::unique_ptr<TimedFabric> wire_;
  std::unique_ptr<net::BatchFabric> batch_;
  std::unique_ptr<TimedFabric> timed_;
  net::Fabric* proto_ = nullptr;
  airline::GroupAssignment groups_;
  airline::FlightDatabase db_;
  std::unique_ptr<airline::FlightDatabaseAdapter> adapter_;
  std::unique_ptr<TimedPrimary> timed_primary_;
  std::unique_ptr<core::MemoryDurabilityStore> wal_;
  std::unique_ptr<TimedStore> timed_wal_;
  std::unique_ptr<core::DirectoryManager> dm_;
  std::vector<std::unique_ptr<airline::TravelAgentView>> views_;
  std::vector<std::unique_ptr<TimedView>> timed_views_;
  std::vector<std::unique_ptr<core::MemoryDurabilityStore>> journals_;
  std::vector<std::unique_ptr<TimedStore>> timed_journals_;
  std::vector<std::unique_ptr<core::CacheManager>> cms_;
  std::vector<ViewState> vs_;
  LatencyHist pull_lat_;
  LatencyHist push_lat_;
  LatencyHist acquire_lat_;

  sim::Rng probe_rng_;
  std::vector<core::ViewId> view_ids_;
  bool measuring_ = false;
  bool killing_ = false;
  bool probe_due_ = false;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t warm_done_ = 0;
  std::uint64_t next_checkpoint_ = 0;
  double probe_s_ = 0.0;
  std::uint64_t slice_ops_ = 1;
  WallClock::time_point t_measure_{};
  double slice_start_s_ = 0.0;
};

void SimRound::build() {
  std::vector<net::NodeId> hosts;
  auto topo =
      jittered_lan(spec_.one_host ? 2 : spec_.views + 1, in_.seed, hosts);
  net::SimFabric::Config fc;
  fc.loss_probability = spec_.durable ? kDurableLoss : 0.0;
  fc.seed = in_.seed;
  fabric_ = std::make_unique<net::SimFabric>(sim_, std::move(topo), fc);
  const net::Address dm_addr{hosts.back(), kPort};

  net::Fabric* below = fabric_.get();
  if (spec_.batch) {
    if (in_.traced) {
      wire_ = std::make_unique<TimedFabric>(*fabric_, std::nullopt);
      below = wire_.get();
    }
    batch_ = std::make_unique<net::BatchFabric>(*below,
                                                net::BatchFabric::Config{});
    below = batch_.get();
  }
  if (in_.traced) {
    timed_ = std::make_unique<TimedFabric>(*below, dm_addr);
    below = timed_.get();
  }
  proto_ = below;

  groups_ = airline::assign_flight_groups(spec_.views, spec_.group_size,
                                          kFlightsPerGroup, kFirstFlight);
  db_ = airline::FlightDatabase::uniform(kFirstFlight, groups_.flight_count,
                                         kCapacity);
  adapter_ = std::make_unique<airline::FlightDatabaseAdapter>(db_);
  core::PrimaryAdapter* primary = adapter_.get();
  if (in_.traced) {
    timed_primary_ = std::make_unique<TimedPrimary>(*adapter_);
    primary = timed_primary_.get();
  }

  core::DirectoryManager::Config dc;
  core::RetryPolicy retry;
  retry.seed = in_.seed;
  if (spec_.durable) {
    wal_ = std::make_unique<core::MemoryDurabilityStore>(1);
    dc.durability = wal_.get();
    if (in_.traced) {
      timed_wal_ = std::make_unique<TimedStore>(*wal_, /*dm=*/true);
      dc.durability = timed_wal_.get();
    }
    dc.liveness_timeout = sim::seconds(2);
    // An invalidation round that times out grants anyway (straggler
    // protection), leaving two exclusive holders; enough resends make
    // losing every InvalidateReq or ack of one target negligible at 1%.
    dc.fetch_timeout = sim::msec(200);
    dc.command_retries = 6;
    retry.base_timeout = sim::msec(200);
    retry.max_timeout = sim::msec(1600);
  }
  dm_ = std::make_unique<core::DirectoryManager>(*proto_, dm_addr, *primary,
                                                 dc);

  for (std::size_t i = 0; i < spec_.views; ++i) {
    views_.push_back(
        std::make_unique<airline::TravelAgentView>(groups_.agent_flights[i]));
    core::ViewAdapter* view = views_.back().get();
    if (in_.traced) {
      timed_views_.push_back(std::make_unique<TimedView>(*views_.back()));
      view = timed_views_.back().get();
    }
    core::CacheManager::Config cfg;
    cfg.view_name = "air.TravelAgent";
    cfg.properties = views_.back()->properties();
    cfg.mode = spec_.mode;
    cfg.validity_trigger = spec_.validity;
    cfg.write_buffer_ops = spec_.write_buffer_ops;
    cfg.retry = retry;
    cfg.on_give_up = [this](const char*) { ++r_.give_ups; };
    if (spec_.durable) {
      cfg.heartbeat_interval = sim::msec(100);
      journals_.push_back(std::make_unique<core::MemoryDurabilityStore>(1));
      cfg.journal = journals_.back().get();
      if (in_.traced) {
        timed_journals_.push_back(
            std::make_unique<TimedStore>(*journals_.back(), /*dm=*/false));
        cfg.journal = timed_journals_.back().get();
      }
    }
    const net::Address addr =
        spec_.one_host
            ? net::Address{hosts[0], static_cast<net::PortId>(kPort + i)}
            : net::Address{hosts[i], kPort};
    cms_.push_back(std::make_unique<core::CacheManager>(*proto_, addr, dm_addr,
                                                        *view, std::move(cfg)));
    vs_.emplace_back();
    vs_.back().rng = stream(in_.seed, i + 1);
  }
}

void SimRound::run_sim() {
  for (;;) {
    {
      Scope span(Kind::kSimRun);
      sim_.run();
    }
    if (!probe_due_) return;
    probe_due_ = false;
    const auto t0 = WallClock::now();
    probe(*dm_, view_ids_, probe_rng_, r_.probe);
    probe_s_ += seconds_since(t0);
  }
}

void SimRound::next_op(std::size_t i) {
  if (issued_ >= budget_) return;
  ++issued_;
  ViewState& s = vs_[i];
  const auto think = spec_.think_mean_us > 0
                         ? static_cast<sim::Duration>(
                               s.rng.exponential(spec_.think_mean_us))
                         : 0;
  sim_.schedule_after(think, [this, i] {
    Scope span(Kind::kBench);
    start_op(i);
  });
}

void SimRound::confirm(std::size_t i) {
  const auto& flights = groups_.agent_flights[i];
  views_[i]->confirm_tickets(vs_[i].rng.pick(flights), 1);
  Scope api(Kind::kCmApi);
  cms_[i]->end_use_image(/*modified=*/true);
}

void SimRound::on_pulled(std::size_t i) {
  record(pull_lat_, vs_[i].api_start);
  if (measuring_) {
    ++r_.pulls;
    r_.unseen += cms_[i]->last_pull_unseen();
  }
}

void SimRound::use_and_finish(std::size_t i, const char* kind) {
  Scope api(Kind::kCmApi);
  cms_[i]->start_use_image([this, i, kind] {
    confirm(i);
    finish_op(i, kind);
  });
}

void SimRound::push_and_finish(std::size_t i, const char* kind) {
  vs_[i].api_start = sim_.now();
  if (measuring_) ++r_.pushes_issued;
  Scope api(Kind::kCmApi);
  cms_[i]->push_image([this, i, kind] {
    record(push_lat_, vs_[i].api_start);
    finish_op(i, kind);
  });
}

void SimRound::start_op(std::size_t i) {
  ViewState& s = vs_[i];
  s.op_start = sim_.now();
  s.api_start = s.op_start;
  core::CacheManager& cm = *cms_[i];
  switch (spec_.shape) {
    case Shape::kPullUse: {
      Scope api(Kind::kCmApi);
      cm.pull_image([this, i] {
        on_pulled(i);
        use_and_finish(i, "pull_use");
      });
      break;
    }
    case Shape::kTrain: {
      if (s.step++ % 5 == 4) {
        Scope api(Kind::kCmApi);
        cm.pull_image([this, i] {
          on_pulled(i);
          finish_op(i, "pull");
        });
      } else {
        Scope api(Kind::kCmApi);
        cm.start_use_image([this, i] {
          confirm(i);
          push_and_finish(i, "push");
        });
      }
      break;
    }
    case Shape::kStrongPush: {
      Scope api(Kind::kCmApi);
      cm.start_use_image([this, i] {
        record(acquire_lat_, vs_[i].api_start);
        check_grant(i);
        confirm(i);
        push_and_finish(i, "acquire_push");
      });
      break;
    }
  }
}

void SimRound::check_grant(std::size_t i) {
  const std::size_t group = groups_.agent_group[i];
  std::size_t holders = 0;
  for (std::size_t j = 0; j < cms_.size(); ++j) {
    if (groups_.agent_group[j] == group && dm_->is_exclusive(cms_[j]->id())) {
      ++holders;
    }
  }
  check(holders <= 1, "STRONG exclusivity: view " + std::to_string(i) +
                          " was granted while " + std::to_string(holders) +
                          " views of its group held the token");
  // A grant whose view the directory no longer counts as exclusive was
  // replayed from the dedup window after the view served a later
  // invalidation (README.md, "Known protocol defect").
  if (measuring_ && !dm_->is_exclusive(cms_[i]->id())) ++r_.stale_grants;
}

void SimRound::finish_op(std::size_t i, const char* kind) {
  if (!measuring_) {
    ++warm_done_;
    return;
  }
  record(r_.op_lat, vs_[i].op_start);
  if (in_.log_spans && completed_ < kSpanOps) {
    log_op(OpRecord{completed_, i, kind, vs_[i].op_start, sim_.now()});
  }
  ++completed_;
  if (in_.log_spans && completed_ == kSpanOps) set_logging(false);
  if (killing_) return;
  if (completed_ % slice_ops_ == 0) {
    Quiet quiet;
    const double t = seconds_since(t_measure_) - probe_s_;
    r_.slice_rates.push_back(static_cast<double>(slice_ops_) /
                             (t - slice_start_s_));
    slice_start_s_ = t;
  }
  if (in_.traced && completed_ >= next_checkpoint_) {
    next_checkpoint_ += std::max<std::uint64_t>(budget_ / kProbeCheckpoints, 1);
    probe_due_ = true;
    sim_.stop();
  }
  next_op(i);
}

double SimRound::setup() {
  const auto t_setup = WallClock::now();
  build();
  for (auto& cm : cms_) {
    Scope api(Kind::kCmApi);
    cm->init_image();
  }
  run_sim();
  for (std::size_t i = 0; i < cms_.size(); ++i) {
    check(cms_[i]->registered() && cms_[i]->valid(),
          "view " + std::to_string(i) + " failed to register and init");
    view_ids_.push_back(cms_[i]->id());
  }
  // One warm-up op per view fills pools and counter keys.
  for (std::size_t i = 0; i < cms_.size(); ++i) start_op(i);
  run_sim();
  check(warm_done_ == cms_.size(), "warm-up ops did not all complete");
  for (auto& s : vs_) s.step = 0;
  return seconds_since(t_setup);
}

RoundResult SimRound::run() {
  r_.batched = spec_.batch;
  r_.write_buffer = spec_.write_buffer_ops > 0;
  r_.durable = spec_.durable;
  r_.setup_s = setup();

  // ---- measured phase ----
  (void)collect();  // drop setup spans
  const Counts net0 = snapshot(fabric_->counters());
  const Counts dm0 = snapshot(dm_->stats());
  Counts cm0;
  for (auto& cm : cms_) add_into(cm0, cm->stats());
  const std::uint64_t events0 = sim_.executed_events();
  const std::uint64_t hops0 = fabric_->sent_count();
  next_checkpoint_ = std::max<std::uint64_t>(budget_ / kProbeCheckpoints, 1);
  slice_ops_ = std::max<std::uint64_t>(budget_ / kSlices, 1);
  {
    Quiet quiet;
    r_.slice_rates.reserve(kSlices + 1);
  }
  if (in_.log_spans) set_logging(true);
  const std::uint64_t allocs0 = allocs();
  t_measure_ = WallClock::now();
  measuring_ = true;

  for (std::size_t i = 0; i < cms_.size(); ++i) next_op(i);
  run_sim();
  for (std::size_t i = 0; i < cms_.size(); ++i) {
    check(!cms_[i]->op_in_flight() && cms_[i]->queued_ops() == 0,
          "view " + std::to_string(i) + " left an op incomplete");
  }
  killing_ = true;
  for (std::size_t i = 0; i < cms_.size(); ++i) {
    ++issued_;
    vs_[i].op_start = sim_.now();
    Scope api(Kind::kCmApi);
    cms_[i]->kill_image([this, i] { finish_op(i, "kill"); });
  }
  run_sim();

  r_.measured_s = seconds_since(t_measure_) - probe_s_;
  r_.allocs = allocs() - allocs0;
  set_logging(false);
  r_.spans = collect();
  r_.events = sim_.executed_events() - events0;
  r_.hops = fabric_->sent_count() - hops0;
  r_.net = delta(net0, snapshot(fabric_->counters()));
  r_.dm = delta(dm0, snapshot(dm_->stats()));
  Counts cm1;
  for (auto& cm : cms_) add_into(cm1, cm->stats());
  r_.cm = delta(cm0, cm1);
  r_.msgs = logical_sends(r_.net);
  r_.bytes = count_of(r_.net, "bytes.sent");
  r_.issued = issued_;
  r_.completed = completed_;
  r_.pull_p99 = p99(pull_lat_);
  r_.push_p99 = p99(push_lat_);
  r_.acquire_p99 = p99(acquire_lat_);

  // ---- correctness ----
  check(completed_ == issued_, "issued " + std::to_string(issued_) +
                                   " ops but " + std::to_string(completed_) +
                                   " completed");
  for (std::size_t i = 0; i < cms_.size(); ++i) {
    check(!cms_[i]->alive(), "view " + std::to_string(i) + " survived kill");
  }
  r_.total_reserved = db_.total_reserved();
  std::int64_t sold = 0;
  for (const auto& v : views_) sold += v->net_sold();
  check(r_.total_reserved == sold,
        "lost or doubled update: database holds " +
            std::to_string(r_.total_reserved) + " seats, views sold " +
            std::to_string(sold));
  check(db_.rejected_seats() == 0, "the database refused seats");
  return std::move(r_);
}

// ---- ThreadFabric workload -------------------------------------------------------

/// Measured wall time of one threaded round.
constexpr double kThreadedSliceS = 2.0;
/// Latencies a manager is expected to record in one round (reserved up
/// front so the loop does not grow vectors while timed).
constexpr std::size_t kThreadedSamples = 1 << 20;

/// Blocks until `count` arrivals.
class Latch {
 public:
  explicit Latch(int count) : left_(count) {}
  void arrive() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--left_ == 0) cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return left_ <= 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int left_;
};

/// 1 directory and 2 conflicting WEAK cache managers on rt::ThreadFabric:
/// three mailbox threads plus the fabric's scheduler. Each manager runs
/// its closed loop on its own mailbox thread; the main thread only
/// sleeps through the measured slice and drains.
class ThreadRound {
 public:
  explicit ThreadRound(const RoundInput& in) : in_(in) {}
  /// Build, register, init_image and warm up; returns the wall seconds.
  double setup();
  RoundResult run();

 private:
  static constexpr std::size_t kViews = 2;

  /// Per-manager state, touched only on that manager's mailbox thread
  /// while the loop runs.
  struct Loop {
    sim::Rng rng;
    WallClock::time_point op_start{};
    WallClock::time_point api_start{};
    std::uint64_t step = 0;
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t pulls = 0;
    std::uint64_t unseen = 0;
    std::uint64_t pushes = 0;
    std::vector<double> op_lat;
    std::vector<double> pull_lat;
    std::vector<double> push_lat;
    /// op_lat.size() as the main thread may read it mid-loop.
    std::atomic<std::size_t> published{0};
  };

  void next(std::size_t i);
  void finish(std::size_t i, const char* kind);
  void confirm(std::size_t i);
  static double us_since(WallClock::time_point t0) {
    return std::chrono::duration<double, std::micro>(WallClock::now() - t0)
        .count();
  }
  /// Run `op(done)` on manager i's mailbox thread for every manager and
  /// wait for all completions.
  template <typename Op>
  void on_each_and_wait(Op op) {
    Latch latch(static_cast<int>(kViews));
    for (std::size_t i = 0; i < kViews; ++i) {
      fabric_.post(cms_[i]->address(), [this, i, &latch, &op] {
        Scope span(Kind::kBench);
        op(i, [&latch] { latch.arrive(); });
      });
    }
    latch.wait();
    fabric_.drain();
  }

  RoundInput in_;
  RoundResult r_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> logged_{0};
  std::atomic<std::uint64_t> give_ups_{0};
  Latch stopped_{static_cast<int>(kViews)};
  std::array<Loop, kViews> loops_;

  // Declaration order is teardown order reversed (see SimRound).
  rt::ThreadFabric fabric_;
  std::unique_ptr<TimedFabric> timed_;
  airline::FlightDatabase db_;
  std::unique_ptr<airline::FlightDatabaseAdapter> adapter_;
  std::unique_ptr<TimedPrimary> timed_primary_;
  std::unique_ptr<core::DirectoryManager> dm_;
  std::vector<std::unique_ptr<airline::TravelAgentView>> views_;
  std::vector<std::unique_ptr<TimedView>> timed_views_;
  std::vector<std::unique_ptr<core::CacheManager>> cms_;
};

void ThreadRound::confirm(std::size_t i) {
  views_[i]->confirm_tickets(loops_[i].rng.pick(views_[i]->flights()), 1);
  Scope api(Kind::kCmApi);
  cms_[i]->end_use_image(/*modified=*/true);
}

void ThreadRound::next(std::size_t i) {
  if (stop_.load(std::memory_order_relaxed)) {
    stopped_.arrive();
    return;
  }
  Loop& s = loops_[i];
  ++s.issued;
  s.op_start = WallClock::now();
  s.api_start = s.op_start;
  core::CacheManager& cm = *cms_[i];
  Scope api(Kind::kCmApi);
  if (s.step++ % 4 == 3) {
    cm.pull_image([this, i] {
      Loop& l = loops_[i];
      {
        Quiet quiet;
        l.pull_lat.push_back(us_since(l.api_start));
      }
      ++l.pulls;
      l.unseen += cms_[i]->last_pull_unseen();
      finish(i, "pull");
    });
  } else {
    cm.start_use_image([this, i] {
      confirm(i);
      Loop& l = loops_[i];
      l.api_start = WallClock::now();
      ++l.pushes;
      Scope push(Kind::kCmApi);
      cms_[i]->push_image([this, i] {
        Loop& m = loops_[i];
        {
          Quiet quiet;
          m.push_lat.push_back(us_since(m.api_start));
        }
        finish(i, "push");
      });
    });
  }
}

void ThreadRound::finish(std::size_t i, const char* kind) {
  Loop& s = loops_[i];
  const double lat = us_since(s.op_start);
  {
    Quiet quiet;
    s.op_lat.push_back(lat);
  }
  ++s.completed;
  s.published.store(s.op_lat.size(), std::memory_order_release);
  if (in_.log_spans) {
    const std::uint64_t n = logged_.fetch_add(1, std::memory_order_relaxed);
    if (n < kSpanOps) {
      const auto at = static_cast<std::int64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              s.op_start.time_since_epoch())
              .count());
      log_op(OpRecord{n, i, kind, at, at + static_cast<std::int64_t>(lat)});
    } else if (n == kSpanOps) {
      set_logging(false);
    }
  }
  next(i);
}

double ThreadRound::setup() {
  const auto t_setup = WallClock::now();
  const net::Address dm_addr{0, kPort};
  net::Fabric* proto = &fabric_;
  if (in_.traced) {
    timed_ = std::make_unique<TimedFabric>(fabric_, dm_addr);
    proto = timed_.get();
  }
  const auto groups =
      airline::assign_flight_groups(kViews, kViews, kFlightsPerGroup,
                                    kFirstFlight);
  db_ = airline::FlightDatabase::uniform(kFirstFlight, groups.flight_count,
                                         kCapacity);
  adapter_ = std::make_unique<airline::FlightDatabaseAdapter>(db_);
  core::PrimaryAdapter* primary = adapter_.get();
  if (in_.traced) {
    timed_primary_ = std::make_unique<TimedPrimary>(*adapter_);
    primary = timed_primary_.get();
  }
  // A short merge log: with the default 65,536 records (~0.8 KB each)
  // the peak footprint depended on where, in thread timing, the prune
  // landed, and swung between 45 and 76 MB. push_train and
  // strong_durable keep the default and show the log's memory.
  core::DirectoryManager::Config dc;
  dc.merge_log_cap = 1024;
  dm_ = std::make_unique<core::DirectoryManager>(*proto, dm_addr, *primary,
                                                 dc);
  for (std::size_t i = 0; i < kViews; ++i) {
    views_.push_back(
        std::make_unique<airline::TravelAgentView>(groups.agent_flights[i]));
    core::ViewAdapter* view = views_.back().get();
    if (in_.traced) {
      timed_views_.push_back(std::make_unique<TimedView>(*views_.back()));
      view = timed_views_.back().get();
    }
    core::CacheManager::Config cfg;
    cfg.view_name = "air.TravelAgent";
    cfg.properties = views_.back()->properties();
    cfg.validity_trigger = "false";
    cfg.retry.seed = in_.seed;
    cfg.on_give_up = [this](const char*) {
      give_ups_.fetch_add(1, std::memory_order_relaxed);
    };
    cms_.push_back(std::make_unique<core::CacheManager>(
        *proto, net::Address{static_cast<net::NodeId>(i + 1), kPort},
        dm_addr, *view, std::move(cfg)));
    loops_[i].rng = stream(in_.seed, i + 1);
  }
  on_each_and_wait([this](std::size_t i, std::function<void()> done) {
    Scope api(Kind::kCmApi);
    cms_[i]->init_image(std::move(done));
  });
  // One warm-up op per view.
  on_each_and_wait([this](std::size_t i, std::function<void()> done) {
    Scope api(Kind::kCmApi);
    cms_[i]->start_use_image([this, i, done = std::move(done)] {
      confirm(i);
      Scope push(Kind::kCmApi);
      cms_[i]->push_image(done);
    });
  });
  return seconds_since(t_setup);
}

RoundResult ThreadRound::run() {
  r_.threaded = true;
  r_.setup_s = setup();

  // ---- measured phase ----
  (void)collect();
  const Counts net0 = snapshot(fabric_.counters());
  const Counts dm0 = snapshot(dm_->stats());
  Counts cm0;
  for (auto& cm : cms_) add_into(cm0, cm->stats());
  const double slice =
      in_.smoke ? kThreadedSliceS / kSmokeDivisor : kThreadedSliceS;
  {
    Quiet quiet;
    const std::size_t n = in_.smoke ? kThreadedSamples / kSmokeDivisor
                                    : kThreadedSamples;
    for (Loop& s : loops_) {
      for (auto* v : {&s.op_lat, &s.pull_lat, &s.push_lat}) v->reserve(n);
    }
  }
  if (in_.log_spans) set_logging(true);
  const std::uint64_t allocs0 = allocs();
  const auto t_measure = WallClock::now();
  for (std::size_t i = 0; i < kViews; ++i) {
    fabric_.post(cms_[i]->address(), [this, i] {
      Scope span(Kind::kBench);
      next(i);
    });
  }
  // Window k holds the ops each manager completed between two marks.
  std::vector<std::array<std::size_t, kViews>> marks(kWindows + 1);
  std::vector<double> mark_s(kWindows + 1, 0.0);
  for (std::size_t k = 1; k <= kWindows; ++k) {
    std::this_thread::sleep_until(
        t_measure + std::chrono::duration_cast<WallClock::duration>(
                        std::chrono::duration<double>(
                            slice * static_cast<double>(k) / kWindows)));
    mark_s[k] = seconds_since(t_measure);
    for (std::size_t i = 0; i < kViews; ++i) {
      marks[k][i] = loops_[i].published.load(std::memory_order_acquire);
    }
  }
  stop_.store(true, std::memory_order_relaxed);
  stopped_.wait();
  fabric_.drain();
  const double loop_s = seconds_since(t_measure);
  for (std::size_t k = 1; k <= kWindows; ++k) {
    Quiet quiet;
    std::vector<double> lat;
    for (std::size_t i = 0; i < kViews; ++i) {
      const auto& v = loops_[i].op_lat;
      lat.insert(lat.end(), v.begin() + static_cast<std::ptrdiff_t>(marks[k - 1][i]),
                 v.begin() + static_cast<std::ptrdiff_t>(marks[k][i]));
    }
    if (lat.empty()) continue;
    r_.slice_rates.push_back(static_cast<double>(lat.size()) /
                             (mark_s[k] - mark_s[k - 1]));
    r_.slice_p50.push_back(quantile(lat, 0.5));
    r_.slice_p99.push_back(quantile(lat, 0.99));
    r_.slice_mean.push_back(mean(lat));
  }
  if (in_.traced) {
    sim::Rng rng = stream(in_.seed, 1u << 20);
    std::vector<core::ViewId> ids;
    for (auto& cm : cms_) ids.push_back(cm->id());
    probe(*dm_, ids, rng, r_.probe);
  }
  const auto t_kill = WallClock::now();
  on_each_and_wait([this](std::size_t i, std::function<void()> done) {
    Loop& s = loops_[i];
    ++s.issued;
    s.op_start = WallClock::now();
    Scope api(Kind::kCmApi);
    cms_[i]->kill_image([this, i, done = std::move(done)] {
      Loop& l = loops_[i];
      {
        Quiet quiet;
        l.op_lat.push_back(us_since(l.op_start));
      }
      ++l.completed;
      done();
    });
  });
  r_.measured_s = loop_s + seconds_since(t_kill);
  r_.allocs = allocs() - allocs0;
  set_logging(false);
  r_.spans = collect();
  r_.mailbox_peak = fabric_.peak_mailbox_depth();
  r_.give_ups = give_ups_.load(std::memory_order_relaxed);
  r_.net = delta(net0, snapshot(fabric_.counters()));
  r_.dm = delta(dm0, snapshot(dm_->stats()));
  Counts cm1;
  for (auto& cm : cms_) add_into(cm1, cm->stats());
  r_.cm = delta(cm0, cm1);
  r_.msgs = logical_sends(r_.net);
  r_.hops = count_of(r_.net, "msg.sent");
  r_.bytes = count_of(r_.net, "bytes.sent");
  std::vector<double> pulls, pushes;
  for (Loop& s : loops_) {
    r_.issued += s.issued;
    r_.completed += s.completed;
    r_.pulls += s.pulls;
    r_.unseen += s.unseen;
    r_.pushes_issued += s.pushes;
    Quiet quiet;
    pulls.insert(pulls.end(), s.pull_lat.begin(), s.pull_lat.end());
    pushes.insert(pushes.end(), s.push_lat.begin(), s.push_lat.end());
  }
  r_.pull_p99 = p99(pulls);
  r_.push_p99 = p99(pushes);

  // ---- correctness: conservation after drain ----
  auto check = [this](bool ok, const std::string& what) {
    if (!ok) r_.failures.push_back(what);
  };
  check(r_.completed == r_.issued, "issued " + std::to_string(r_.issued) +
                                       " ops but " +
                                       std::to_string(r_.completed) +
                                       " completed");
  r_.total_reserved = db_.total_reserved();
  std::int64_t sold = 0;
  for (const auto& v : views_) sold += v->net_sold();
  check(r_.total_reserved == sold,
        "lost or doubled update after drain: database holds " +
            std::to_string(r_.total_reserved) + " seats, views sold " +
            std::to_string(sold));
  return std::move(r_);
}

// ---- registry ----------------------------------------------------------------

// Op counts are per round; a run repeats rounds of one seed for its
// --seconds (README.md, "Sizing").
const std::map<std::string, SimSpec>& sim_specs() {
  static const std::map<std::string, SimSpec> specs = {
      {"fig4_fanout",
       {100, 50, core::Mode::kWeak, "false", Shape::kPullUse, 5000.0, false,
        false, 0, false, 10000}},
      {"fleet_2k",
       {2000, 10, core::Mode::kWeak, "false", Shape::kPullUse, 5000.0, false,
        false, 0, false, 3000}},
      {"push_train",
       {8, 8, core::Mode::kWeak, "", Shape::kTrain, 50.0, true, true, 4,
        false, 1000000}},
      {"strong_durable",
       {32, 8, core::Mode::kStrong, "", Shape::kStrongPush, 1000.0, false,
        false, 0, true, 250000}},
  };
  return specs;
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double quantile(const LatencyHist& h, double q) {
  std::uint64_t n = 0;
  for (const auto& [value, count] : h) n += count;
  if (n == 0) return 0.0;
  // The same interpolation as the vector form, between the order
  // statistics at ranks lo and lo + 1.
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::uint64_t>(pos);
  double at_lo = 0.0;
  double at_hi = 0.0;
  std::uint64_t seen = 0;
  bool have_lo = false;
  for (const auto& [value, count] : h) {
    seen += count;
    if (!have_lo && lo < seen) {
      at_lo = static_cast<double>(value);
      have_lo = true;
    }
    if (lo + 1 < seen || seen == n) {
      at_hi = static_cast<double>(value);
      break;
    }
  }
  return at_lo + (at_hi - at_lo) * (pos - static_cast<double>(lo));
}

double mean(const LatencyHist& h) {
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const auto& [value, count] : h) {
    sum += static_cast<double>(value) * static_cast<double>(count);
    n += count;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fig4_fanout", "fleet_2k", "push_train", "strong_durable",
      "threaded_rt"};
  return names;
}

RoundResult run_round(const std::string& workload, const RoundInput& in) {
  const bool threaded = workload == "threaded_rt";
  RoundResult r = threaded ? ThreadRound(in).run()
                           : SimRound(sim_specs().at(workload), in).run();
  r.setup_samples.push_back(r.setup_s);
  if (in.traced) return r;
  // Small deployments set up again until the samples cover
  // kSetupFloorS, so the reported median is not one timer reading.
  double total = r.setup_s;
  while (total < kSetupFloorS && r.setup_samples.size() < kMaxSetupSamples) {
    const double s = threaded
                         ? ThreadRound(in).setup()
                         : SimRound(sim_specs().at(workload), in).setup();
    r.setup_samples.push_back(s);
    total += s;
  }
  return r;
}

}  // namespace flecc::e2e

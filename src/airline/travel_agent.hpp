// A travel agent component: a view of the flight database plus its
// Flecc cache manager, driving the Figure-3 workflow in simulation.
//
//   create cache manager → initImage → { pullImage; startUseImage;
//   confirmTickets; endUseImage } * N → killImage
//
// Because simulation-mode code cannot block, each step is asynchronous
// and loops are expressed with sim::Script-style continuations.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "airline/travel_agent_view.hpp"
#include "core/cache_manager.hpp"
#include "net/fabric.hpp"
#include "sim/stats.hpp"

namespace flecc::airline {

class TravelAgent {
 public:
  /// Component type name: the PSF factory, the static map and every
  /// agent's cache-manager registration use it.
  static constexpr const char* kComponentType = "air.TravelAgent";

  struct Config {
    /// Flights this agent serves (its "Flights" property).
    std::vector<FlightNumber> flights;
    /// Simulated duration of the work inside the use section.
    sim::Duration think_time = 0;
    /// The cache manager's knobs. The agent fills in the view name
    /// (kComponentType) and the data properties of `flights`.
    core::CacheManager::Config cm_cfg;
  };

  using Done = std::function<void()>;

  TravelAgent(net::Fabric& fabric, net::Address self, net::Address directory,
              Config cfg);

  // ---- scripted operations ---------------------------------------------

  /// cm.initImage().
  void init(Done done = {});

  /// One Figure-3 loop body. With `pull_first` (weak mode only) the
  /// agent explicitly pulls before working; in strong mode startUseImage
  /// acquires fresh data regardless. Records latency and fires the op
  /// probe at execution time.
  void reserve_once(FlightNumber flight, std::int64_t seats, bool pull_first,
                    Done done = {});

  /// `iterations` repetitions of reserve_once on `flight`.
  void run_reservation_loop(std::size_t iterations, FlightNumber flight,
                            std::int64_t seats, bool pull_first,
                            Done done = {});

  /// Switch consistency mode at run time (§5.2 "Adaptability").
  void switch_mode(core::Mode m, Done done = {});

  void pull_now(Done done = {});
  void push_now(Done done = {});

  /// cm.killImage().
  void shutdown(Done done = {});

  // ---- accessors / metrics ----------------------------------------------

  [[nodiscard]] TravelAgentView& view() noexcept { return view_; }
  [[nodiscard]] const TravelAgentView& view() const noexcept { return view_; }
  [[nodiscard]] core::CacheManager& cache() noexcept { return cm_; }
  [[nodiscard]] const core::CacheManager& cache() const noexcept {
    return cm_;
  }

  /// Completed reserve_once latencies (simulated microseconds).
  [[nodiscard]] const sim::SampleSet& op_latencies() const noexcept {
    return op_latencies_;
  }
  [[nodiscard]] std::size_t ops_completed() const noexcept {
    return ops_completed_;
  }

  /// Probe invoked at the moment the work executes (after any
  /// revalidation, before confirm_tickets) — benches use it to sample
  /// the directory's data-quality metric per method call.
  void set_op_probe(std::function<void(std::size_t op_index, sim::Time at)> p) {
    op_probe_ = std::move(p);
  }

 private:
  net::Fabric& fabric_;
  Config cfg_;
  TravelAgentView view_;
  core::CacheManager cm_;

  sim::SampleSet op_latencies_;
  std::size_t ops_completed_ = 0;
  std::size_t op_index_ = 0;
  std::function<void(std::size_t, sim::Time)> op_probe_;
};

}  // namespace flecc::airline

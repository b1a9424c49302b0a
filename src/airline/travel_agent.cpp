#include "airline/travel_agent.hpp"

#include <utility>

#include "sim/script.hpp"

namespace flecc::airline {

namespace {
core::CacheManager::Config make_cm_config(core::CacheManager::Config cfg,
                                          const TravelAgentView& view) {
  cfg.view_name = TravelAgent::kComponentType;
  cfg.properties = view.properties();
  return cfg;
}
}  // namespace

TravelAgent::TravelAgent(net::Fabric& fabric, net::Address self,
                         net::Address directory, Config cfg)
    : fabric_(fabric),
      cfg_(std::move(cfg)),
      view_(cfg_.flights),
      cm_(fabric, self, directory, view_,
          make_cm_config(cfg_.cm_cfg, view_)) {}

void TravelAgent::init(Done done) { cm_.init_image(std::move(done)); }

void TravelAgent::reserve_once(FlightNumber flight, std::int64_t seats,
                               bool pull_first, Done done) {
  const sim::Time started = fabric_.now();
  const std::size_t index = op_index_++;

  auto work_phase = [this, flight, seats, started, index,
                     done = std::move(done)]() mutable {
    cm_.start_use_image([this, flight, seats, started, index,
                         done = std::move(done)]() mutable {
      if (op_probe_) op_probe_(index, fabric_.now());
      view_.confirm_tickets(flight, seats);
      auto finish = [this, started, done = std::move(done)] {
        cm_.end_use_image(/*modified=*/true);
        op_latencies_.add(static_cast<double>(fabric_.now() - started));
        ++ops_completed_;
        if (done) done();
      };
      if (cfg_.think_time > 0) {
        fabric_.schedule(cm_.address(), cfg_.think_time, std::move(finish));
      } else {
        finish();
      }
    });
  };

  if (pull_first && cm_.mode() == core::Mode::kWeak) {
    cm_.pull_image(std::move(work_phase));
  } else {
    work_phase();
  }
}

void TravelAgent::run_reservation_loop(std::size_t iterations,
                                       FlightNumber flight,
                                       std::int64_t seats, bool pull_first,
                                       Done done) {
  sim::Script script;
  script.repeat(iterations,
                [this, flight, seats, pull_first](std::size_t, sim::Script::Next next) {
                  reserve_once(flight, seats, pull_first, std::move(next));
                });
  std::move(script).run(std::move(done));
}

void TravelAgent::switch_mode(core::Mode m, Done done) {
  cm_.set_mode(m, std::move(done));
}

void TravelAgent::pull_now(Done done) { cm_.pull_image(std::move(done)); }
void TravelAgent::push_now(Done done) { cm_.push_image(std::move(done)); }

void TravelAgent::shutdown(Done done) { cm_.kill_image(std::move(done)); }

}  // namespace flecc::airline

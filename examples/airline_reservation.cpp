// The paper's Figure 3, transliterated to C++ and actually run.
//
// A travel agent view of the airline reservation system, written as the
// linear sequential program of Figure 3:
//
//   1. create the cache manager (with properties, mode, triggers)
//   2. cm.initImage()
//   3. loop { cm.pullImage(); cm.startUseImage();
//             ars.confirmTickets(1, flight); cm.endUseImage(); }
//   4. cm.killImage()
//
// The linear style needs real threads, so this example runs over
// rt::ThreadFabric: the directory manager, the database, and two agent
// threads execute concurrently, exactly like the paper's Java/RMI
// prototype — with the same protocol code the simulator uses.
//
// Build & run:  ./build/examples/airline_reservation
//
// With `--monitor` the run is traced and the online coherence
// conformance monitor (obs::monitor::InvariantMonitor) checks I1-I4
// live on the concurrent event stream; the example exits non-zero if
// any invariant is violated and prints the monitor's health report.
// With `--serve PORT` a TelemetryServer exposes live /metrics, /healthz
// and /varz while the agents run; here (no simulator) the hub ticks on
// a wall-clock thread sampling locked fabric-counter snapshots.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include "airline/flight_database.hpp"
#include "airline/travel_agent_view.hpp"
#include "core/cache_manager.hpp"
#include "core/directory_manager.hpp"
#include "net/telemetry_server.hpp"
#include "obs/monitor/invariant_monitor.hpp"
#include "obs/telemetry.hpp"
#include "rt/thread_fabric.hpp"

using namespace flecc;

namespace {

/// The travel agent "main" of Figure 3 (one per agent thread).
void travel_agent_main(rt::ThreadFabric& fabric, net::Address self,
                       net::Address directory, airline::FlightNumber flight,
                       int iterations, obs::TraceBuffer* trace) {
  // Lines 7-8: the view's application state.
  airline::TravelAgentView ars({flight});

  // Lines 9-16: create the cache manager with the view's property list,
  // the mode of operation, and the three quality triggers "(t > 1500)".
  core::CacheManager::Config cfg;
  cfg.view_name = "air.TravelAgent";
  cfg.properties = ars.properties();
  cfg.mode = core::Mode::kWeak;
  cfg.push_trigger = "(t > 1500)";
  cfg.pull_trigger = "(t > 1500)";
  cfg.validity_trigger = "(t > 1500)";
  cfg.trace = trace;
  core::CacheManager cm(fabric, self, directory, ars, cfg);

  auto call = [&](auto method) {
    rt::wait_for([&](auto done) {
      fabric.post(self, [&, done = std::move(done)] { method(done); });
    });
  };

  // Line 17: cm.initImage();
  call([&](auto done) { cm.init_image(done); });

  // Lines 18-29: the reservation loops.
  for (int i = 0; i < iterations; ++i) {
    call([&](auto done) { cm.pull_image(done); });      // cm.pullImage()
    call([&](auto done) { cm.start_use_image(done); }); // cm.startUseImage()
    call([&](auto done) {
      ars.confirm_tickets(flight, 1);  // ars.confirmTickets(1, flightNumber)
      cm.end_use_image(true);          // cm.endUseImage()
      done();
    });
  }

  // Line 30: cm.killImage();
  call([&](auto done) { cm.kill_image(done); });

  std::printf("agent %u: confirmed %lld tickets (refused %lld)\n",
              self.node, static_cast<long long>(ars.confirmed_total()),
              static_cast<long long>(ars.refused_total()));
}

}  // namespace

int main(int argc, char** argv) {
  bool monitor = false;
  bool serve = false;
  unsigned serve_port = 0;
  unsigned telemetry_interval_ms = 100;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--monitor") == 0) {
      monitor = true;
    } else if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      serve = true;
      serve_port =
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--telemetry-interval") == 0 &&
               i + 1 < argc) {
      telemetry_interval_ms =
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
      if (telemetry_interval_ms == 0) telemetry_interval_ms = 100;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--monitor] [--serve PORT] "
                   "[--telemetry-interval MS]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("Figure 3: travel agents over the threaded runtime\n\n");

  rt::ThreadFabric fabric;

  // Live telemetry over the threaded runtime: no simulator to drive
  // the sampler, so a wall-clock thread ticks the hub, and the
  // collector reads a locked snapshot of the fabric counters.
  std::unique_ptr<obs::TelemetryHub> hub;
  std::unique_ptr<net::TelemetryServer> server;
  std::thread ticker;
  std::atomic<bool> ticker_stop{false};
  const auto wall_start = std::chrono::steady_clock::now();
  if (serve) {
    obs::TelemetryOptions topts;
    topts.interval = sim::msec(telemetry_interval_ms);
    hub = std::make_unique<obs::TelemetryHub>(topts);
    hub->registry().add_collector([&fabric](obs::SampleFrame& f) {
      f.counters(fabric.counters_snapshot(), "net.");
    });
    server = std::make_unique<net::TelemetryServer>(
        static_cast<std::uint16_t>(serve_port));
    if (!server->listening()) {
      std::fprintf(stderr, "cannot bind telemetry port %u\n", serve_port);
      return 1;
    }
    net::serve_telemetry(*hub, *server);
    server->serve_background();
    std::printf("telemetry: http://127.0.0.1:%u/metrics (also /healthz, "
                "/varz)\n\n",
                server->port());
    ticker = std::thread([&] {
      while (!ticker_stop.load()) {
        const auto us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        hub->tick(static_cast<sim::Time>(us));
        std::this_thread::sleep_for(
            std::chrono::milliseconds(telemetry_interval_ms));
      }
    });
  }

  // Tracing + the online conformance monitor: the agent threads and
  // the directory emit concurrently; the monitor serializes on_event
  // internally. Attach the sink before any endpoint exists (see
  // TraceRecorder::attach_sink for the ordering contract).
  obs::TraceRecorder recorder;
  obs::monitor::InvariantMonitor checker;
  if (monitor) recorder.attach_sink(&checker);
  auto buffer = [&](const char* name) -> obs::TraceBuffer* {
    return monitor ? recorder.make_buffer(name) : nullptr;
  };

  // The original component: the main flight database.
  auto db = airline::FlightDatabase::uniform(/*first=*/100, /*count=*/1,
                                             /*capacity=*/50);
  airline::FlightDatabaseAdapter adapter(db);
  const net::Address dir_addr{99, 1};
  core::DirectoryManager::Config dir_cfg;
  dir_cfg.trace = buffer("dm");
  core::DirectoryManager directory(fabric, dir_addr, adapter, dir_cfg);

  // Two travel agents selling the same flight, concurrently.
  std::thread agent1(travel_agent_main, std::ref(fabric),
                     net::Address{1, 1}, dir_addr, 100, 10, buffer("cm.1"));
  std::thread agent2(travel_agent_main, std::ref(fabric),
                     net::Address{2, 1}, dir_addr, 100, 10, buffer("cm.2"));
  agent1.join();
  agent2.join();
  fabric.drain();

  if (ticker.joinable()) {
    ticker_stop.store(true);
    ticker.join();
    std::printf("\ntelemetry: %llu windows sampled, %llu scrapes served\n",
                static_cast<unsigned long long>(
                    hub->registry().windows_closed()),
                static_cast<unsigned long long>(server->requests_served()));
  }

  std::printf("\nflight 100: %lld/%lld seats reserved at the database\n",
              static_cast<long long>(db.find(100)->reserved),
              static_cast<long long>(db.find(100)->capacity));
  std::printf("protocol messages exchanged: %llu\n",
              static_cast<unsigned long long>(
                  fabric.counters().get("msg.delivered")));
  if (monitor) {
    checker.finalize();
    std::printf("\n%s", checker.health_report().c_str());
    return checker.violations().empty() ? 0 : 1;
  }
  return 0;
}

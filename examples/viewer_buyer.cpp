// Viewers and buyers (paper §5.1): the same travel agent serves clients
// of different capabilities, and "a viewer can become at any point a
// buyer" — the client upgrade switches the agent's consistency level at
// run time while nine other agents keep selling the same flight.
//
// Build & run:  ./build/examples/viewer_buyer
#include <cstdio>

#include "airline/reservation_client.hpp"
#include "airline/testbed.hpp"

using namespace flecc;
using namespace flecc::airline;

int main() {
  std::printf("Viewers and buyers over one shared flight\n\n");

  TestbedOptions opts;
  opts.n_agents = 10;
  opts.group_size = 10;       // everyone sells the same flights
  opts.capacity = 200;
  opts.cm_cfg.validity_trigger = "false";
  opts.dir_cfg.use_rw_semantics = true;  // browsing stays cheap
  FleccTestbed tb(opts);
  tb.init_all_agents();
  const FlightNumber flight = tb.assignment().agent_flights[0][0];

  // Agents 1..9: plain buyers selling continuously.
  for (std::size_t i = 1; i < tb.agent_count(); ++i) {
    tb.agent(i).run_reservation_loop(8, flight, 2, /*pull_first=*/true);
  }

  // Agent 0's client starts as a viewer (5 browses), then upgrades to a
  // buyer (5 strong-mode purchases).
  ReservationClient::Config cfg;
  cfg.kind = ClientKind::kViewer;
  cfg.flight = flight;
  cfg.requests = 10;
  cfg.upgrade_at = 5;
  cfg.seats_per_purchase = 3;
  ReservationClient client(tb.agent(0), cfg);
  client.run();
  tb.run();

  for (std::size_t i = 0; i < tb.agent_count(); ++i) {
    tb.agent(i).shutdown();
  }
  tb.run();

  std::printf("client trajectory: started as %s, %s\n", "viewer",
              client.upgraded() ? "upgraded to buyer mid-session"
                                : "never upgraded");
  std::printf("  browses               : %zu (last observed availability "
              "%lld)\n",
              client.browses(),
              static_cast<long long>(client.last_observed_availability()));
  std::printf("  purchase attempts     : %zu\n", client.purchase_attempts());
  std::printf("  seats bought          : %lld\n",
              static_cast<long long>(client.seats_bought()));
  std::printf("  refused purchases     : %zu\n", client.refused_purchases());

  const auto* f = tb.database().find(flight);
  std::printf("\nflight %lld: %lld/%lld seats reserved; rejected %llu "
              "oversold seats at merge\n",
              static_cast<long long>(flight),
              static_cast<long long>(f->reserved),
              static_cast<long long>(f->capacity),
              static_cast<unsigned long long>(
                  tb.database().rejected_seats()));
  std::printf("protocol messages: %llu\n",
              static_cast<unsigned long long>(tb.fabric().sent_count()));
  return 0;
}

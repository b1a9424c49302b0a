#include "airline/reservation_client.hpp"

#include <gtest/gtest.h>

#include "airline/testbed.hpp"

namespace flecc::airline {
namespace {

struct ClientFixture : ::testing::Test {
  ClientFixture() {
    TestbedOptions opts;
    opts.n_agents = 3;
    opts.group_size = 3;
    opts.capacity = 50;
    opts.cm_cfg.validity_trigger = "false";
    opts.dir_cfg.use_rw_semantics = true;
    tb = std::make_unique<FleccTestbed>(opts);
    tb->init_all_agents();
    flight = tb->assignment().agent_flights[0][0];
  }

  std::unique_ptr<FleccTestbed> tb;
  FlightNumber flight = 0;
};

TEST_F(ClientFixture, ViewerOnlyBrowsesAndBuysNothing) {
  ReservationClient::Config cfg;
  cfg.kind = ClientKind::kViewer;
  cfg.flight = flight;
  cfg.requests = 5;
  ReservationClient viewer(tb->agent(0), cfg);
  bool done = false;
  viewer.run([&] { done = true; });
  tb->run();
  EXPECT_TRUE(done);
  EXPECT_EQ(viewer.browses(), 5u);
  EXPECT_EQ(viewer.purchase_attempts(), 0u);
  EXPECT_EQ(viewer.seats_bought(), 0);
  EXPECT_EQ(viewer.last_observed_availability(), 50);
  EXPECT_EQ(tb->database().total_reserved(), 0);
}

TEST_F(ClientFixture, BuyerPurchasesReachTheDatabase) {
  ReservationClient::Config cfg;
  cfg.kind = ClientKind::kBuyer;
  cfg.flight = flight;
  cfg.requests = 4;
  cfg.seats_per_purchase = 2;
  cfg.buy_in_strong_mode = false;  // weak + fetch-fresh pulls
  ReservationClient buyer(tb->agent(0), cfg);
  buyer.run();
  tb->run();
  tb->agent(0).shutdown();
  tb->run();
  EXPECT_EQ(buyer.purchase_attempts(), 4u);
  EXPECT_EQ(buyer.seats_bought(), 8);
  EXPECT_EQ(buyer.refused_purchases(), 0u);
  EXPECT_EQ(tb->database().find(flight)->reserved, 8);
}

TEST_F(ClientFixture, ViewerUpgradesToBuyerMidRun) {
  ReservationClient::Config cfg;
  cfg.kind = ClientKind::kViewer;
  cfg.flight = flight;
  cfg.requests = 6;
  cfg.upgrade_at = 3;  // 3 browses, then buy
  ReservationClient client(tb->agent(0), cfg);
  bool done = false;
  client.run([&] { done = true; });
  tb->run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(client.upgraded());
  EXPECT_EQ(client.kind(), ClientKind::kBuyer);
  EXPECT_EQ(client.browses(), 3u);
  EXPECT_EQ(client.purchase_attempts(), 3u);
  EXPECT_EQ(client.seats_bought(), 3);
  // The upgrade switched the agent to strong mode at run time.
  EXPECT_EQ(tb->agent(0).cache().mode(), core::Mode::kStrong);
}

TEST_F(ClientFixture, BuyerRefusalsWhenSoldOut) {
  // Another agent sells out the flight first.
  for (int i = 0; i < 50; ++i) {
    tb->agent(1).view().confirm_tickets(flight, 1);
  }
  tb->agent(1).push_now();
  tb->run();

  ReservationClient::Config cfg;
  cfg.kind = ClientKind::kBuyer;
  cfg.flight = flight;
  cfg.requests = 2;
  cfg.buy_in_strong_mode = true;
  ReservationClient buyer(tb->agent(0), cfg);
  buyer.run();
  tb->run();
  // Strong-mode purchases saw the true (sold-out) seat state.
  EXPECT_EQ(buyer.seats_bought(), 0);
  EXPECT_EQ(buyer.refused_purchases(), 2u);
  EXPECT_EQ(tb->database().find(flight)->reserved, 50);
}

TEST_F(ClientFixture, ViewersAreCheaperThanBuyers) {
  // With the read/write-semantics extension on, a browsing client
  // generates strictly fewer messages than a buying client issuing the
  // same number of requests (no demand-fetch rounds, no acquires).
  const auto before_viewer = tb->fabric().sent_count();
  ReservationClient::Config vcfg;
  vcfg.kind = ClientKind::kViewer;
  vcfg.flight = flight;
  vcfg.requests = 5;
  ReservationClient viewer(tb->agent(0), vcfg);
  viewer.run();
  tb->run();
  const auto viewer_msgs = tb->fabric().sent_count() - before_viewer;

  const auto before_buyer = tb->fabric().sent_count();
  ReservationClient::Config bcfg;
  bcfg.kind = ClientKind::kBuyer;
  bcfg.flight = flight;
  bcfg.requests = 5;
  bcfg.buy_in_strong_mode = false;
  ReservationClient buyer(tb->agent(1), bcfg);
  buyer.run();
  tb->run();
  const auto buyer_msgs = tb->fabric().sent_count() - before_buyer;

  EXPECT_LT(viewer_msgs, buyer_msgs);
}

TEST_F(ClientFixture, RunTwiceThrows) {
  ReservationClient::Config cfg;
  cfg.flight = flight;
  cfg.requests = 1;
  ReservationClient client(tb->agent(0), cfg);
  client.run();
  EXPECT_THROW(client.run(), std::logic_error);
  tb->run();
}

TEST(ClientKindTest, Names) {
  EXPECT_STREQ(to_string(ClientKind::kViewer), "viewer");
  EXPECT_STREQ(to_string(ClientKind::kBuyer), "buyer");
}

}  // namespace
}  // namespace flecc::airline

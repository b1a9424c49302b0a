// Directory crash-recovery tests: the in-memory DurabilityStore (flush
// lag, compaction), checkpoint replay + the CM-assisted rebuild round,
// generation fencing of pre-crash traffic, and recovery across an empty
// checkpoint (PROTOCOL.md, "Directory crash-recovery").
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/durability.hpp"
#include "obs/trace.hpp"
#include "test_support.hpp"

namespace flecc::core {
namespace {

using testing::Harness;
using testing::cells;
using testing::inc_key;

// ---- MemoryDurabilityStore ------------------------------------------------

TEST(MemoryDurabilityStoreTest, CrashDropsOnlyTheUnflushedTail) {
  MemoryDurabilityStore store(/*flush_every=*/3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    WalRecord rec;
    rec.kind = WalKind::kOpMerged;
    rec.req = i;
    store.append(rec);
  }
  EXPECT_EQ(store.entry_count(), 5u);
  store.crash();  // appends 4 and 5 were still buffered
  const auto survived = store.load();
  ASSERT_EQ(survived.size(), 3u);
  EXPECT_EQ(survived.back().req, 2u);
}

TEST(MemoryDurabilityStoreTest, GenerationSurvivesDropAll) {
  MemoryDurabilityStore store;
  store.set_generation(4);
  WalRecord rec;
  store.append(rec);
  store.drop_all();
  EXPECT_EQ(store.load().size(), 0u);
  EXPECT_EQ(store.generation(), 4u);  // the superblock outlives the WAL
}

TEST(MemoryDurabilityStoreTest, CompactReplacesTheLog) {
  MemoryDurabilityStore store(/*flush_every=*/10);
  for (int i = 0; i < 7; ++i) store.append(WalRecord{});
  WalRecord snap;
  snap.kind = WalKind::kRegister;
  snap.view = 1;
  store.compact({snap});
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_EQ(store.compactions(), 1u);
  const auto records = store.load();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].view, 1u);
  store.crash();  // a compacted snapshot is durable at once
  EXPECT_EQ(store.load().size(), 1u);
}

// ---- crash-restart recovery ----------------------------------------------

/// Restart the harness directory against the same durability store,
/// simulating the crash (dropping the store's unflushed tail) first.
void restart_directory(Harness& h, MemoryDurabilityStore& store,
                       const DirectoryManager::Config& dcfg) {
  h.directory_.reset();  // unbind + discard all in-memory state
  store.crash();
  h.directory_ = std::make_unique<DirectoryManager>(*h.fabric_, h.dir_addr_,
                                                    h.primary_, dcfg);
}

TEST(DirectoryRecoveryTest, WarmCheckpointRebuildsAndResumesService) {
  MemoryDurabilityStore store;
  DirectoryManager::Config dcfg;
  dcfg.durability = &store;
  Harness h(2, 100, dcfg);
  auto a = h.make_member(0, 9);
  auto b = h.make_member(10, 19);
  a.cm->init_image();
  b.cm->init_image();
  h.run();
  a.view->increment(1, 5);
  a.cm->push_image();
  h.run();
  ASSERT_EQ(h.primary_.cell(1), 5);
  ASSERT_EQ(h.directory_->generation(), 1u);

  restart_directory(h, store, dcfg);
  EXPECT_EQ(h.directory_->generation(), 2u);
  EXPECT_TRUE(h.directory_->rebuilding());
  h.run();  // rebuild probes go out; both CMs re-announce

  EXPECT_FALSE(h.directory_->rebuilding());
  EXPECT_EQ(h.directory_->registered_count(), 2u);
  EXPECT_EQ(h.directory_->stats().get("recovery.restart"), 1u);
  EXPECT_EQ(h.directory_->stats().get("recovery.reannounced"), 2u);
  EXPECT_EQ(h.directory_->stats().get("recovery.completed"), 1u);
  EXPECT_EQ(a.cm->dir_generation(), 2u);
  EXPECT_EQ(b.cm->dir_generation(), 2u);

  // Service resumes under the new generation without re-registering.
  bool pushed = false;
  b.view->increment(12, 3);
  b.cm->push_image([&] { pushed = true; });
  h.run();
  EXPECT_TRUE(pushed);
  EXPECT_EQ(h.primary_.cell(12), 3);
  EXPECT_EQ(h.primary_.cell(1), 5);  // pre-crash merge not repeated
}

TEST(DirectoryRecoveryTest, InFlightOpSurvivesTheRestart) {
  MemoryDurabilityStore store;
  DirectoryManager::Config dcfg;
  dcfg.durability = &store;
  Harness h(1, 100, dcfg);
  CacheManager::Config cfg;
  cfg.retry.base_timeout = sim::msec(50);
  cfg.retry.max_timeout = sim::msec(200);
  cfg.retry.max_attempts = 8;
  auto a = h.make_member(0, 9, cfg);
  a.cm->init_image();
  h.run();

  // The push is in flight when the directory dies: the send reaches a
  // dead endpoint, the retries land in the new incarnation.
  a.view->increment(2, 7);
  bool pushed = false;
  a.cm->push_image([&] { pushed = true; });
  restart_directory(h, store, dcfg);
  h.run();

  EXPECT_TRUE(pushed);
  EXPECT_EQ(h.primary_.cell(2), 7);
  EXPECT_EQ(a.cm->dir_generation(), 2u);
  EXPECT_EQ(a.cm->queued_ops(), 0u);
  EXPECT_FALSE(a.cm->op_in_flight());
}

TEST(DirectoryRecoveryTest, EmptyCheckpointRecoversViaReRegistration) {
  MemoryDurabilityStore store;
  DirectoryManager::Config dcfg;
  dcfg.durability = &store;
  Harness h(2, 100, dcfg);
  CacheManager::Config hb;
  hb.heartbeat_interval = sim::msec(200);
  auto a = h.make_member(0, 9, hb);
  auto b = h.make_member(10, 19, hb);
  a.cm->init_image();
  b.cm->init_image();
  h.run();

  h.directory_.reset();
  store.drop_all();  // checkpoint wiped; only the generation survives
  h.directory_ = std::make_unique<DirectoryManager>(*h.fabric_, h.dir_addr_,
                                                    h.primary_, dcfg);
  // Nobody to probe: recovery completes immediately and the surviving
  // managers reconnect through the fenced-heartbeat path.
  EXPECT_FALSE(h.directory_->rebuilding());
  EXPECT_EQ(h.directory_->stats().get("recovery.completed"), 1u);
  EXPECT_EQ(h.directory_->registered_count(), 0u);
  h.run_until(h.sim_.now() + sim::seconds(2));
  h.run();

  EXPECT_EQ(h.directory_->registered_count(), 2u);
  EXPECT_EQ(h.directory_->generation(), 2u);
  EXPECT_EQ(a.cm->dir_generation(), 2u);
  bool pushed = false;
  a.view->increment(3, 2);
  a.cm->push_image([&] { pushed = true; });
  h.run();
  EXPECT_TRUE(pushed);
  EXPECT_EQ(h.primary_.cell(3), 2);
}

TEST(DirectoryRecoveryTest, SecondCrashRecoversFromCompactedState) {
  MemoryDurabilityStore store;
  DirectoryManager::Config dcfg;
  dcfg.durability = &store;
  dcfg.compact_threshold = 8;  // force compactions during the run
  Harness h(2, 100, dcfg);
  auto a = h.make_member(0, 9);
  auto b = h.make_member(10, 19);
  a.cm->init_image();
  b.cm->init_image();
  h.run();
  for (int i = 0; i < 6; ++i) {
    a.view->increment(i, 1);
    a.cm->push_image();
    b.view->increment(10 + i, 1);
    b.cm->push_image();
  }
  h.run();
  ASSERT_GE(store.compactions(), 1u);

  restart_directory(h, store, dcfg);
  h.run();
  ASSERT_EQ(h.directory_->generation(), 2u);
  ASSERT_EQ(h.directory_->registered_count(), 2u);

  restart_directory(h, store, dcfg);  // crash again, generation 3
  h.run();
  EXPECT_EQ(h.directory_->generation(), 3u);
  EXPECT_EQ(h.directory_->registered_count(), 2u);
  bool pushed = false;
  a.view->increment(0, 1);
  a.cm->push_image([&] { pushed = true; });
  h.run();
  EXPECT_TRUE(pushed);
  EXPECT_EQ(h.primary_.cell(0), 2);
}

TEST(DirectoryRecoveryTest, CompactionKeepsTheRegistrationThatTriggeredIt) {
  MemoryDurabilityStore store;
  DirectoryManager::Config dcfg;
  dcfg.durability = &store;
  dcfg.compact_threshold = 3;  // the third registration compacts the log
  Harness h(3, 100, dcfg);
  auto a = h.make_member(0, 9);
  auto b = h.make_member(10, 19);
  auto c = h.make_member(20, 29);
  h.run();
  ASSERT_EQ(store.compactions(), 1u);
  ASSERT_EQ(h.directory_->registered_count(), 3u);

  restart_directory(h, store, dcfg);
  // Straight from the checkpoint, before any view re-announces.
  EXPECT_EQ(h.directory_->registered_count(), 3u);
  EXPECT_TRUE(h.directory_->known(a.cm->id()));
  EXPECT_TRUE(h.directory_->known(b.cm->id()));
  EXPECT_TRUE(h.directory_->known(c.cm->id()));
}

// ---- generation fencing ---------------------------------------------------

/// Bare endpoint for injecting hand-crafted protocol messages.
struct Stub : net::Endpoint {
  std::vector<msg::RegisterAck> register_acks;
  std::vector<msg::OpNack> nacks;
  std::vector<msg::HeartbeatAck> heartbeat_acks;
  void on_message(const net::Message& m) override {
    if (m.type == msg::kRegisterAck) {
      register_acks.push_back(net::payload_as<msg::RegisterAck>(m));
    } else if (m.type == msg::kOpNack) {
      nacks.push_back(net::payload_as<msg::OpNack>(m));
    } else if (m.type == msg::kHeartbeatAck) {
      heartbeat_acks.push_back(net::payload_as<msg::HeartbeatAck>(m));
    }
  }
};

TEST(GenerationFencingTest, DelayedPreCrashExtractionsAreFenced) {
  MemoryDurabilityStore store;
  DirectoryManager::Config dcfg;
  dcfg.durability = &store;
  obs::TraceBuffer trace(1024);
  dcfg.trace = &trace;
  Harness h(1, 100, dcfg);
  Stub stub;
  const net::Address sa{h.hosts_[0], 1};
  h.fabric_->bind(sa, stub);

  msg::RegisterReq rr;
  rr.view_name = "kv.View";
  rr.properties = cells(0, 9);
  rr.req = 1;
  h.fabric_->send(sa, h.dir_addr_, msg::kRegisterReq, rr, 64);
  h.run();
  ASSERT_EQ(stub.register_acks.size(), 1u);
  const ViewId view = stub.register_acks[0].view;
  ASSERT_EQ(stub.register_acks[0].gen, 1u);
  const std::size_t merges_before = h.primary_.merges();

  restart_directory(h, store, dcfg);
  ASSERT_EQ(h.directory_->generation(), 2u);

  // Two extraction messages "delayed in the network" since before the
  // crash arrive at the new incarnation, still stamped generation 1.
  msg::FetchReply fr;
  fr.view = view;
  fr.token = (1ull << 32) | 1;
  fr.image.set_int(inc_key(5), 100);
  fr.dirty = true;
  fr.gen = 1;
  h.fabric_->send(sa, h.dir_addr_, msg::kFetchReply, fr, 64);

  msg::InvalidateAck ia;
  ia.view = view;
  ia.epoch = (1ull << 32) | 1;
  ia.image.set_int(inc_key(6), 100);
  ia.dirty = true;
  ia.gen = 1;
  h.fabric_->send(sa, h.dir_addr_, msg::kInvalidateAck, ia, 64);
  h.run_until(h.sim_.now() + sim::msec(50));

  // Both were rejected before touching any round or merge state.
  EXPECT_EQ(h.directory_->stats().get("recovery.fenced"), 2u);
  EXPECT_EQ(h.primary_.merges(), merges_before);
  EXPECT_EQ(h.primary_.cell(5), 0);
  EXPECT_EQ(h.primary_.cell(6), 0);
  std::size_t fenced_events = 0;
  for (const auto& e : trace.snapshot()) {
    if (e.kind == obs::EventKind::kMsgFenced) ++fenced_events;
  }
  EXPECT_EQ(fenced_events, 2u);  // feeds recovery.fenced_messages
}

TEST(GenerationFencingTest, StaleHeartbeatIsAnsweredUnknown) {
  MemoryDurabilityStore store;
  DirectoryManager::Config dcfg;
  dcfg.durability = &store;
  Harness h(1, 100, dcfg);
  Stub stub;
  const net::Address sa{h.hosts_[0], 1};
  h.fabric_->bind(sa, stub);

  msg::RegisterReq rr;
  rr.view_name = "kv.View";
  rr.properties = cells(0, 9);
  rr.req = 1;
  h.fabric_->send(sa, h.dir_addr_, msg::kRegisterReq, rr, 64);
  h.run();
  ASSERT_EQ(stub.register_acks.size(), 1u);
  const ViewId view = stub.register_acks[0].view;

  restart_directory(h, store, dcfg);
  ASSERT_EQ(h.directory_->generation(), 2u);

  // A heartbeat from before the crash, still stamped generation 1: the
  // directory fences it and answers known == false so the sender
  // reconnects instead of believing its registration survived.
  msg::Heartbeat hb;
  hb.view = view;
  hb.seq = 1;
  hb.gen = 1;
  h.fabric_->send(sa, h.dir_addr_, msg::kHeartbeat, hb, 64);
  h.run_until(h.sim_.now() + sim::msec(50));

  EXPECT_GE(h.directory_->stats().get("recovery.fenced"), 1u);
  ASSERT_GE(stub.heartbeat_acks.size(), 1u);
  EXPECT_FALSE(stub.heartbeat_acks.back().known);
  EXPECT_EQ(stub.heartbeat_acks.back().gen, 2u);
}

}  // namespace
}  // namespace flecc::core

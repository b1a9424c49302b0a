// Every path of the cache manager's command step (PROTOCOL.md,
// "Idempotent replay"), run once per command kind: a clean and a dirty
// reply, deferral inside a use section, the serving order at
// endUseImage, a newer command while one is deferred, the replay window,
// reconnect, and a migration that waits for a deferred command. Then
// the recovery paths no other suite reaches: journal compaction with a
// push in flight, queued or sealed as a handoff, a destination's
// uninstall, a sealed source that abandons its handoff, and a rebuild
// probe that re-issues only what was in flight. Then the migration
// paths: a move request for a view the manager does not host, a sealed
// source re-quiescing, a resent or refused install, an abort before
// quiescing, and a stray settlement. Last, the guards that only loss or
// a restarted directory reach: the echo window's overflow, the
// generation fence, the exclusivity a served invalidation surrenders,
// and the push trigger's clock.
//
// The directory is a scripted endpoint: it answers the cache manager's
// own requests and otherwise sends only the commands a case asks for,
// so every command, resend and generation bump lands exactly where the
// case needs it.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/durability.hpp"
#include "test_support.hpp"

namespace flecc::core {
namespace {

using testing::Harness;
using testing::KvView;
using testing::cells;
using testing::inc_key;

enum class Kind { kFetch, kInvalidate };

/// The view id the scripted directory assigns.
constexpr ViewId kView = 1;
/// The cell every case writes.
constexpr std::int64_t kCell = 3;

/// A reply the cache manager sent for a command.
struct Reply {
  Kind kind;
  std::uint64_t round;  // fetch token or invalidate epoch
  bool dirty;
  std::int64_t delta;  // the extracted increment of kCell (0 = none)
  std::uint64_t gen;
};

/// A directory played by the test. It takes the harness directory's
/// address, accepts the registration, answers init, pull, acquire and
/// push requests at once, records every reply to a command, every
/// handoff and every rebuild re-announcement, and stamps everything it
/// sends with its current generation. An acked push merges into its
/// database once per request id.
class ScriptedDirectory final : public net::Endpoint {
 public:
  explicit ScriptedDirectory(Harness& h) : h_(h) {
    h_.directory_.reset();
    h_.fabric_->bind(h_.dir_addr_, *this);
  }
  ~ScriptedDirectory() override { h_.fabric_->unbind(h_.dir_addr_); }

  ScriptedDirectory(const ScriptedDirectory&) = delete;
  ScriptedDirectory& operator=(const ScriptedDirectory&) = delete;

  void on_message(const net::Message& m) override {
    cm_ = m.from;
    received_.push_back(m.type);
    if (m.type == msg::kRegisterReq) {
      const auto& req = net::payload_as<msg::RegisterReq>(m);
      send(msg::kRegisterAck, msg::RegisterAck{kView, true, {}, req.req, gen_});
    } else if (m.type == msg::kInitReq) {
      const auto& req = net::payload_as<msg::InitReq>(m);
      send(msg::kInitReply, msg::InitReply{{}, req.req, gen_});
    } else if (m.type == msg::kPullReq) {
      const auto& req = net::payload_as<msg::PullReq>(m);
      send(msg::kPullReply, msg::PullReply{{}, 0, req.req, gen_});
    } else if (m.type == msg::kAcquireReq) {
      const auto& req = net::payload_as<msg::AcquireReq>(m);
      send(msg::kAcquireGrant, msg::AcquireGrant{{}, req.req, gen_});
    } else if (m.type == msg::kPushUpdate) {
      const auto& push = net::payload_as<msg::PushUpdate>(m);
      pushes_.push_back(push);
      if (!ack_pushes) return;
      if (merged_.insert(push.req).second) {
        db_ += push.image.get_int(inc_key(kCell)).value_or(0);
      }
      send(msg::kPushAck, msg::PushAck{pushes_.size(), push.req, gen_});
    } else if (m.type == msg::kHandoffState) {
      handoffs_.push_back(net::payload_as<msg::HandoffState>(m));
    } else if (m.type == msg::kRebuildReply) {
      rebuilds_.push_back(net::payload_as<msg::RebuildReply>(m));
    } else if (m.type == msg::kFetchReply) {
      const auto& r = net::payload_as<msg::FetchReply>(m);
      replies_.push_back(Reply{Kind::kFetch, r.token, r.dirty,
                               r.image.get_int(inc_key(kCell)).value_or(0),
                               r.gen});
    } else if (m.type == msg::kInvalidateAck) {
      const auto& r = net::payload_as<msg::InvalidateAck>(m);
      replies_.push_back(Reply{Kind::kInvalidate, r.epoch, r.dirty,
                               r.image.get_int(inc_key(kCell)).value_or(0),
                               r.gen});
    }
  }

  /// Send the command of `kind` for round `round`.
  void command(Kind kind, std::uint64_t round) {
    if (kind == Kind::kFetch) {
      send(msg::kFetchReq, msg::FetchReq{round, gen_});
    } else {
      send(msg::kInvalidateReq, msg::InvalidateReq{round, gen_});
    }
  }

  /// Open a migration of the view (its destination is never named).
  void move(std::uint64_t epoch) { move_to(cm_, kView, epoch); }

  /// Ask the manager at `to` to quiesce view `view` for migration `epoch`.
  void move_to(const net::Address& to, ViewId view, std::uint64_t epoch) {
    send_to(to, msg::kViewMoveReq, msg::ViewMoveReq{view, epoch, gen_});
  }

  /// Install view `view` over cells [0, 9] at `to` for migration `epoch`.
  void install(const net::Address& to, std::uint64_t epoch,
               ViewId view = kView) {
    msg::ViewMoveInstall inst;
    inst.view = view;
    inst.epoch = epoch;
    inst.view_name = "kv.View";
    inst.properties = cells(0, 9);
    inst.gen = gen_;
    send_to(to, msg::kViewMoveInstall, std::move(inst));
  }

  /// Settle migration `epoch` at `to`.
  void done(const net::Address& to, std::uint64_t epoch, bool aborted) {
    send_to(to, msg::kViewMoveDone,
            msg::ViewMoveDone{kView, epoch, aborted, gen_});
  }

  /// The rebuild probe of a restarted directory.
  void probe() {
    send(msg::kDirectoryRebuild, msg::DirectoryRebuild{kView, gen_});
  }

  /// Stamp everything sent from now on with generation `gen`.
  void set_generation(std::uint64_t gen) { gen_ = gen; }

  [[nodiscard]] const std::vector<Reply>& replies() const { return replies_; }
  [[nodiscard]] const std::vector<msg::PushUpdate>& pushes() const {
    return pushes_;
  }
  [[nodiscard]] const std::vector<msg::HandoffState>& handoffs() const {
    return handoffs_;
  }
  [[nodiscard]] const std::vector<msg::RebuildReply>& rebuilds() const {
    return rebuilds_;
  }
  /// The sum of the merged increments of kCell.
  [[nodiscard]] std::int64_t db() const { return db_; }
  /// Message types received, in arrival order.
  [[nodiscard]] const std::vector<std::string>& received() const {
    return received_;
  }
  /// How many messages of `type` arrived.
  [[nodiscard]] std::size_t received(const std::string& type) const {
    return static_cast<std::size_t>(
        std::count(received_.begin(), received_.end(), type));
  }

  /// Whether pushes are acked and merged; an unacked push is lost.
  bool ack_pushes = true;

 private:
  template <typename T>
  void send(const char* type, T payload) {
    send_to(cm_, type, std::move(payload));
  }
  template <typename T>
  void send_to(const net::Address& to, const char* type, T payload) {
    const std::size_t bytes = msg::wire_size(payload);
    h_.fabric_->send(h_.dir_addr_, to, type, std::move(payload), bytes);
  }

  Harness& h_;
  net::Address cm_{};
  std::uint64_t gen_ = 1;
  std::vector<Reply> replies_;
  std::vector<msg::PushUpdate> pushes_;
  std::vector<msg::HandoffState> handoffs_;
  std::vector<msg::RebuildReply> rebuilds_;
  std::set<std::uint64_t> merged_;
  std::int64_t db_ = 0;
  std::vector<std::string> received_;
};

class CmCommandPathsTest : public ::testing::TestWithParam<Kind> {
 protected:
  CmCommandPathsTest() : h_(1), dir_(h_), m_(h_.make_member(0, 9)) {
    m_.cm->init_image();
    settle();
  }

  [[nodiscard]] Kind kind() const { return GetParam(); }
  [[nodiscard]] CacheManager& cm() { return *m_.cm; }
  [[nodiscard]] std::uint64_t count(const std::string& counter) {
    return m_.cm->stats().get(counter);
  }
  /// The case kind's counter `what` ("fetch.served", ...).
  [[nodiscard]] std::uint64_t kind_count(const std::string& what) {
    return count((kind() == Kind::kFetch ? "fetch." : "invalidate.") + what);
  }

  /// Deliver everything in flight; no retransmission timer fires.
  void settle() { h_.run_until(h_.sim_.now() + sim::msec(5)); }

  /// Enter a use section (re-validating first if the copy is invalid).
  void enter_use() {
    cm().start_use_image();
    settle();
    ASSERT_TRUE(cm().in_use());
  }

  /// Leave the view with an unpushed increment of kCell.
  void write(std::int64_t delta) {
    enter_use();
    m_.view->increment(kCell, delta);
    cm().end_use_image(/*modified=*/true);
    ASSERT_TRUE(cm().dirty());
  }

  void command(std::uint64_t round) {
    dir_.command(kind(), round);
    settle();
  }

  [[nodiscard]] std::vector<std::uint64_t> rounds() const {
    std::vector<std::uint64_t> out;
    for (const auto& r : dir_.replies()) out.push_back(r.round);
    return out;
  }

  Harness h_;
  ScriptedDirectory dir_;
  Harness::Member m_;
};

TEST_P(CmCommandPathsTest, CleanCopyRepliesClean) {
  command(7);
  ASSERT_EQ(dir_.replies().size(), 1u);
  const Reply& r = dir_.replies()[0];
  EXPECT_EQ(r.kind, kind());
  EXPECT_EQ(r.round, 7u);
  EXPECT_FALSE(r.dirty);
  EXPECT_EQ(r.delta, 0);
  EXPECT_EQ(m_.view->extracts(), 0u);
  EXPECT_EQ(kind_count("served"), 1u);
  EXPECT_EQ(count("echo.queued"), 0u);
  // Only an invalidation takes the copy away.
  EXPECT_EQ(cm().valid(), kind() == Kind::kFetch);
}

TEST_P(CmCommandPathsTest, DirtyCopyExtractsOnceAndQueuesAnEcho) {
  write(5);
  command(7);
  ASSERT_EQ(dir_.replies().size(), 1u);
  EXPECT_TRUE(dir_.replies()[0].dirty);
  EXPECT_EQ(dir_.replies()[0].delta, 5);
  EXPECT_EQ(m_.view->extracts(), 1u);
  EXPECT_EQ(count("echo.queued"), 1u);
  EXPECT_EQ(kind_count("served"), 1u);
  EXPECT_FALSE(cm().dirty());

  // The echo rides the next push until the push is acked.
  cm().push_image();
  settle();
  ASSERT_EQ(dir_.pushes().size(), 1u);
  ASSERT_EQ(dir_.pushes()[0].echoes.size(), 1u);
  const msg::DeltaEcho& echo = dir_.pushes()[0].echoes[0];
  EXPECT_EQ(echo.round, 7u);
  EXPECT_EQ(echo.invalidate, kind() == Kind::kInvalidate);
  EXPECT_EQ(echo.image.get_int(inc_key(kCell)), 5);
  EXPECT_EQ(count("echo.confirmed"), 1u);
}

TEST_P(CmCommandPathsTest, CommandInsideAUseSectionIsDeferred) {
  enter_use();
  command(7);
  EXPECT_TRUE(dir_.replies().empty());
  EXPECT_EQ(kind_count("deferred"), 1u);

  command(7);  // the directory's resend
  EXPECT_TRUE(dir_.replies().empty());
  EXPECT_EQ(count("msg.duplicate.dropped"), 1u);
  EXPECT_EQ(kind_count("deferred"), 1u);

  m_.view->increment(kCell, 5);
  cm().end_use_image(/*modified=*/true);
  settle();
  ASSERT_EQ(dir_.replies().size(), 1u);
  EXPECT_EQ(dir_.replies()[0].round, 7u);
  EXPECT_EQ(dir_.replies()[0].delta, 5);
  EXPECT_EQ(kind_count("served"), 1u);
}

TEST_P(CmCommandPathsTest, InvalidationIsServedFirstThenFetchesInArrivalOrder) {
  enter_use();
  if (kind() == Kind::kFetch) {
    dir_.command(Kind::kFetch, 12);
    dir_.command(Kind::kFetch, 11);
    dir_.command(Kind::kInvalidate, 31);
  } else {
    dir_.command(Kind::kInvalidate, 31);
    dir_.command(Kind::kFetch, 12);
    dir_.command(Kind::kFetch, 11);
  }
  settle();
  EXPECT_TRUE(dir_.replies().empty());

  cm().end_use_image(/*modified=*/false);
  settle();
  EXPECT_EQ(rounds(), (std::vector<std::uint64_t>{31, 12, 11}));
  ASSERT_EQ(dir_.replies().size(), 3u);
  EXPECT_EQ(dir_.replies()[0].kind, Kind::kInvalidate);
}

TEST_P(CmCommandPathsTest, NewerCommandWhileDeferred) {
  enter_use();
  command(7);
  command(8);
  EXPECT_EQ(kind_count("deferred"), 2u);
  cm().end_use_image(/*modified=*/false);
  settle();
  // A newer invalidation epoch replaces the deferred one; fetch tokens
  // accumulate.
  EXPECT_EQ(rounds(), kind() == Kind::kFetch
                          ? (std::vector<std::uint64_t>{7, 8})
                          : (std::vector<std::uint64_t>{8}));
}

TEST_P(CmCommandPathsTest, ResendAfterServingReplaysTheSameReply) {
  write(5);
  command(7);
  ASSERT_EQ(dir_.replies().size(), 1u);
  EXPECT_EQ(dir_.replies()[0].gen, 1u);

  dir_.set_generation(2);  // a restarted directory resends the command
  command(7);
  ASSERT_EQ(dir_.replies().size(), 2u);
  const Reply& replay = dir_.replies()[1];
  EXPECT_EQ(replay.round, 7u);
  EXPECT_TRUE(replay.dirty);
  EXPECT_EQ(replay.delta, 5);
  EXPECT_EQ(replay.gen, 2u);
  EXPECT_EQ(m_.view->extracts(), 1u);
  EXPECT_EQ(count("msg.duplicate.replayed"), 1u);
  EXPECT_EQ(kind_count("served"), 1u);
}

TEST_P(CmCommandPathsTest, RoundThatLeftTheWindowIsServedAfresh) {
  const std::uint64_t window = kind() == Kind::kFetch ? 8 : 4;
  for (std::uint64_t round = 1; round <= window + 1; ++round) command(round);
  ASSERT_EQ(kind_count("served"), window + 1);

  command(2);  // the oldest round still in the window
  EXPECT_EQ(count("msg.duplicate.replayed"), 1u);
  EXPECT_EQ(kind_count("served"), window + 1);

  command(1);
  EXPECT_EQ(count("msg.duplicate.replayed"), 1u);
  EXPECT_EQ(kind_count("served"), window + 2);
  EXPECT_EQ(dir_.replies().size(), window + 3);
}

TEST_P(CmCommandPathsTest, ReconnectForgetsDeferralsAndWindowsButKeepsEchoes) {
  write(5);
  command(7);
  ASSERT_EQ(count("echo.queued"), 1u);
  enter_use();
  command(8);
  ASSERT_EQ(kind_count("deferred"), 1u);

  cm().reconnect();
  settle();
  ASSERT_TRUE(cm().registered());
  // The recovery push carries the unconfirmed echo of round 7.
  ASSERT_EQ(dir_.pushes().size(), 1u);
  ASSERT_EQ(dir_.pushes()[0].echoes.size(), 1u);
  EXPECT_EQ(dir_.pushes()[0].echoes[0].round, 7u);

  cm().end_use_image(/*modified=*/false);
  settle();
  EXPECT_EQ(rounds(), (std::vector<std::uint64_t>{7}));  // 8 is forgotten

  command(7);  // no longer in the replay window
  EXPECT_EQ(count("msg.duplicate.replayed"), 0u);
  EXPECT_EQ(kind_count("served"), 2u);
  EXPECT_FALSE(dir_.replies().back().dirty);
}

TEST_P(CmCommandPathsTest, MigrationWaitsForADeferredCommand) {
  enter_use();
  command(7);
  dir_.move(1);
  settle();
  EXPECT_FALSE(cm().sealed());
  const auto& got = dir_.received();
  EXPECT_EQ(std::count(got.begin(), got.end(), msg::kHandoffState), 0);

  cm().end_use_image(/*modified=*/false);
  settle();
  EXPECT_TRUE(cm().sealed());
  const std::string reply =
      kind() == Kind::kFetch ? msg::kFetchReply : msg::kInvalidateAck;
  const auto served = std::find(got.begin(), got.end(), reply);
  const auto handoff = std::find(got.begin(), got.end(), msg::kHandoffState);
  ASSERT_NE(served, got.end());
  ASSERT_NE(handoff, got.end());
  EXPECT_LT(served, handoff);
}

INSTANTIATE_TEST_SUITE_P(Kinds, CmCommandPathsTest,
                         ::testing::Values(Kind::kFetch, Kind::kInvalidate),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           return info.param == Kind::kFetch ? "Fetch"
                                                             : "Invalidate";
                         });

// ---- recovery paths --------------------------------------------------------

class CmRecoveryPathsTest : public ::testing::Test {
 protected:
  CmRecoveryPathsTest() : h_(2), dir_(h_) {}

  /// A registered, initialised member over cells [0, 9].
  Harness::Member member(CacheManager::Config cfg = {}) {
    auto m = h_.make_member(0, 9, std::move(cfg));
    m.cm->init_image();
    settle();
    return m;
  }

  /// Leave `m` with an unpushed increment of kCell.
  void write(Harness::Member& m, std::int64_t delta) {
    m.cm->start_use_image();
    settle();
    m.view->increment(kCell, delta);
    m.cm->end_use_image(/*modified=*/true);
  }

  /// One sale: add 1 to kCell inside a use section, then push it.
  void sell(Harness::Member& m) {
    write(m, 1);
    m.cm->push_image();
    settle();
  }

  /// Acked sales, then a clean push if one record is missing, until
  /// `journal` holds `records` records, none compacted. A sale appends
  /// its intent and its flush, a clean push only its flush.
  void fill(Harness::Member& m, MemoryDurabilityStore& journal,
            std::size_t records, std::int64_t& sales) {
    while (journal.entry_count() + 1 < records) {
      sell(m);
      ++sales;
    }
    if (journal.entry_count() < records) {
      m.cm->push_image();
      settle();
    }
    ASSERT_EQ(journal.entry_count(), records);
    ASSERT_EQ(m.cm->stats().get("journal.compacted"), 0u);
    ASSERT_EQ(dir_.db(), sales);
  }

  /// Crash `m` and restart it on the same address and journal with an
  /// empty view: whatever it re-delivers comes from the journal.
  Harness::Member restart(Harness::Member& m,
                          MemoryDurabilityStore& journal) {
    const net::Address addr = m.cm->address();
    m.cm->halt();
    journal.crash();
    m.cm.reset();
    auto view = std::make_unique<KvView>(0, 9);
    CacheManager::Config cfg;
    cfg.view_name = "kv.View";
    cfg.properties = view->properties();
    cfg.journal = &journal;
    auto cm = std::make_unique<CacheManager>(*h_.fabric_, addr, h_.dir_addr_,
                                             *view, std::move(cfg));
    settle();
    return Harness::Member{std::move(view), std::move(cm)};
  }

  /// Seal `m` for migration `epoch` with kCell += 5 unpushed; returns
  /// the handoff it sent.
  msg::HandoffState seal(Harness::Member& m, std::uint64_t epoch) {
    m.cm->start_use_image();
    settle();
    m.view->increment(kCell, 5);
    m.cm->end_use_image(/*modified=*/true);
    dir_.move(epoch);
    settle();
    EXPECT_TRUE(m.cm->sealed());
    EXPECT_EQ(dir_.handoffs().size(), 1u);
    return dir_.handoffs().empty() ? msg::HandoffState{}
                                   : dir_.handoffs().back();
  }

  /// Every push the directory received re-delivers the handoff: the
  /// same request id and the same delta.
  void expect_repushes(const msg::HandoffState& hs) {
    ASSERT_FALSE(dir_.pushes().empty());
    for (const auto& p : dir_.pushes()) {
      EXPECT_EQ(p.req, hs.req);
      EXPECT_EQ(p.image, hs.delta);
    }
    EXPECT_EQ(dir_.db(), 5);
  }

  void settle() { h_.run_until(h_.sim_.now() + sim::msec(5)); }

  Harness h_;
  ScriptedDirectory dir_;
};

TEST_F(CmRecoveryPathsTest, CompactionKeepsTheIntentOfAPushInFlight) {
  MemoryDurabilityStore journal;
  CacheManager::Config cfg;
  cfg.journal = &journal;
  auto m = member(cfg);
  std::int64_t sales = 0;
  ASSERT_NO_FATAL_FAILURE(fill(m, journal, 255, sales));

  // This sale's push is lost, and its intent is the 256th append: the
  // journal compacts while the push is in flight.
  dir_.ack_pushes = false;
  sell(m);
  ++sales;
  ASSERT_EQ(m.cm->stats().get("journal.compacted"), 1u);
  const std::uint64_t lost = dir_.pushes().back().req;

  dir_.ack_pushes = true;
  const std::size_t before = dir_.pushes().size();
  auto restarted = restart(m, journal);
  EXPECT_EQ(restarted.cm->stats().get("journal.replayed.intent"), 1u);
  ASSERT_EQ(dir_.pushes().size(), before + 1);
  EXPECT_EQ(dir_.pushes().back().req, lost);
  EXPECT_EQ(dir_.db(), sales);
}

TEST_F(CmRecoveryPathsTest, CompactionKeepsTheIntentOfAQueuedPush) {
  MemoryDurabilityStore journal;
  CacheManager::Config cfg;
  cfg.journal = &journal;
  auto m = member(cfg);
  std::int64_t sales = 0;
  ASSERT_NO_FATAL_FAILURE(fill(m, journal, 254, sales));

  // This sale's push is lost. A reconnect parks it back on the queue,
  // and the new registration's records compact the journal while it
  // waits there.
  dir_.ack_pushes = false;
  sell(m);
  ++sales;
  const std::uint64_t lost = dir_.pushes().back().req;
  ASSERT_EQ(m.cm->stats().get("journal.compacted"), 0u);
  m.cm->reconnect();
  settle();
  ASSERT_EQ(m.cm->stats().get("journal.compacted"), 1u);

  dir_.ack_pushes = true;
  const std::size_t before = dir_.pushes().size();
  auto restarted = restart(m, journal);
  EXPECT_EQ(restarted.cm->stats().get("journal.replayed.intent"), 1u);
  ASSERT_EQ(dir_.pushes().size(), before + 1);
  EXPECT_EQ(dir_.pushes().back().req, lost);
  EXPECT_EQ(dir_.db(), sales);
}

TEST_F(CmRecoveryPathsTest, CompactionKeepsTheIntentOfASealedHandoff) {
  MemoryDurabilityStore journal;
  CacheManager::Config cfg;
  cfg.journal = &journal;
  auto m = member(cfg);
  std::int64_t sales = 0;
  ASSERT_NO_FATAL_FAILURE(fill(m, journal, 254, sales));

  // Sealing appends the buffered write set, then the handoff's intent as
  // the 256th append: the journal compacts while the source is sealed.
  const msg::HandoffState hs = seal(m, /*epoch=*/7);
  ASSERT_EQ(m.cm->stats().get("journal.compacted"), 1u);

  // The sealed source crashes; its restart re-pushes the handoff once,
  // under the handoff's request id.
  const std::size_t before = dir_.pushes().size();
  auto restarted = restart(m, journal);
  EXPECT_EQ(restarted.cm->stats().get("journal.replayed.intent"), 1u);
  ASSERT_EQ(dir_.pushes().size(), before + 1);
  EXPECT_EQ(dir_.pushes().back().req, hs.req);
  EXPECT_EQ(dir_.db(), sales + 5);
}

TEST_F(CmRecoveryPathsTest, AbortedMoveUninstallsAnInstalledDestination) {
  CacheManager::Config cfg;
  cfg.await_migration = true;
  auto dest = h_.make_member(0, 9, cfg);
  constexpr std::uint64_t kEpoch = 5;
  dir_.install(dest.cm->address(), kEpoch);
  settle();
  ASSERT_EQ(dest.cm->id(), kView);
  ASSERT_TRUE(dest.cm->registered());
  ASSERT_EQ(dest.cm->stats().get("migrate.installed"), 1u);

  // The directory never saw the ViewMoveAck and aborts the move.
  dir_.done(dest.cm->address(), kEpoch, /*aborted=*/true);
  settle();
  EXPECT_EQ(dest.cm->stats().get("migrate.uninstalled"), 1u);
  EXPECT_EQ(dest.cm->id(), kInvalidViewId);
  EXPECT_FALSE(dest.cm->registered());
  EXPECT_FALSE(dest.cm->valid());

  // It stops serving: an operation no longer reaches the directory.
  const std::size_t before = dir_.received().size();
  dest.cm->pull_image();
  settle();
  EXPECT_EQ(dir_.received().size(), before);
}

TEST_F(CmRecoveryPathsTest, RestartedDirectoryMakesASealedSourceAbandon) {
  auto m = member();
  const msg::HandoffState hs = seal(m, /*epoch=*/7);
  ASSERT_TRUE(hs.dirty);
  ASSERT_TRUE(dir_.pushes().empty());

  // The restarted directory forgot the migration and probes the view.
  dir_.set_generation(2);
  dir_.probe();
  settle();
  EXPECT_EQ(m.cm->stats().get("migrate.abandoned.rebuild"), 1u);
  EXPECT_FALSE(m.cm->sealed());
  expect_repushes(hs);
}

TEST_F(CmRecoveryPathsTest, SealedSourceAbandonsWhenHandoffRetriesRunOut) {
  auto m = member();
  const msg::HandoffState hs = seal(m, /*epoch=*/7);
  ASSERT_TRUE(hs.dirty);

  // No ViewMoveDone ever comes: every attempt's timeout lapses.
  h_.run_until(h_.sim_.now() + sim::seconds(60));
  EXPECT_EQ(dir_.handoffs().size(), CacheManager::Config{}.retry.max_attempts);
  EXPECT_EQ(m.cm->stats().get("migrate.handoff.abandoned"), 1u);
  EXPECT_FALSE(m.cm->sealed());
  expect_repushes(hs);
}

TEST_F(CmRecoveryPathsTest, RebuildProbeReissuesOnlyAnOpInFlightBeforeIt) {
  auto m = member();
  const msg::HandoffState hs = seal(m, /*epoch=*/7);

  // The abandoned handoff goes out once, as the push it becomes.
  dir_.set_generation(2);
  dir_.probe();
  settle();
  ASSERT_EQ(dir_.pushes().size(), 1u);
  EXPECT_EQ(dir_.pushes()[0].req, hs.req);
  EXPECT_EQ(m.cm->stats().get("op.reissued.rebuild"), 0u);
  EXPECT_EQ(dir_.db(), 5);

  // A push already in flight is re-issued at once under the new
  // generation, with its request id.
  dir_.ack_pushes = false;
  sell(m);
  ASSERT_EQ(dir_.pushes().size(), 2u);
  dir_.set_generation(3);
  dir_.probe();
  settle();
  ASSERT_EQ(dir_.pushes().size(), 3u);
  EXPECT_EQ(dir_.pushes()[2].req, dir_.pushes()[1].req);
  EXPECT_EQ(dir_.pushes()[2].gen, 3u);
  EXPECT_EQ(m.cm->stats().get("op.reissued.rebuild"), 1u);
}

// ---- migration paths -------------------------------------------------------

using CmMigrationPathsTest = CmRecoveryPathsTest;

TEST_F(CmMigrationPathsTest, MoveRequestForAViewNotHostedHereIsIgnored) {
  auto m = member();
  CacheManager::Config idle_cfg;
  idle_cfg.await_migration = true;
  auto idle = h_.make_member(0, 9, idle_cfg);
  dir_.move_to(m.cm->address(), kView + 1, /*epoch=*/7);
  dir_.move_to(idle.cm->address(), kView, /*epoch=*/8);
  settle();
  for (const auto* cm : {m.cm.get(), idle.cm.get()}) {
    EXPECT_EQ(cm->stats().get("migrate.req.ignored"), 1u);
    EXPECT_EQ(cm->stats().get("migrate.quiesce"), 0u);
    EXPECT_FALSE(cm->sealed());
  }
  EXPECT_TRUE(dir_.handoffs().empty());
}

TEST_F(CmMigrationPathsTest, SealedSourceRequiescesUnderANewEpoch) {
  auto m = member();
  const msg::HandoffState first = seal(m, /*epoch=*/7);
  dir_.move(7);  // the same attempt's request, resent
  settle();
  dir_.move(9);  // a fresh attempt for the same view
  settle();
  EXPECT_EQ(m.cm->stats().get("msg.duplicate.dropped"), 1u);
  EXPECT_EQ(m.cm->stats().get("migrate.requiesced"), 1u);
  ASSERT_EQ(dir_.handoffs().size(), 3u);
  EXPECT_EQ(dir_.handoffs()[1].epoch, 7u);
  // The same sealed extraction travels under the new epoch.
  const msg::HandoffState& again = dir_.handoffs()[2];
  EXPECT_EQ(again.epoch, 9u);
  EXPECT_EQ(again.req, first.req);
  EXPECT_TRUE(again.dirty);
  EXPECT_EQ(again.delta, first.delta);
  EXPECT_EQ(m.view->extracts(), 1u);

  // The old attempt's outcome no longer settles it; the new one does.
  dir_.done(m.cm->address(), 7, /*aborted=*/false);
  settle();
  EXPECT_TRUE(m.cm->sealed());
  dir_.done(m.cm->address(), 9, /*aborted=*/false);
  settle();
  EXPECT_TRUE(m.cm->moved());
  EXPECT_FALSE(m.cm->sealed());
}

TEST_F(CmMigrationPathsTest, ResentInstallReplaysTheAckAndAdoptsOnce) {
  CacheManager::Config cfg;
  cfg.await_migration = true;
  auto dest = h_.make_member(0, 9, cfg);
  dir_.install(dest.cm->address(), /*epoch=*/5);
  settle();
  dir_.install(dest.cm->address(), /*epoch=*/5);  // the first ack was lost
  settle();
  EXPECT_EQ(dir_.received(msg::kViewMoveAck), 2u);
  EXPECT_EQ(dest.cm->stats().get("msg.duplicate.replayed"), 1u);
  EXPECT_EQ(dest.cm->stats().get("migrate.installed"), 1u);
  EXPECT_EQ(dest.view->merges(), 1u);
  EXPECT_EQ(dest.cm->id(), kView);
}

TEST_F(CmMigrationPathsTest, DestinationHostingAnotherViewRefusesTheInstall) {
  auto m = member();
  const std::size_t merges = m.view->merges();
  dir_.install(m.cm->address(), /*epoch=*/5, kView + 1);
  settle();
  EXPECT_EQ(m.cm->stats().get("migrate.install.refused"), 1u);
  EXPECT_EQ(m.cm->stats().get("migrate.installed"), 0u);
  EXPECT_EQ(dir_.received(msg::kViewMoveAck), 0u);
  EXPECT_EQ(m.cm->id(), kView);
  EXPECT_EQ(m.view->merges(), merges);
}

TEST_F(CmMigrationPathsTest, AbortBeforeQuiescingStandsTheMoveDown) {
  auto m = member();
  m.cm->start_use_image();
  settle();
  dir_.move(7);
  settle();
  dir_.move(7);  // resent while the use section still runs
  settle();
  ASSERT_FALSE(m.cm->sealed());
  EXPECT_EQ(m.cm->stats().get("migrate.quiesce"), 1u);
  EXPECT_EQ(m.cm->stats().get("msg.duplicate.dropped"), 1u);
  dir_.done(m.cm->address(), 7, /*aborted=*/true);
  settle();
  EXPECT_EQ(m.cm->stats().get("migrate.aborted.src"), 1u);

  // Leaving the use section no longer seals: the request was withdrawn.
  m.cm->end_use_image(/*modified=*/true);
  settle();
  EXPECT_FALSE(m.cm->sealed());
  EXPECT_TRUE(dir_.handoffs().empty());
  m.cm->push_image();
  settle();
  EXPECT_EQ(dir_.pushes().size(), 1u);
}

TEST_F(CmMigrationPathsTest, StrayMoveDoneIsDropped) {
  auto m = member();
  dir_.done(m.cm->address(), 3, /*aborted=*/false);  // never requested
  settle();
  EXPECT_EQ(m.cm->stats().get("msg.duplicate.dropped"), 1u);
  EXPECT_TRUE(m.cm->registered());
  EXPECT_FALSE(m.cm->moved());
  m.cm->push_image();
  settle();
  EXPECT_EQ(dir_.pushes().size(), 1u);
}

// ---- guards only loss or a restart reaches ----------------------------------

using CmLossGuardsTest = CmRecoveryPathsTest;

TEST_F(CmLossGuardsTest, EchoWindowOverflowDropsTheOldestEcho) {
  auto m = member();
  // 33 dirty fetches served and no push acked in between: the window
  // keeps the newest 32 echoes.
  for (std::uint64_t round = 1; round <= 33; ++round) {
    write(m, 1);
    dir_.command(Kind::kFetch, round);
    settle();
  }
  EXPECT_EQ(m.cm->stats().get("echo.queued"), 33u);
  EXPECT_EQ(m.cm->stats().get("echo.dropped"), 1u);

  m.cm->push_image();
  settle();
  ASSERT_EQ(dir_.pushes().size(), 1u);
  const auto& echoes = dir_.pushes()[0].echoes;
  ASSERT_EQ(echoes.size(), 32u);
  for (std::size_t i = 0; i < echoes.size(); ++i) {
    EXPECT_EQ(echoes[i].round, i + 2);
  }
}

TEST_F(CmLossGuardsTest, CommandFromACrashedIncarnationIsFenced) {
  auto m = member();
  dir_.set_generation(2);  // the manager learns of a restart
  m.cm->pull_image();
  settle();
  write(m, 5);

  dir_.set_generation(1);  // a command the old incarnation sent
  dir_.command(Kind::kFetch, 7);
  settle();
  EXPECT_EQ(m.cm->stats().get("recovery.fenced"), 1u);
  EXPECT_EQ(m.view->extracts(), 0u);
  EXPECT_TRUE(dir_.replies().empty());
  EXPECT_TRUE(m.cm->dirty());
}

TEST_F(CmLossGuardsTest, ServedInvalidationIsReannouncedAsNotExclusive) {
  CacheManager::Config cfg;
  cfg.mode = Mode::kStrong;
  auto m = member(cfg);
  m.cm->start_use_image();  // acquires
  settle();
  ASSERT_TRUE(m.cm->exclusive());
  m.cm->end_use_image(/*modified=*/false);
  dir_.command(Kind::kInvalidate, 9);
  settle();
  ASSERT_EQ(dir_.replies().size(), 1u);

  // A restarted directory rebuilds from the re-announcement: the view
  // it invalidated is neither active nor exclusive.
  dir_.set_generation(2);
  dir_.probe();
  settle();
  ASSERT_EQ(dir_.rebuilds().size(), 1u);
  EXPECT_FALSE(dir_.rebuilds()[0].active);
  EXPECT_FALSE(dir_.rebuilds()[0].exclusive);
}

TEST_F(CmLossGuardsTest, PushTriggerCountsFromThePreviousPushAck) {
  CacheManager::Config cfg;
  cfg.push_trigger = "(t > 1500)";
  auto m = member(cfg);
  write(m, 1);
  h_.run_until(sim::seconds(2));  // 1.5 s after start: the trigger pushes
  ASSERT_EQ(dir_.pushes().size(), 1u);
  ASSERT_FALSE(m.cm->dirty());

  write(m, 1);
  h_.run_until(h_.sim_.now() + sim::seconds(1));
  EXPECT_EQ(dir_.pushes().size(), 1u);  // not 1.5 s since the ack yet
  h_.run_until(h_.sim_.now() + sim::seconds(1));
  EXPECT_EQ(dir_.pushes().size(), 2u);
  EXPECT_EQ(dir_.db(), 2);
}

}  // namespace
}  // namespace flecc::core

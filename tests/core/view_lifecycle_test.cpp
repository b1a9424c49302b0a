// Every step of a view's life at the directory that no other suite
// drives to its edge: registration rejections and journal resumes (and
// that a resume leaves earlier merges under their old properties), the
// post-restart rebuild round and the checkpoint replay before it, the
// settle paths of a live migration and the two guards that keep STRONG
// arbitration and fetch rounds away from a sealed view, the merged-op
// markers that absorb a re-issued dirty request, and both bounded
// windows (migration outcomes and merged ops) at their cap.
//
// Every cache manager here is a scripted peer that sends only what the
// case asks for, so each message lands exactly where the case needs it.
// Every message is unfenced (gen 0), so it passes the generation check
// of any directory incarnation.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/durability.hpp"
#include "test_support.hpp"

namespace flecc::core {
namespace {

using testing::Harness;
using testing::cells;
using testing::inc_key;

/// The cell every scripted extraction increments.
constexpr std::int64_t kCell = 3;

ObjectImage delta_image(std::int64_t delta) {
  ObjectImage img;
  if (delta != 0) img.set_int(inc_key(kCell), delta);
  return img;
}

/// A cache manager played by the test, bound at any address. It records
/// what the directory sends it and, when `answer_probes` is set,
/// re-announces itself to a rebuild probe with its registration data.
class Peer final : public net::Endpoint {
 public:
  Peer(Harness& h, net::Address addr) : h_(h), addr_(addr) {
    h_.fabric_->bind(addr_, *this);
  }
  ~Peer() override { h_.fabric_->unbind(addr_); }

  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  void on_message(const net::Message& m) override {
    ++received_[m.type];
    if (m.type == msg::kRegisterAck) {
      ack_ = net::payload_as<msg::RegisterAck>(m);
      if (ack_->accepted) id_ = ack_->view;
    } else if (m.type == msg::kFetchReq) {
      tokens_.push_back(net::payload_as<msg::FetchReq>(m).token);
    } else if (m.type == msg::kInvalidateReq) {
      invalidations_.push_back(net::payload_as<msg::InvalidateReq>(m).epoch);
    } else if (m.type == msg::kViewMoveReq) {
      epochs_.push_back(net::payload_as<msg::ViewMoveReq>(m).epoch);
    } else if (m.type == msg::kViewMoveInstall) {
      epochs_.push_back(net::payload_as<msg::ViewMoveInstall>(m).epoch);
    } else if (m.type == msg::kViewMoveDone) {
      dones_.push_back(net::payload_as<msg::ViewMoveDone>(m));
    } else if (m.type == msg::kDirectoryRebuild && answer_probes) {
      reannounce();
    }
  }

  /// RegisterReq over cells [0, 9]; `resume` and `incarnation` make it
  /// a journal-replaying resume of an earlier view.
  void register_view(std::string name = "kv.View",
                     props::PropertySet properties = cells(0, 9),
                     std::string validity = {},
                     ViewId resume = kInvalidViewId,
                     std::uint64_t incarnation = 1) {
    msg::RegisterReq reg;
    reg.view_name = std::move(name);
    reg.properties = std::move(properties);
    reg.validity_trigger = std::move(validity);
    validity_ = reg.validity_trigger;
    reg.resume_view = resume;
    reg.incarnation = incarnation;
    reg.req = next_req_++;
    send(msg::kRegisterReq, std::move(reg));
  }

  void init() { send(msg::kInitReq, msg::InitReq{id_, next_req_++}); }

  /// A pull: opens a fetch round when the validity trigger fails.
  void pull() {
    send(msg::kPullReq,
         msg::PullReq{id_, AccessIntent::kReadWrite, next_req_++});
  }

  /// A STRONG acquire: opens an invalidation round over the active
  /// conflicting views.
  void acquire() {
    send(msg::kAcquireReq,
         msg::AcquireReq{id_, AccessIntent::kReadWrite, next_req_++});
  }

  void switch_mode(Mode mode) {
    send(msg::kModeChangeReq, msg::ModeChangeReq{id_, mode, next_req_++});
  }

  /// A clean answer to FetchReq `token`.
  void fetch_reply(std::uint64_t token) {
    send(msg::kFetchReply, msg::FetchReply{id_, token, {}, false, 0});
  }

  /// A clean answer to InvalidateReq `epoch`, for view `view` (the one
  /// this peer serves, which it may host after a migration).
  void invalidate_ack(ViewId view, std::uint64_t epoch) {
    send(msg::kInvalidateAck, msg::InvalidateAck{view, epoch, {}, false, 0});
  }

  /// A framed dirty push adding `delta` to kCell; returns its request id.
  std::uint64_t push(std::int64_t delta, std::uint64_t req = 0) {
    msg::PushUpdate p;
    p.view = id_;
    p.image = delta_image(delta);
    p.req = req != 0 ? req : next_req_++;
    send(msg::kPushUpdate, p);
    return p.req;
  }

  /// A framed dirty kill adding `delta` to kCell.
  void kill(std::int64_t delta, std::uint64_t req) {
    msg::KillReq k;
    k.view = id_;
    k.final_image = delta_image(delta);
    k.dirty = delta != 0;
    k.req = req;
    send(msg::kKillReq, std::move(k));
  }

  /// RebuildReply for view `view` (default: this peer's), carrying
  /// `echoes`.
  void reannounce(std::vector<msg::DeltaEcho> echoes = {},
                  ViewId view = kInvalidViewId) {
    msg::RebuildReply rep;
    rep.view = view != kInvalidViewId ? view : id_;
    rep.view_name = "kv.View";
    rep.properties = cells(0, 9);
    rep.validity_trigger = validity_;
    rep.active = true;
    rep.echoes = std::move(echoes);
    send(msg::kRebuildReply, std::move(rep));
  }

  /// HandoffState for migration `epoch` of this peer's view, with a
  /// write-buffer delta adding `delta` to kCell under request id `req`.
  void handoff(std::uint64_t epoch, std::int64_t delta = 0,
               std::uint64_t req = 0) {
    msg::HandoffState hs;
    hs.view = id_;
    hs.epoch = epoch;
    hs.dirty = delta != 0;
    hs.delta = delta_image(delta);
    hs.req = req != 0 ? req : next_req_++;
    send(msg::kHandoffState, std::move(hs));
  }

  void move_ack(ViewId view, std::uint64_t epoch) {
    send(msg::kViewMoveAck, msg::ViewMoveAck{view, epoch, 0});
  }

  template <typename T>
  void send(const char* type, T payload) {
    const std::size_t bytes = msg::wire_size(payload);
    h_.fabric_->send(addr_, h_.dir_addr_, type, std::move(payload), bytes);
  }

  [[nodiscard]] std::size_t received(const std::string& type) const {
    auto it = received_.find(type);
    return it == received_.end() ? 0 : it->second;
  }

  bool answer_probes = true;

  [[nodiscard]] net::Address address() const noexcept { return addr_; }
  [[nodiscard]] ViewId id() const noexcept { return id_; }
  /// The last RegisterAck.
  [[nodiscard]] const std::optional<msg::RegisterAck>& ack() const {
    return ack_;
  }
  /// Fetch tokens of the FetchReqs received, in arrival order.
  [[nodiscard]] const std::vector<std::uint64_t>& tokens() const {
    return tokens_;
  }
  /// Epochs of the InvalidateReqs received, in arrival order.
  [[nodiscard]] const std::vector<std::uint64_t>& invalidations() const {
    return invalidations_;
  }
  /// Migration epochs of the ViewMoveReqs and ViewMoveInstalls received.
  [[nodiscard]] const std::vector<std::uint64_t>& epochs() const {
    return epochs_;
  }
  [[nodiscard]] const std::vector<msg::ViewMoveDone>& dones() const {
    return dones_;
  }

 private:
  Harness& h_;
  net::Address addr_;
  std::string validity_;
  ViewId id_ = kInvalidViewId;
  std::uint64_t next_req_ = 1;
  std::optional<msg::RegisterAck> ack_;
  std::vector<std::uint64_t> tokens_;
  std::vector<std::uint64_t> invalidations_;
  std::vector<std::uint64_t> epochs_;
  std::vector<msg::ViewMoveDone> dones_;
  std::map<std::string, std::size_t> received_;
};

class ViewLifecycleTest : public ::testing::Test {
 protected:
  /// A directory over 100 cells, with `store` as its WAL if given.
  void start(MemoryDurabilityStore* store = nullptr) {
    dcfg_.durability = store;
    h_ = std::make_unique<Harness>(3, 100, dcfg_);
  }

  /// A peer on host `host` at `port`, registered (and initialised) over
  /// cells [0, 9] unless `register_it` is false.
  Peer& peer(std::size_t host, std::uint32_t port = 1,
             bool register_it = true, std::string validity = {}) {
    peers_.push_back(std::make_unique<Peer>(
        *h_, net::Address{h_->hosts_.at(host), port}));
    Peer& p = *peers_.back();
    if (register_it) {
      p.register_view("kv.View", cells(0, 9), std::move(validity));
      settle();
      p.init();
      settle();
    }
    return p;
  }

  /// Deliver everything in flight; no timer of the directory fires.
  void settle() { h_->run_until(h_->sim_.now() + sim::msec(5)); }
  void advance(sim::Duration d) { h_->run_until(h_->sim_.now() + d); }

  /// Crash the directory (the store keeps what it flushed) and restart
  /// it from the checkpoint.
  void restart(MemoryDurabilityStore& store) {
    h_->directory_.reset();
    store.crash();
    h_->directory_ = std::make_unique<DirectoryManager>(
        *h_->fabric_, h_->dir_addr_, h_->primary_, dcfg_);
  }

  DirectoryManager& dir() { return *h_->directory_; }
  [[nodiscard]] std::uint64_t dm(const std::string& counter) const {
    return h_->directory_->stats().get(counter);
  }
  [[nodiscard]] std::int64_t total() const { return h_->primary_.total(); }

  DirectoryManager::Config dcfg_;
  std::unique_ptr<Harness> h_;
  std::vector<std::unique_ptr<Peer>> peers_;
};

// ---- registration ---------------------------------------------------------

TEST_F(ViewLifecycleTest, RegistrationRejectsEachInvalidRequest) {
  start();
  Peer& p = peer(0, 1, /*register_it=*/false);

  p.register_view("");
  settle();
  ASSERT_TRUE(p.ack().has_value());
  EXPECT_FALSE(p.ack()->accepted);
  EXPECT_EQ(p.ack()->reason, "view name must be non-empty");

  p.register_view("kv.View", cells(0, 200));  // the component has 100
  settle();
  EXPECT_FALSE(p.ack()->accepted);
  EXPECT_EQ(p.ack()->reason,
            "view properties are not a subset of component data");

  p.register_view("kv.View", cells(0, 9), "1 +");
  settle();
  EXPECT_FALSE(p.ack()->accepted);
  EXPECT_EQ(p.ack()->reason.rfind("bad validity trigger: ", 0), 0u)
      << p.ack()->reason;

  EXPECT_EQ(dm("op.register"), 3u);
  EXPECT_EQ(dm("op.register.rejected"), 3u);
  EXPECT_EQ(dir().registered_count(), 0u);
}

TEST_F(ViewLifecycleTest, ResumeWithAStaleIncarnationIsFenced) {
  start();
  Peer& p = peer(0);
  const ViewId view = p.id();

  p.register_view("kv.View", cells(0, 9), {}, view, /*incarnation=*/1);
  settle();
  EXPECT_FALSE(p.ack()->accepted);
  EXPECT_EQ(p.ack()->reason, "stale incarnation");
  EXPECT_EQ(dm("register.fenced.incarnation"), 1u);
  EXPECT_EQ(dm("op.register.rejected"), 1u);
  EXPECT_TRUE(dir().is_active(view));  // the record is untouched

  p.register_view("kv.View", cells(0, 9), {}, view, /*incarnation=*/2);
  settle();
  EXPECT_TRUE(p.ack()->accepted);
  EXPECT_EQ(p.ack()->view, view);
  EXPECT_EQ(dm("view.resumed"), 1u);
  EXPECT_FALSE(dir().is_active(view));  // until the manager re-syncs
  EXPECT_EQ(dir().registered_count(), 1u);
}

TEST_F(ViewLifecycleTest, ResumeOfAViewThatIsGoneRegistersFresh) {
  start();
  Peer& p = peer(0);
  const ViewId gone = p.id();
  p.kill(0, 100);
  settle();
  ASSERT_EQ(dir().registered_count(), 0u);

  p.register_view("kv.View", cells(0, 9), {}, gone, /*incarnation=*/2);
  settle();
  EXPECT_EQ(dm("view.resume_missed"), 1u);
  EXPECT_EQ(dm("view.resumed"), 0u);
  ASSERT_TRUE(p.ack()->accepted);
  EXPECT_NE(p.ack()->view, gone);
  EXPECT_TRUE(dir().known(p.ack()->view));
  EXPECT_FALSE(dir().known(gone));
}

TEST_F(ViewLifecycleTest, AMergeKeepsThePropertiesItWasMadeUnder) {
  start();
  Peer& a = peer(0);
  Peer& low = peer(1);  // cells [0, 9], like a's first registration
  Peer& high = peer(2, 1, /*register_it=*/false);
  high.register_view("kv.View", cells(20, 29));
  settle();
  high.init();
  settle();

  a.push(5);  // merged under cells [0, 9]
  settle();
  a.register_view("kv.View", cells(20, 29), {}, a.id(), /*incarnation=*/2);
  settle();
  ASSERT_TRUE(a.ack()->accepted);
  ASSERT_EQ(dm("view.resumed"), 1u);
  a.kill(0, 100);  // the merge is now judged by the set it was made under
  settle();
  ASSERT_FALSE(dir().known(a.id()));

  EXPECT_EQ(dir().quality(low.id()), 1u);
  EXPECT_EQ(dir().quality(high.id()), 0u);
}

// ---- the rebuild round ----------------------------------------------------

TEST_F(ViewLifecycleTest, SilentCheckpointedViewIsReprobedThenDropped) {
  MemoryDurabilityStore store;
  start(&store);
  Peer& p = peer(0);
  p.answer_probes = false;
  restart(store);
  ASSERT_TRUE(dir().rebuilding());

  // command_retries = 2 resends spread across the 500 ms rebuild window.
  advance(sim::msec(450));
  EXPECT_EQ(p.received(msg::kDirectoryRebuild), 3u);
  EXPECT_EQ(dm("recovery.probe.sent"), 1u);
  EXPECT_EQ(dm("recovery.probe.retry"), dcfg_.command_retries);
  EXPECT_EQ(dm("recovery.dropped"), 0u);
  EXPECT_TRUE(dir().known(p.id()));

  advance(sim::msec(100));
  EXPECT_FALSE(dir().rebuilding());
  EXPECT_EQ(dm("recovery.dropped"), 1u);
  EXPECT_EQ(dm("recovery.completed"), 1u);
  EXPECT_FALSE(dir().known(p.id()));
  EXPECT_EQ(p.received(msg::kDirectoryRebuild), 3u);
}

TEST_F(ViewLifecycleTest, CheckpointedModeChangeIsReplayedBeforeTheRebuild) {
  MemoryDurabilityStore store;
  start(&store);
  Peer& p = peer(0);
  p.switch_mode(Mode::kStrong);
  settle();
  ASSERT_EQ(dir().mode_of(p.id()), Mode::kStrong);

  // The registration record says WEAK; only the kModeChange record
  // after it says STRONG. No probe is answered, so the mode can come
  // from the checkpoint alone.
  p.answer_probes = false;
  restart(store);
  ASSERT_TRUE(dir().rebuilding());
  EXPECT_EQ(dir().mode_of(p.id()), Mode::kStrong);
}

class RebuildRepliesTest : public ViewLifecycleTest {
 protected:
  /// A durable directory, a requester whose validity trigger always
  /// fails and a target it conflicts with; the requester's pull opens a
  /// fetch round that the target leaves unanswered until it times out.
  /// The directory then restarts, and only the requester re-announces.
  void SetUp() override {
    start(&store_);
    requester_ = &peer(0, 1, true, "false");
    target_ = &peer(1);
    target_->answer_probes = false;
    requester_->pull();
    settle();
    ASSERT_EQ(target_->tokens().size(), 1u);
    round_ = target_->tokens().back();
    advance(dcfg_.fetch_timeout + sim::msec(10));
    ASSERT_EQ(dm("op.fetch.timeout"), 1u);
    restart(store_);
    settle();
    ASSERT_TRUE(dir().rebuilding());
  }

  /// The target's unconfirmed extraction for the round: kCell += 5.
  [[nodiscard]] std::vector<msg::DeltaEcho> echo() const {
    return {msg::DeltaEcho{round_, false, target_->id(), delta_image(5)}};
  }

  MemoryDurabilityStore store_;
  Peer* requester_ = nullptr;
  Peer* target_ = nullptr;
  std::uint64_t round_ = 0;
};

TEST_F(RebuildRepliesTest, SecondReplyIsADuplicateAndItsEchoesMergeOnce) {
  target_->reannounce(echo());
  settle();
  EXPECT_EQ(dm("recovery.reannounced"), 2u);
  EXPECT_FALSE(dir().rebuilding());
  EXPECT_EQ(dm("echo.merged"), 1u);
  EXPECT_EQ(total(), 5);

  target_->reannounce(echo());
  settle();
  EXPECT_EQ(dm("recovery.reply.duplicate"), 1u);
  EXPECT_EQ(dm("recovery.reannounced"), 2u);
  EXPECT_EQ(dm("echo.duplicate"), 1u);
  EXPECT_EQ(dm("merge.count"), 1u);
  EXPECT_EQ(total(), 5);
}

TEST_F(RebuildRepliesTest, ReplyFromAnotherAddressStillMergesItsEchoes) {
  Peer& stranger = peer(2, 1, /*register_it=*/false);
  stranger.reannounce(echo(), target_->id());
  settle();
  EXPECT_EQ(dm("recovery.reply.unknown"), 1u);
  EXPECT_EQ(dm("recovery.reannounced"), 1u);  // the requester only
  EXPECT_TRUE(dir().rebuilding());  // the target itself is still awaited
  EXPECT_EQ(dm("echo.merged"), 1u);
  EXPECT_EQ(total(), 5);

  target_->reannounce(echo());
  settle();
  EXPECT_FALSE(dir().rebuilding());
  EXPECT_EQ(dm("echo.duplicate"), 1u);
  EXPECT_EQ(dm("merge.count"), 1u);
  EXPECT_EQ(total(), 5);
}

// ---- migration ------------------------------------------------------------

class MigrationSettleTest : public ViewLifecycleTest {
 protected:
  void SetUp() override {
    start();
    source_ = &peer(0);
    dest_ = &peer(1, 1, /*register_it=*/false);
  }

  /// Open a migration of the source's view to the destination; returns
  /// its epoch.
  std::uint64_t begin() {
    EXPECT_TRUE(dir().begin_migration(source_->id(), dest_->address()));
    settle();
    EXPECT_FALSE(source_->epochs().empty());
    return source_->epochs().empty() ? 0 : source_->epochs().back();
  }

  /// Run a whole migration: handoff, install, ack. Returns its epoch.
  std::uint64_t migrate() {
    const std::uint64_t epoch = begin();
    source_->handoff(epoch);
    settle();
    dest_->move_ack(source_->id(), epoch);
    settle();
    return epoch;
  }

  /// Let every phase resend lapse: the migration aborts.
  void time_out() { advance(sim::msec(250) * 6); }

  Peer* source_ = nullptr;
  Peer* dest_ = nullptr;
};

TEST_F(MigrationSettleTest, HandoffResentAfterDoneGetsDoneReplayed) {
  const std::uint64_t epoch = migrate();
  ASSERT_EQ(dm("migrate.done"), 1u);
  ASSERT_EQ(source_->dones().size(), 1u);

  source_->handoff(epoch);
  settle();
  EXPECT_EQ(dm("migrate.handoff.replayed"), 1u);
  ASSERT_EQ(source_->dones().size(), 2u);
  EXPECT_EQ(source_->dones().back().epoch, epoch);
  EXPECT_FALSE(source_->dones().back().aborted);
  EXPECT_EQ(dest_->received(msg::kViewMoveDone), 0u);
  EXPECT_EQ(dm("migrate.done"), 1u);
}

TEST_F(MigrationSettleTest, HandoffResentAfterAbortGetsAbortReplayed) {
  const std::uint64_t epoch = begin();
  time_out();
  ASSERT_EQ(dm("migrate.aborted"), 1u);
  ASSERT_EQ(source_->dones().size(), 1u);
  EXPECT_TRUE(source_->dones().back().aborted);
  EXPECT_EQ(dest_->received(msg::kViewMoveDone), 0u);  // never installed

  source_->handoff(epoch, 5);
  settle();
  EXPECT_EQ(dm("migrate.handoff.replayed"), 1u);
  ASSERT_EQ(source_->dones().size(), 2u);
  EXPECT_EQ(source_->dones().back().epoch, epoch);
  EXPECT_TRUE(source_->dones().back().aborted);
  EXPECT_EQ(total(), 0);  // a settled migration merges no handoff
}

TEST_F(MigrationSettleTest, AbortAfterTheInstallAlsoUninstalls) {
  const std::uint64_t epoch = begin();
  source_->handoff(epoch, 5);
  settle();
  ASSERT_EQ(dest_->epochs(), (std::vector<std::uint64_t>{epoch}));
  time_out();  // the destination never acks
  EXPECT_EQ(dm("migrate.aborted"), 1u);
  EXPECT_EQ(dm("migrate.install.sent"), 1u + 4u);
  ASSERT_EQ(source_->dones().size(), 1u);
  EXPECT_TRUE(source_->dones().back().aborted);
  ASSERT_EQ(dest_->dones().size(), 1u);
  EXPECT_TRUE(dest_->dones().back().aborted);
  EXPECT_EQ(total(), 5);  // the handoff merged once, before the abort
}

TEST_F(MigrationSettleTest, HandoffForAnEpochNeverOpenedGetsNoReply) {
  source_->handoff(/*epoch=*/12345, 5);
  settle();
  EXPECT_EQ(dm("migrate.handoff.unknown"), 1u);
  EXPECT_EQ(source_->received(msg::kViewMoveDone), 0u);
  EXPECT_EQ(total(), 0);
}

TEST_F(MigrationSettleTest, StaleAckChangesNothing) {
  const std::uint64_t epoch = begin();
  source_->handoff(epoch);
  settle();
  Peer& stranger = peer(2, 1, /*register_it=*/false);

  dest_->move_ack(source_->id(), epoch + 1);  // wrong epoch
  stranger.move_ack(source_->id(), epoch);    // wrong address
  settle();
  EXPECT_EQ(dm("migrate.ack.stale"), 2u);
  EXPECT_EQ(dm("migrate.done"), 0u);
  EXPECT_EQ(dir().migrations_inflight(), 1u);
  EXPECT_EQ(source_->received(msg::kViewMoveDone), 0u);

  dest_->move_ack(source_->id(), epoch);
  settle();
  EXPECT_EQ(dm("migrate.done"), 1u);
  EXPECT_EQ(dir().migrations_inflight(), 0u);
}

TEST_F(MigrationSettleTest, HandoffOfAnAlreadyMergedRequestDoesNotMerge) {
  const std::uint64_t req = source_->push(5);
  settle();
  ASSERT_EQ(total(), 5);

  const std::uint64_t epoch = begin();
  source_->handoff(epoch, 5, req);  // the same (source, req) key
  settle();
  EXPECT_EQ(dm("migrate.handoff.replayed_merge"), 1u);
  EXPECT_EQ(dm("merge.count"), 1u);
  EXPECT_EQ(total(), 5);
  EXPECT_EQ(dest_->epochs(), (std::vector<std::uint64_t>{epoch}));
}

TEST_F(MigrationSettleTest, AcquireWaitsForTheMigrationToSettle) {
  Peer& requester = peer(2);
  const std::uint64_t epoch = begin();
  requester.acquire();
  settle();
  // Arbitration is frozen while the view moves: no round opens, so the
  // sealed source gets no InvalidateReq and nothing is granted.
  EXPECT_TRUE(source_->invalidations().empty());
  EXPECT_EQ(requester.received(msg::kAcquireGrant), 0u);

  source_->handoff(epoch);
  settle();
  EXPECT_TRUE(source_->invalidations().empty());
  EXPECT_EQ(requester.received(msg::kAcquireGrant), 0u);
  dest_->move_ack(source_->id(), epoch);
  settle();
  ASSERT_EQ(dm("migrate.done"), 1u);

  // Settling drains the queue: the view is invalidated at its new home.
  EXPECT_TRUE(source_->invalidations().empty());
  ASSERT_EQ(dest_->invalidations().size(), 1u);
  EXPECT_EQ(requester.received(msg::kAcquireGrant), 0u);
  dest_->invalidate_ack(source_->id(), dest_->invalidations().back());
  settle();
  EXPECT_EQ(requester.received(msg::kAcquireGrant), 1u);
  EXPECT_TRUE(dir().is_exclusive(requester.id()));
}

TEST_F(MigrationSettleTest, FetchRoundLeavesOutTheSealedSource) {
  Peer& requester = peer(2, 1, /*register_it=*/true, /*validity=*/"false");
  Peer& other = peer(2, 2);
  begin();
  requester.pull();
  settle();
  // The round opens over the one conflicting view that can answer.
  EXPECT_EQ(dm("op.pull.fetch_round"), 1u);
  EXPECT_TRUE(source_->tokens().empty());
  ASSERT_EQ(other.tokens().size(), 1u);
  EXPECT_EQ(requester.received(msg::kPullReply), 0u);

  other.fetch_reply(other.tokens().back());
  settle();
  EXPECT_EQ(requester.received(msg::kPullReply), 1u);
  EXPECT_TRUE(source_->tokens().empty());
}

// ---- merged-op markers ----------------------------------------------------

TEST_F(ViewLifecycleTest, DirtyKillWhoseReplyWasForgottenDoesNotMergeAgain) {
  start();
  Peer& p = peer(0);
  constexpr std::uint64_t kKillReq = 100;
  p.kill(5, kKillReq);
  settle();
  ASSERT_EQ(total(), 5);
  ASSERT_EQ(p.received(msg::kKillAck), 1u);

  // The manager registers again, and enough framed requests follow to
  // push the kill's cached reply out of the dedup window.
  p.register_view();
  settle();
  for (std::size_t i = 0; i < dcfg_.dedup_window; ++i) {
    p.init();
    settle();
  }
  p.kill(5, kKillReq);  // the same kill, re-issued under the new id
  settle();
  EXPECT_EQ(dm("op.kill.replayed_merge"), 1u);
  EXPECT_EQ(dm("msg.duplicate.replayed"), 0u);
  EXPECT_EQ(p.received(msg::kKillAck), 2u);
  EXPECT_EQ(dm("merge.count"), 1u);
  EXPECT_EQ(total(), 5);
  EXPECT_EQ(dir().registered_count(), 0u);
}

// ---- window edges ---------------------------------------------------------

TEST_F(ViewLifecycleTest, OldestOf257MigrationOutcomesIsForgotten) {
  start();
  Peer& dest = peer(1, 1, /*register_it=*/false);
  std::vector<Peer*> sources;
  std::vector<std::uint64_t> epochs;
  for (std::uint32_t port = 1; port <= 257; ++port) {
    Peer& s = peer(0, port);
    ASSERT_TRUE(dir().begin_migration(s.id(), dest.address()));
    settle();
    ASSERT_EQ(s.epochs().size(), 1u);
    advance(sim::msec(250) * 6);  // it aborts
    sources.push_back(&s);
    epochs.push_back(s.epochs().front());
  }
  ASSERT_EQ(dm("migrate.aborted"), 257u);

  sources[0]->handoff(epochs[0]);
  settle();
  EXPECT_EQ(dm("migrate.handoff.unknown"), 1u);
  EXPECT_EQ(sources[0]->dones().size(), 1u);  // the abort only

  sources[1]->handoff(epochs[1]);
  settle();
  EXPECT_EQ(dm("migrate.handoff.replayed"), 1u);
  EXPECT_EQ(sources[1]->dones().size(), 2u);
}

TEST_F(ViewLifecycleTest, OldestOf1025MergedPushesMergesAgainAfterRestart) {
  MemoryDurabilityStore store;
  start(&store);
  Peer& p = peer(0);
  std::vector<std::uint64_t> reqs;
  for (int i = 0; i < 1025; ++i) {
    reqs.push_back(p.push(1));
    settle();
  }
  ASSERT_EQ(total(), 1025);
  restart(store);
  settle();
  ASSERT_FALSE(dir().rebuilding());

  // The second-oldest first: merging the oldest again files a marker,
  // which would push the second-oldest out of the full window.
  p.push(1, reqs[1]);
  settle();
  EXPECT_EQ(dm("op.push.replayed_merge"), 1u);
  EXPECT_EQ(dm("merge.count"), 0u);
  EXPECT_EQ(total(), 1025);

  p.push(1, reqs[0]);  // its marker fell out of the window
  settle();
  EXPECT_EQ(dm("op.push.replayed_merge"), 1u);
  EXPECT_EQ(dm("merge.count"), 1u);
  EXPECT_EQ(total(), 1026);
}

}  // namespace
}  // namespace flecc::core

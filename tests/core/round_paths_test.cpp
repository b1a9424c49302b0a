// Every path of the directory's demand-fetch and invalidation rounds
// (PROTOCOL.md, "Delta echoes and the settled-round archive"), run once
// per round kind: a live dirty reply, a duplicate reply, a late reply
// merged from the settled-round archive (also from a target that
// deregistered meanwhile, under the round's property snapshot),
// push-borne echoes for live, settled, forgotten and pre-crash rounds,
// an echo of a live round's merged reply, a WAL compaction while a
// round is open and one after a round settled, command resends, and the
// death of a target or of the requester mid-round. Then two answers
// outside any round: the ack of a framed kill for a view already gone,
// replayed from the dedup window, and a push that makes its view an
// active holder again.
//
// Requester and targets are scripted endpoints that speak only when
// told to, so every reply, echo and duplicate lands exactly where the
// case needs it. Each case checks KvPrimary::total(): every extracted
// update reaches the primary exactly once, whichever path carries it.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/durability.hpp"
#include "test_support.hpp"

namespace flecc::core {
namespace {

using testing::Harness;
using testing::cells;
using testing::inc_key;

enum class Kind { kFetch, kInvalidate };

/// The per-kind names a case asserts on.
struct KindNames {
  const char* completion;  // reply the requester gets when the round ends
  const char* timeout;
  const char* late;
  const char* late_merged;
  const char* retry;
};

constexpr KindNames kFetchNames{msg::kPullReply, "op.fetch.timeout",
                                "op.fetch.late", "op.fetch.late.merged",
                                "op.fetch.retry"};
constexpr KindNames kInvalidateNames{
    msg::kAcquireGrant, "op.acquire.timeout", "op.invalidate.stale_ack",
    "op.invalidate.late.merged", "op.invalidate.retry"};

/// The cell every scripted extraction increments.
constexpr std::int64_t kCell = 3;

ObjectImage delta_image(std::int64_t delta) {
  ObjectImage img;
  if (delta != 0) img.set_int(inc_key(kCell), delta);
  return img;
}

/// A cache manager played by the test. It registers over cells [0, 9]
/// like a real one, records the round id of every command the directory
/// sends it, answers rebuild probes, and otherwise sends only what the
/// case asks for. Every message is unfenced (gen 0), so it passes the
/// generation check of any directory incarnation.
class ScriptedView final : public net::Endpoint {
 public:
  explicit ScriptedView(Harness& h, std::string validity = {})
      : h_(h),
        addr_{h.hosts_.at(h.next_host_++), 1},
        validity_(std::move(validity)) {
    h_.fabric_->bind(addr_, *this);
    msg::RegisterReq reg;
    reg.view_name = "kv.View";
    reg.properties = cells(0, 9);
    reg.validity_trigger = validity_;
    reg.req = next_req_++;
    send(msg::kRegisterReq, reg, msg::wire_size(reg));
  }
  ~ScriptedView() override { h_.fabric_->unbind(addr_); }

  ScriptedView(const ScriptedView&) = delete;
  ScriptedView& operator=(const ScriptedView&) = delete;

  void on_message(const net::Message& m) override {
    ++received_[m.type];
    if (m.type == msg::kRegisterAck) {
      id_ = net::payload_as<msg::RegisterAck>(m).view;
    } else if (m.type == msg::kFetchReq) {
      commands_.push_back(net::payload_as<msg::FetchReq>(m).token);
    } else if (m.type == msg::kInvalidateReq) {
      commands_.push_back(net::payload_as<msg::InvalidateReq>(m).epoch);
    } else if (m.type == msg::kDirectoryRebuild) {
      msg::RebuildReply rep;
      rep.view = id_;
      rep.view_name = "kv.View";
      rep.properties = cells(0, 9);
      rep.validity_trigger = validity_;
      rep.active = true;
      send(msg::kRebuildReply, rep, msg::wire_size(rep));
    }
  }

  /// InitReq: the view becomes an active holder of its cells.
  void init() {
    msg::InitReq req{id_, next_req_++};
    send(msg::kInitReq, req, msg::wire_size(req));
  }

  /// Open a round as its requester: a pull (with an always-failing
  /// validity trigger) or a strong-mode acquire.
  void request(Kind kind) {
    if (kind == Kind::kFetch) {
      msg::PullReq req{id_, AccessIntent::kReadWrite, next_req_++};
      send(msg::kPullReq, req, msg::wire_size(req));
    } else {
      msg::AcquireReq req{id_, AccessIntent::kReadWrite, next_req_++};
      send(msg::kAcquireReq, req, msg::wire_size(req));
    }
  }

  /// Answer round `round` with an extraction adding `delta` to kCell
  /// (0 = a clean reply).
  void answer(Kind kind, std::uint64_t round, std::int64_t delta) {
    if (kind == Kind::kFetch) {
      msg::FetchReply rep;
      rep.view = id_;
      rep.token = round;
      rep.image = delta_image(delta);
      rep.dirty = delta != 0;
      send(msg::kFetchReply, rep, msg::wire_size(rep));
    } else {
      msg::InvalidateAck ack;
      ack.view = id_;
      ack.epoch = round;
      ack.image = delta_image(delta);
      ack.dirty = delta != 0;
      send(msg::kInvalidateAck, ack, msg::wire_size(ack));
    }
  }

  /// An empty push carrying the echo of round `round`'s extraction.
  void echo(Kind kind, std::uint64_t round, std::int64_t delta) {
    msg::PushUpdate push;
    push.view = id_;
    push.req = next_req_++;
    push.echoes.push_back(msg::DeltaEcho{round, kind == Kind::kInvalidate,
                                         id_, delta_image(delta)});
    send(msg::kPushUpdate, push, msg::wire_size(push));
  }

  /// A clean KillReq, unframed unless `req` is given: the view
  /// deregisters.
  void kill(std::uint64_t req = 0) {
    msg::KillReq k;
    k.view = id_;
    k.req = req;
    send(msg::kKillReq, k, msg::wire_size(k));
  }

  /// A clean push: the view works on a copy again.
  void push() {
    msg::PushUpdate p;
    p.view = id_;
    p.req = next_req_++;
    send(msg::kPushUpdate, p, msg::wire_size(p));
  }

  [[nodiscard]] ViewId id() const noexcept { return id_; }
  /// Round ids of the commands received, in arrival order.
  [[nodiscard]] const std::vector<std::uint64_t>& commands() const {
    return commands_;
  }
  [[nodiscard]] std::size_t received(const std::string& type) const {
    auto it = received_.find(type);
    return it == received_.end() ? 0 : it->second;
  }

 private:
  template <typename T>
  void send(const char* type, T payload, std::size_t bytes) {
    h_.fabric_->send(addr_, h_.dir_addr_, type, std::move(payload), bytes);
  }

  Harness& h_;
  net::Address addr_;
  std::string validity_;
  ViewId id_ = kInvalidViewId;
  std::uint64_t next_req_ = 1;
  std::vector<std::uint64_t> commands_;
  std::map<std::string, std::size_t> received_;
};

class RoundPathsTest : public ::testing::TestWithParam<Kind> {
 protected:
  [[nodiscard]] Kind kind() const { return GetParam(); }
  [[nodiscard]] const KindNames& names() const {
    return kind() == Kind::kFetch ? kFetchNames : kInvalidateNames;
  }

  /// A directory, a requester and `targets` active conflicting views.
  void start(std::size_t targets, DirectoryManager::Config dcfg = {}) {
    dcfg_ = dcfg;
    h_ = std::make_unique<Harness>(targets + 1, 100, dcfg);
    requester_ = std::make_unique<ScriptedView>(*h_, "false");
    for (std::size_t i = 0; i < targets; ++i) {
      targets_.push_back(std::make_unique<ScriptedView>(*h_));
    }
    settle();
    for (auto& t : targets_) t->init();
    settle();
  }

  ScriptedView& requester() { return *requester_; }
  ScriptedView& target(std::size_t i = 0) { return *targets_.at(i); }

  /// Deliver everything in flight; no round times out meanwhile.
  void settle() { h_->run_until(h_->sim_.now() + sim::msec(5)); }
  /// Run past the round timeout.
  void expire() {
    h_->run_until(h_->sim_.now() + dcfg_.fetch_timeout + sim::msec(10));
  }

  /// Open one round of the case's kind; returns its id (fetch token or
  /// invalidate epoch) as the first target saw it.
  std::uint64_t open_round() {
    requester().request(kind());
    settle();
    EXPECT_FALSE(target().commands().empty());
    return target().commands().empty() ? 0 : target().commands().back();
  }

  /// Crash the directory (the store loses its unflushed tail) and
  /// restart it from the checkpoint; the scripted views re-announce.
  void restart_directory(MemoryDurabilityStore& store) {
    h_->directory_.reset();
    store.crash();
    h_->directory_ = std::make_unique<DirectoryManager>(
        *h_->fabric_, h_->dir_addr_, h_->primary_, dcfg_);
    settle();
    ASSERT_FALSE(h_->directory_->rebuilding());
  }

  [[nodiscard]] std::uint64_t dm(const std::string& counter) const {
    return h_->directory_->stats().get(counter);
  }
  [[nodiscard]] std::int64_t total() const { return h_->primary_.total(); }
  [[nodiscard]] std::size_t completions() const {
    return requester_->received(names().completion);
  }

  DirectoryManager::Config dcfg_;
  std::unique_ptr<Harness> h_;
  std::unique_ptr<ScriptedView> requester_;
  std::vector<std::unique_ptr<ScriptedView>> targets_;
};

TEST_P(RoundPathsTest, LiveDirtyReplyMergesOnce) {
  start(1);
  const std::uint64_t round = open_round();
  target().answer(kind(), round, 5);
  settle();
  EXPECT_EQ(total(), 5);
  EXPECT_EQ(dm("merge.count"), 1u);
  EXPECT_EQ(completions(), 1u);
  EXPECT_EQ(dm(names().late), 0u);
  EXPECT_EQ(dm(names().timeout), 0u);
  if (kind() == Kind::kInvalidate) {
    EXPECT_FALSE(h_->directory_->is_active(target().id()));
    EXPECT_TRUE(h_->directory_->is_exclusive(requester().id()));
  }
}

TEST_P(RoundPathsTest, SecondCopyOfAReplyIsDropped) {
  start(2);
  const std::uint64_t round = open_round();
  target(0).answer(kind(), round, 5);
  settle();
  target(0).answer(kind(), round, 5);  // e.g. a resend answered twice
  settle();
  EXPECT_EQ(dm("msg.duplicate.dropped"), 1u);
  EXPECT_EQ(completions(), 0u);  // target 1 is still outstanding
  target(1).answer(kind(), round, 0);
  settle();
  EXPECT_EQ(completions(), 1u);
  EXPECT_EQ(total(), 5);
  EXPECT_EQ(dm("merge.count"), 1u);
}

TEST_P(RoundPathsTest, LateDirtyReplyMergesOnceFromTheArchive) {
  start(1);
  const std::uint64_t round = open_round();
  expire();
  EXPECT_EQ(dm(names().timeout), 1u);
  EXPECT_EQ(completions(), 1u);
  EXPECT_EQ(total(), 0);

  target().answer(kind(), round, 5);
  settle();
  EXPECT_EQ(dm(names().late), 1u);
  EXPECT_EQ(dm(names().late_merged), 1u);
  EXPECT_EQ(total(), 5);

  target().answer(kind(), round, 5);  // a second late copy
  settle();
  EXPECT_EQ(dm(names().late), 2u);
  EXPECT_EQ(dm(names().late_merged), 1u);
  EXPECT_EQ(total(), 5);
}

TEST_P(RoundPathsTest, LateReplyOfADeregisteredTargetMergesWithItsSnapshot) {
  start(1);
  const std::uint64_t round = open_round();
  target().kill();  // deregisters; the round settles without its reply
  settle();
  ASSERT_FALSE(h_->directory_->known(target().id()));
  ASSERT_EQ(completions(), 1u);

  target().answer(kind(), round, 5);
  settle();
  EXPECT_EQ(dm(names().late_merged), 1u);
  EXPECT_EQ(total(), 5);
  ASSERT_EQ(h_->directory_->merge_log().size(), 1u);
  const MergeRecord& merge = h_->directory_->merge_log().records().back();
  EXPECT_EQ(merge.source, target().id());
  ASSERT_NE(merge.touched, nullptr);
  EXPECT_EQ(*merge.touched, cells(0, 9));  // the snapshot taken at opening

  target().answer(kind(), round, 5);  // a second late copy
  settle();
  EXPECT_EQ(dm(names().late), 2u);
  EXPECT_EQ(dm(names().late_merged), 1u);
  EXPECT_EQ(total(), 5);
}

TEST_P(RoundPathsTest, EchoMergesForALiveRound) {
  start(1);
  const std::uint64_t round = open_round();
  target().echo(kind(), round, 5);  // the reply itself was lost
  settle();
  EXPECT_EQ(dm("echo.merged"), 1u);
  EXPECT_EQ(completions(), 1u);  // the echo answered the last target
  EXPECT_EQ(total(), 5);

  target().answer(kind(), round, 5);  // the "lost" reply shows up after all
  settle();
  EXPECT_EQ(dm(names().late), 1u);
  EXPECT_EQ(dm(names().late_merged), 0u);
  target().echo(kind(), round, 5);
  settle();
  EXPECT_EQ(dm("echo.duplicate"), 1u);
  EXPECT_EQ(total(), 5);
}

TEST_P(RoundPathsTest, EchoOfALiveRoundsMergedReplyIsADuplicate) {
  start(2);
  const std::uint64_t round = open_round();
  target(0).answer(kind(), round, 5);
  settle();
  ASSERT_EQ(completions(), 0u);  // target 1 is still outstanding
  target(0).echo(kind(), round, 5);  // the next push repeats the extraction
  settle();
  EXPECT_EQ(dm("echo.duplicate"), 1u);
  EXPECT_EQ(dm("echo.merged"), 0u);
  EXPECT_EQ(total(), 5);
  target(1).answer(kind(), round, 0);
  settle();
  EXPECT_EQ(completions(), 1u);
  EXPECT_EQ(total(), 5);
}

TEST_P(RoundPathsTest, EchoMergesForASettledRound) {
  start(1);
  const std::uint64_t round = open_round();
  expire();
  target().echo(kind(), round, 5);
  settle();
  EXPECT_EQ(dm("echo.merged"), 1u);
  EXPECT_EQ(total(), 5);

  target().echo(kind(), round, 5);  // the next push repeats it
  settle();
  EXPECT_EQ(dm("echo.duplicate"), 1u);
  target().answer(kind(), round, 5);
  settle();
  EXPECT_EQ(dm(names().late), 1u);
  EXPECT_EQ(dm(names().late_merged), 0u);
  EXPECT_EQ(total(), 5);
}

TEST_P(RoundPathsTest, EchoOfARoundPastTheWindowIsUnknown) {
  start(1);
  const std::uint64_t first = open_round();
  target().answer(kind(), first, 5);
  settle();
  // 256 more rounds settle after it (the archive keeps 256 per kind).
  std::uint64_t second = 0;
  for (int i = 0; i < 256; ++i) {
    if (kind() == Kind::kInvalidate) {
      target().init();  // re-activate, so the next acquire invalidates it
      settle();
    }
    const std::uint64_t round = open_round();
    if (i == 0) second = round;
    target().answer(kind(), round, 1);
    settle();
  }
  ASSERT_EQ(completions(), 257u);
  ASSERT_EQ(total(), 5 + 256);

  target().echo(kind(), second, 1);  // oldest round still in the window
  settle();
  EXPECT_EQ(dm("echo.duplicate"), 1u);
  target().echo(kind(), first, 5);  // forgotten: taken as merged long ago
  settle();
  EXPECT_EQ(dm("echo.unknown"), 1u);
  EXPECT_EQ(dm("echo.merged"), 0u);
  EXPECT_EQ(total(), 5 + 256);
}

TEST_P(RoundPathsTest, CommandResendsAreCounted) {
  start(1);
  const std::uint64_t round = open_round();
  // command_retries = 2 resends spread across fetch_timeout.
  h_->run_until(h_->sim_.now() + dcfg_.fetch_timeout - sim::msec(20));
  EXPECT_EQ(target().commands(),
            (std::vector<std::uint64_t>{round, round, round}));
  EXPECT_EQ(dm(names().retry), 2u);
  EXPECT_EQ(completions(), 0u);

  target().answer(kind(), round, 5);
  settle();
  EXPECT_EQ(completions(), 1u);
  EXPECT_EQ(total(), 5);
  EXPECT_EQ(dm(names().retry), 2u);
  EXPECT_EQ(dm(names().timeout), 0u);
}

TEST_P(RoundPathsTest, PreCrashEchoIsRevivedAfterARestart) {
  MemoryDurabilityStore store(1 << 20);  // flushed only by hand
  DirectoryManager::Config dcfg;
  dcfg.durability = &store;
  start(1, dcfg);
  store.flush();  // registrations are durable, the round will not be
  const std::uint64_t round = open_round();
  expire();
  restart_directory(store);

  target().echo(kind(), round, 5);
  settle();
  EXPECT_EQ(dm("recovery.revived_round"), 1u);
  EXPECT_EQ(dm("echo.revived"), 1u);
  EXPECT_EQ(total(), 5);

  target().echo(kind(), round, 5);
  settle();
  EXPECT_EQ(dm("echo.duplicate"), 1u);
  target().answer(kind(), round, 5);  // the pre-crash reply, late
  settle();
  EXPECT_EQ(dm(names().late), 1u);
  EXPECT_EQ(dm(names().late_merged), 0u);
  EXPECT_EQ(dm("recovery.revived_round"), 1u);
  EXPECT_EQ(total(), 5);
}

TEST_P(RoundPathsTest, PreCrashLateReplyIsRevivedAfterARestart) {
  MemoryDurabilityStore store(1 << 20);
  DirectoryManager::Config dcfg;
  dcfg.durability = &store;
  start(1, dcfg);
  store.flush();
  const std::uint64_t round = open_round();
  expire();
  restart_directory(store);

  target().answer(kind(), round, 5);
  settle();
  EXPECT_EQ(dm(names().late), 1u);
  EXPECT_EQ(dm("recovery.revived_round"), 1u);
  EXPECT_EQ(dm(names().late_merged), 1u);
  EXPECT_EQ(total(), 5);

  target().echo(kind(), round, 5);
  settle();
  EXPECT_EQ(dm("echo.duplicate"), 1u);
  EXPECT_EQ(total(), 5);
}

TEST_P(RoundPathsTest, CompactionKeepsOpenRoundMerges) {
  MemoryDurabilityStore store;
  DirectoryManager::Config dcfg;
  dcfg.durability = &store;
  // Three registrations and the round's two kRoundOpen records are five
  // appends; the first target's kRoundMerge, the sixth, compacts the
  // log while the round is still open.
  dcfg.compact_threshold = 6;
  start(2, dcfg);
  const std::uint64_t round = open_round();
  target(0).answer(kind(), round, 5);
  settle();
  ASSERT_EQ(store.compactions(), 1u);
  ASSERT_EQ(completions(), 0u);  // target 1 is still outstanding
  ASSERT_EQ(total(), 5);
  restart_directory(store);

  // The merged extraction's echo: the checkpoint still knows it merged.
  target(0).echo(kind(), round, 5);
  settle();
  EXPECT_EQ(dm("echo.duplicate"), 1u);
  EXPECT_EQ(dm("recovery.revived_round"), 0u);
  EXPECT_EQ(total(), 5);
}

TEST_P(RoundPathsTest, CompactionKeepsSettledRoundMerges) {
  MemoryDurabilityStore store;
  DirectoryManager::Config dcfg;
  dcfg.durability = &store;
  // Two registrations, the first round's kRoundOpen and kRoundMerge are
  // four appends; the second round's kRoundOpen, the fifth, compacts
  // the log while the first round sits in the settled-round archive.
  dcfg.compact_threshold = 5;
  start(1, dcfg);
  const std::uint64_t first = open_round();
  target().answer(kind(), first, 5);
  settle();
  ASSERT_EQ(completions(), 1u);
  ASSERT_EQ(store.compactions(), 0u);
  if (kind() == Kind::kInvalidate) {
    target().init();  // re-activate, so the next acquire invalidates it
    settle();
  }
  open_round();
  ASSERT_EQ(store.compactions(), 1u);
  ASSERT_EQ(total(), 5);
  restart_directory(store);

  // The settled round's echo: the checkpoint still knows it merged.
  target().echo(kind(), first, 5);
  settle();
  EXPECT_EQ(dm("echo.duplicate"), 1u);
  EXPECT_EQ(dm("recovery.revived_round"), 0u);
  EXPECT_EQ(total(), 5);
}

TEST_P(RoundPathsTest, TargetDeathSettlesTheRound) {
  start(2);
  const std::uint64_t round = open_round();
  target(0).answer(kind(), round, 5);
  settle();
  EXPECT_EQ(completions(), 0u);
  target(1).kill();
  settle();
  EXPECT_EQ(completions(), 1u);
  EXPECT_EQ(dm(names().timeout), 0u);
  EXPECT_EQ(total(), 5);
}

TEST_P(RoundPathsTest, RequesterDeathMidRound) {
  start(1);
  const std::uint64_t round = open_round();
  requester().kill();
  settle();
  target().answer(kind(), round, 5);
  settle();
  EXPECT_EQ(completions(), 0u);
  if (kind() == Kind::kInvalidate) {
    // The acquire round is archived at once; the ack merges late.
    EXPECT_EQ(dm(names().late), 1u);
    EXPECT_EQ(dm(names().late_merged), 1u);
  } else {
    // A fetch round runs on without its requester and merges live.
    EXPECT_EQ(dm(names().late), 0u);
    EXPECT_EQ(dm("merge.count"), 1u);
  }
  EXPECT_EQ(total(), 5);

  target().echo(kind(), round, 5);
  settle();
  EXPECT_EQ(dm("echo.duplicate"), 1u);
  EXPECT_EQ(total(), 5);
}

INSTANTIATE_TEST_SUITE_P(Kinds, RoundPathsTest,
                         ::testing::Values(Kind::kFetch, Kind::kInvalidate),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           return info.param == Kind::kFetch ? "Fetch"
                                                             : "Invalidate";
                         });

// ---- answers outside rounds -------------------------------------------------

/// A directory, a requester and one active conflicting view.
class DirectoryAnswersTest : public ::testing::Test {
 protected:
  DirectoryAnswersTest() : h_(2), requester_(h_), view_(h_) {
    settle();
    view_.init();
    settle();
  }

  void settle() { h_.run_until(h_.sim_.now() + sim::msec(5)); }
  [[nodiscard]] std::uint64_t dm(const std::string& counter) const {
    return h_.directory_->stats().get(counter);
  }

  Harness h_;
  ScriptedView requester_;
  ScriptedView view_;
};

TEST_F(DirectoryAnswersTest, KillOfAGoneViewIsAckedAndItsResendReplayed) {
  view_.kill();  // unframed: the view deregisters
  settle();
  const std::size_t acks = view_.received(msg::kKillAck);
  constexpr std::uint64_t kReq = 100;
  view_.kill(kReq);  // a framed kill for the view already gone
  settle();
  EXPECT_EQ(view_.received(msg::kKillAck), acks + 1);
  EXPECT_EQ(dm("op.kill"), 2u);

  view_.kill(kReq);  // its retransmission
  settle();
  EXPECT_EQ(view_.received(msg::kKillAck), acks + 2);
  EXPECT_EQ(dm("msg.duplicate.replayed"), 1u);
  EXPECT_EQ(dm("op.kill"), 2u);  // answered from the window, not run again
}

TEST_F(DirectoryAnswersTest, PushMakesTheViewActiveForTheNextAcquire) {
  requester_.request(Kind::kInvalidate);
  settle();
  ASSERT_EQ(view_.commands().size(), 1u);
  view_.answer(Kind::kInvalidate, view_.commands().back(), 0);
  settle();
  ASSERT_FALSE(h_.directory_->is_active(view_.id()));

  view_.push();
  settle();
  EXPECT_TRUE(h_.directory_->is_active(view_.id()));

  // The next conflicting acquire must invalidate the view again.
  requester_.request(Kind::kInvalidate);
  settle();
  EXPECT_EQ(view_.commands().size(), 2u);
}

}  // namespace
}  // namespace flecc::core

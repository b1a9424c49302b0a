// The Flecc directory manager (paper §4.2).
//
// One directory manager is colocated with the original component. It
// tracks every registered view, decides which views conflict (static map
// first, dynamic property intersection as fallback; decided once per
// registration and kept in an adjacency index), arbitrates
// strong-mode exclusivity via invalidations, serves weak-mode pulls
// (honoring validity triggers with demand fetches from conflicting
// active views), merges pushed updates into the primary copy, and keeps
// the merge log from which the data-quality metric is computed.
//
// Reliability layer (PROTOCOL.md, "Fault model & reliability layer"):
// the directory is idempotent under request replay. Every framed request
// (req != 0) is tracked in a bounded per-sender dedup window keyed by
// (cache address, request id); a retransmission of a completed request
// re-sends the cached reply instead of re-executing (no double merge, no
// double-queued acquire), and one still in progress is dropped.
// Directory-originated commands (InvalidateReq, FetchReq) are
// retransmitted a bounded number of times within the round timeout.
// Optional liveness tracking evicts views whose cache manager has gone
// silent, settling any round waiting on them.
#pragma once

#include <any>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/adapters.hpp"
#include "core/durability.hpp"
#include "core/merge_log.hpp"
#include "core/messages.hpp"
#include "core/static_map.hpp"
#include "core/types.hpp"
#include "net/fabric.hpp"
#include "net/pool.hpp"
#include "obs/trace.hpp"
#include "sim/stats.hpp"
#include "trigger/trigger.hpp"

namespace flecc::core {

class DirectoryManager : public net::Endpoint {
 public:
  struct Config {
    /// How long to wait for FetchReply/InvalidateAck stragglers before
    /// proceeding with what arrived (crash resilience).
    sim::Duration fetch_timeout = sim::msec(500);
    /// Send UpdateNotify to conflicting active views after each merge.
    bool notify_on_update = false;
    /// Honor AccessIntent::kReadOnly (future-work extension 1): read-only
    /// pulls skip demand fetches, read-only acquires skip invalidations.
    bool use_rw_semantics = false;
    /// Prune the merge log when it exceeds this many records.
    std::size_t merge_log_cap = 1 << 16;
    /// Replies cached per sender for idempotent replay of retransmitted
    /// requests. 0 disables the dedup window.
    std::size_t dedup_window = 8;
    /// Extra transmissions of InvalidateReq/FetchReq spread across
    /// fetch_timeout before the round timeout settles it. 0 = single
    /// shot (the seed behavior).
    std::size_t command_retries = 2;
    /// Evict views silent for longer than this (missed heartbeats);
    /// 0 disables liveness tracking. Should be several cache-manager
    /// heartbeat intervals.
    sim::Duration liveness_timeout = 0;
    /// Optional protocol trace sink (not owned); nullptr = no tracing.
    /// See OBSERVABILITY.md for the events the directory emits.
    obs::TraceBuffer* trace = nullptr;
    /// Durable checkpoint/WAL (not owned); nullptr disables durability
    /// and crash-recovery (the directory then runs as generation 1
    /// forever — the seed behavior). With a store, construction replays
    /// the checkpoint, bumps the generation, and — when the previous
    /// generation left checkpointed views behind — runs the CM-assisted
    /// rebuild round (PROTOCOL.md, "Directory crash-recovery").
    DurabilityStore* durability = nullptr;
    /// Compact the WAL after this many appends since the last
    /// compaction (0 disables compaction).
    std::size_t compact_threshold = 4096;
    // ---- admission control (PROTOCOL.md "Flow control & overload") ----
    /// Global cap on concurrently open demand-fetch rounds. A pull that
    /// would open a round past the cap is answered with msg::Busy
    /// instead (shed.pull counter); pulls that need no fetch round are
    /// always served. 0 = unlimited (the seed behavior).
    std::size_t max_fetch_rounds = 0;
    /// Cap on queued strong-mode acquires (the in-flight one excluded).
    /// An acquire past the cap is answered with msg::Busy (shed.acquire
    /// counter). 0 = unlimited.
    std::size_t max_acquire_queue = 0;
    /// retry_after hint stamped into Busy replies. Cache managers back
    /// off (jittered) at least this long before re-issuing.
    sim::Duration busy_retry_after = sim::msec(100);
    // ---- view migration (PROTOCOL.md "View migration & CM journaling") --
    /// Chaos/test hook fired at every migration phase transition
    /// (MigratePhase below), synchronously inside directory processing —
    /// deterministic under the simulated fabric. Not owned.
    std::function<void(ViewId view, int phase)> on_migrate_phase;
  };

  /// Migration FSM phases, reported through Config::on_migrate_phase.
  enum MigratePhase : int {
    kMigrateQuiesce = 0,  ///< ViewMoveReq sent; awaiting HandoffState
    kMigrateHandoff = 1,  ///< handoff merged; ViewMoveInstall sent
    kMigrateDone = 2,     ///< destination acked; record rebound
    kMigrateAborted = 3,  ///< a phase timed out; view stays at the source
  };

  DirectoryManager(net::Fabric& fabric, net::Address self,
                   PrimaryAdapter& primary, Config cfg);
  DirectoryManager(net::Fabric& fabric, net::Address self,
                   PrimaryAdapter& primary)
      : DirectoryManager(fabric, self, primary, Config{}) {}
  ~DirectoryManager() override;

  DirectoryManager(const DirectoryManager&) = delete;
  DirectoryManager& operator=(const DirectoryManager&) = delete;

  /// Install statically-known sharing relationships (entries default to
  /// Relation::kDynamic). Re-indexes every registered view.
  void set_static_map(StaticMap m);

  /// Open a live migration of view `v` to the cache manager awaiting
  /// installation at `dest` (PROTOCOL.md, "View migration & CM
  /// journaling"). Returns false — and counts migrate.rejected — when
  /// the view is unknown, already migrating, or the directory is mid
  /// rebuild. The move runs asynchronously; outcome is observable via
  /// the migrate.* counters and Config::on_migrate_phase.
  bool begin_migration(ViewId v, net::Address dest);

  /// Migrations currently in flight (tests/benches).
  [[nodiscard]] std::size_t migrations_inflight() const noexcept {
    return migrations_.size();
  }

  void on_message(const net::Message& m) override;

  // ---- out-of-band introspection (no protocol messages) --------------

  [[nodiscard]] net::Address address() const noexcept { return self_; }
  [[nodiscard]] Version version() const noexcept { return version_; }
  /// Directory incarnation (generation fencing). 1 on first boot,
  /// bumped on every restart from a DurabilityStore.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }
  /// True while the post-restart rebuild round is still collecting
  /// RebuildReply re-announcements (acquires queue, nothing is granted).
  [[nodiscard]] bool rebuilding() const noexcept { return rebuilding_; }
  [[nodiscard]] std::size_t registered_count() const noexcept {
    return views_.size();
  }
  [[nodiscard]] bool known(ViewId v) const { return find(v) != nullptr; }
  [[nodiscard]] bool is_active(ViewId v) const;
  [[nodiscard]] bool is_exclusive(ViewId v) const;
  [[nodiscard]] Mode mode_of(ViewId v) const;
  /// Primary version `v` last synchronised with (0 for unknown views).
  [[nodiscard]] Version last_sync(ViewId v) const;

  /// Remote unseen updates for `v` right now (the paper's data-quality
  /// metric; Figures 5 and 6 sample this).
  [[nodiscard]] std::uint64_t quality(ViewId v) const;

  /// Views whose data conflicts with `v` (static map or dynConfl), in
  /// ascending id order; empty for unknown views. The reference is into
  /// the conflict index and is invalidated by the next message.
  [[nodiscard]] const std::vector<ViewId>& conflicting_views(ViewId v) const;

  /// Do two registered views conflict?
  [[nodiscard]] bool conflicts(ViewId a, ViewId b) const;

  /// Directory-local operation counters (op.pull, op.fetch_round, ...).
  [[nodiscard]] const sim::CounterSet& stats() const noexcept {
    return stats_;
  }

  [[nodiscard]] const MergeLog& merge_log() const noexcept { return log_; }

 private:
  struct ViewRecord {
    ViewId id = kInvalidViewId;
    net::Address cache_addr;
    std::string name;
    props::PropertySet properties;
    Mode mode = Mode::kWeak;
    std::optional<trigger::Trigger> validity;
    std::string validity_src;  // trigger source, kept for checkpointing
    bool active = false;     // holds a valid working copy
    bool exclusive = false;  // strong-mode ownership
    Version last_sync = 0;
    sim::Time last_seen_at = 0;  // liveness: last message from this view
    /// Life number of the serving cache manager; a journal-replaying
    /// resume must register with a strictly greater incarnation.
    std::uint64_t incarnation = 1;
  };
  using ViewMap = std::map<ViewId, ViewRecord>;

  /// One view id's slot in the conflict adjacency index (PERFORMANCE.md,
  /// "Directory conflict index").
  struct IndexEntry {
    /// Its node in views_ (nodes never move); nullptr while the id is
    /// not registered.
    ViewRecord* rec = nullptr;
    /// The registered views this one conflicts with, ascending.
    /// Maintained by link()/unlink().
    std::vector<ViewId> neighbours;
  };

  /// An insertion-ordered map of at most `cap` entries: filing a new key
  /// past the cap forgets the oldest one, and a key already present
  /// keeps its age. The settled-round archives, the merged-op markers
  /// and the migration outcomes are such windows.
  template <typename K, typename V>
  class Window {
   public:
    explicit Window(std::size_t cap) : cap_(cap) {}
    [[nodiscard]] V* find(const K& key) {
      auto it = entries_.find(key);
      return it == entries_.end() ? nullptr : &it->second;
    }
    /// The entry for `key`, created if absent.
    V& file(const K& key) {
      auto [it, inserted] = entries_.try_emplace(key);
      if (inserted) {
        order_.push_back(key);
        if (order_.size() > cap_) {
          entries_.erase(order_.front());
          order_.pop_front();
        }
      }
      return it->second;
    }
    [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }
    /// Visit every entry, oldest first.
    template <typename F>
    void for_each(F&& visit) const {
      for (const K& key : order_) visit(key, entries_.at(key));
    }

   private:
    std::size_t cap_;
    std::map<K, V> entries_;
    std::deque<K> order_;
  };

  /// One in-flight view migration (per-view FSM; see MigratePhase).
  struct PendingMigration {
    ViewId view = kInvalidViewId;
    std::uint64_t epoch = 0;
    net::Address src;
    net::Address dest;
    int phase = kMigrateQuiesce;
    net::TimerId resend_timer = net::kInvalidTimerId;
    std::size_t resends_left = 0;
  };

  /// How a settled migration ended, replayed to a source that resends
  /// its HandoffState.
  struct MigrationOutcome {
    std::uint64_t epoch = 0;
    bool aborted = false;
  };

  /// A round asks every active conflicting view to extract its updates
  /// and merges them into the primary (paper Figure 2): a validity-
  /// triggered demand fetch for a pull, or the invalidation before a
  /// strong-mode grant. The value indexes kind_info() and archives_.
  enum class RoundKind : std::uint8_t { kFetch = 0, kInvalidate = 1 };

  /// What differs between the two kinds: message tags, counter names,
  /// merge path labels, and the WAL namespace.
  struct RoundKindInfo {
    const char* command;      ///< FetchReq / InvalidateReq
    const char* reply;        ///< FetchReply / InvalidateAck
    const char* sent;         ///< counted per command at opening
    const char* retry;        ///< counted per command resent
    const char* timeout;      ///< the round settled on its timeout
    const char* late;         ///< a reply arrived after the round settled
    const char* late_merged;  ///< ...and merged from the archive
    const char* path;         ///< merge path of a live reply
    const char* late_path;    ///< merge path of a late reply
    const char* echo_path;    ///< merge path of a push-borne echo
    std::uint8_t ns;          ///< WalRecord::ns of its round records
  };
  [[nodiscard]] static const RoundKindInfo& kind_info(RoundKind kind);

  /// The exactly-once state of one round, kept in the settled-round
  /// archive after the round closes.
  struct RoundLedger {
    /// Property snapshot per target: a reply must merge even if its
    /// source was liveness-evicted while it was in flight (its extracted
    /// deltas exist nowhere else).
    std::map<ViewId, props::PropertySet> target_props;
    /// Targets whose extraction has merged (reply or echo); the guard
    /// against merging the same extraction twice.
    std::set<ViewId> merged;
  };

  /// One open round. Fetch rounds run many at once; invalidation rounds
  /// one at a time, behind the FIFO acquire queue.
  struct Round {
    RoundKind kind = RoundKind::kFetch;
    /// Fetch token or invalidate epoch; epochs share their id space with
    /// migrations.
    std::uint64_t id = 0;
    ViewId requester = kInvalidViewId;
    std::uint64_t req = 0;  // request id to echo in the reply
    /// Trace span of the originating pull or acquire (obs::span_id of
    /// the requester's address and req); 0 when tracing is off.
    std::uint64_t span = 0;
    std::set<ViewId> outstanding;  // targets yet to answer
    RoundLedger ledger;
    net::TimerId timeout = net::kInvalidTimerId;
    net::TimerId resend_timer = net::kInvalidTimerId;
    std::size_t resends_left = 0;
    std::uint64_t unseen_before = 0;  // the pull's quality, for PullReply
  };

  /// Settled rounds of one kind by id, kept in a bounded window so a
  /// straggler reply or push-borne echo (msg::DeltaEcho) of an
  /// extraction that never arrived in time can still be merged exactly
  /// once.
  using SettledRounds = Window<std::uint64_t, RoundLedger>;

  /// One slot of the per-sender idempotent-replay window.
  struct DedupEntry {
    std::uint64_t req = 0;
    bool completed = false;  // false: still executing (round in flight)
    std::string type;        // cached reply (valid once completed)
    std::any payload;
    std::size_t bytes = 0;
  };

  // message handlers
  void handle_register(const net::Message& m);
  void handle_init(const net::Message& m);
  void handle_pull(const net::Message& m);
  void handle_push(const net::Message& m);
  void handle_acquire(const net::Message& m);
  void handle_mode_change(const net::Message& m);
  void handle_kill(const net::Message& m);
  void handle_heartbeat(const net::Message& m);
  void handle_rebuild_reply(const net::Message& m);
  void handle_handoff_state(const net::Message& m);
  void handle_view_move_ack(const net::Message& m);

  // migration helpers
  using MigrationMap = std::map<ViewId, PendingMigration>;
  /// Send the phase's ViewMoveReq (quiesce) or ViewMoveInstall (handoff)
  /// and arm its resend.
  void send_phase(PendingMigration& mig);
  void on_migrate_timeout(ViewId v);
  void abort_migration(ViewId v, const char* why);
  /// Close the migration: record its outcome, tell the source (and,
  /// after an aborted install, the destination), fire the phase hook and
  /// resume arbitration.
  void settle_migration(MigrationMap::iterator it, bool aborted);
  [[nodiscard]] bool migrating(ViewId v) const {
    return migrations_.count(v) != 0;
  }

  // helpers
  /// Where registration data lands (fresh registration, journal resume,
  /// rebuild re-announce, WAL replay): unlink rec if it is indexed, set
  /// the fields, and link it again.
  void describe(ViewRecord& rec, const std::string& name,
                const props::PropertySet& properties, Mode mode,
                const std::string& validity_src,
                std::optional<trigger::Trigger> validity);
  ViewRecord* find(ViewId v);
  const ViewRecord* find(ViewId v) const;
  /// find(), nacking a framed request from an unknown view.
  ViewRecord* find_or_nack(const net::Address& from, ViewId v,
                           std::uint64_t req);

  // conflict adjacency index (PERFORMANCE.md, "Directory conflict index")
  /// The conflict rule of paper §4.1: the static map first, Definition
  /// 1's dynConfl on property sets for kDynamic pairs. Only the index
  /// calls it.
  [[nodiscard]] bool rule_conflicts(const ViewRecord& a,
                                    const ViewRecord& b) const;
  /// Index rec, a node of views_: fill its neighbour list (empty on
  /// entry) from every other registered view and add rec to each
  /// neighbour's list. O(views).
  void link(ViewRecord& rec);
  /// Remove rec from each neighbour's list and clear its own.
  void unlink(ViewRecord& rec);
  /// Deregister: unlink, retire the view's merge-log records, erase.
  /// Returns the record after `it`.
  ViewMap::iterator drop_view(ViewMap::iterator it);
  void touch(ViewRecord& rec) { rec.last_seen_at = fabric_.now(); }
  /// Merge a dirty image into the primary. `path` labels the protocol
  /// path that delivered the extraction ("push", "kill", "fetch",
  /// "invalidate", the late_/echo. variants); `round` is the fetch
  /// token or invalidate epoch (0 for push/kill); `span` the
  /// originating op's span. All three are trace/monitor metadata only.
  void merge_update(const ObjectImage& image, ViewId source,
                    const props::PropertySet& touched, const char* path,
                    std::uint64_t round, std::uint64_t span);
  void start_next_acquire();

  // rounds (PROTOCOL.md, "Delta echoes and the settled-round archive")
  /// Snapshot the targets' properties, checkpoint and send the round's
  /// commands, arm its timers, and file it as open. The caller fills in
  /// kind, id, requester, req, span, outstanding and unseen_before.
  void open_round(Round r);
  /// The open round (kind, id), or nullptr.
  Round* find_round(RoundKind kind, std::uint64_t id);
  /// The settled rounds of `kind`. Settling, WAL replay, and reviving a
  /// pre-crash round the checkpoint lost all file into it.
  SettledRounds& archive(RoundKind kind) {
    return archives_[static_cast<std::size_t>(kind)];
  }
  void send_command(const Round& r, const ViewRecord& target,
                    obs::EventKind event);
  /// Arm the round's timeout (resend == false) or its next resend.
  void arm_round_timer(Round& r, bool resend);
  void on_round_timer(RoundKind kind, std::uint64_t id, bool resend);
  /// A FetchReply or InvalidateAck: merge live, drop a duplicate, or
  /// merge late from the archive (reviving a pre-crash round).
  void handle_round_reply(RoundKind kind, std::uint64_t id, ViewId view,
                          bool dirty, const ObjectImage& image);
  /// Merge `view`'s extraction into the primary once, with the live
  /// record's properties or the ledger's snapshot; false when neither
  /// is known.
  bool merge_round_image(RoundKind kind, std::uint64_t id,
                         RoundLedger& ledger, ViewId view,
                         const ObjectImage& image, const char* path,
                         std::uint64_t span);
  /// Invalidation only: the target surrendered its copy.
  void release_target(ViewId v);
  /// Close the round, archive it, and answer its requester (an
  /// invalidation then starts the next queued acquire).
  void complete_round(Round& open);
  /// Remove the round from the open set, cancel its timers, and archive
  /// its ledger; returns the closed round.
  Round close_round(Round& open);
  void cancel_timers(Round& r);
  /// The completion reply: PullReply or AcquireGrant, if the requester
  /// is still registered.
  void answer_requester(const Round& r);
  /// Merge push/kill-borne reply echoes, each at most once.
  void process_echoes(const std::vector<msg::DeltaEcho>& echoes);
  void complete_fetch_or_acquire_for_dead_view(ViewId v);
  void maybe_prune_log();
  /// Cancel `timer` if armed, and disarm it.
  void cancel(net::TimerId& timer);
  /// Type-erase an outgoing payload through the slot pool. The dedup
  /// window caches the same handle, so a replay costs one refcount bump,
  /// not a copy.
  template <typename T>
  std::any box(T value) {
    net::PoolPtr<T> slot = pools_.acquire<T>();
    *slot = std::move(value);
    return std::any(std::move(slot));
  }
  /// Send one message: count its wire bytes, then box it.
  template <typename T>
  void send(const net::Address& to, const char* type, T value) {
    const std::size_t bytes = msg::wire_size(value);
    fabric_.send(self_, to, type, box(std::move(value)), bytes);
  }
  /// Like send(), through the dedup-caching reply() below.
  template <typename T>
  void reply(const net::Address& to, std::uint64_t req, const char* type,
             T value) {
    const std::size_t bytes = msg::wire_size(value);
    reply(to, req, type, box(std::move(value)), bytes);
  }

  // reliability helpers
  DedupEntry* find_dedup(const net::Address& from, std::uint64_t req);
  void note_in_progress(const net::Address& from, std::uint64_t req);
  /// Send a reply and cache it in the sender's dedup window.
  void reply(const net::Address& to, std::uint64_t req, const char* type,
             std::any payload, std::size_t bytes);
  /// Reject a framed request: tell the sender its registration (or
  /// generation) is stale. Never cached — re-execution after
  /// reconnect/retry is the intended path.
  void send_nack(const net::Address& to, ViewId view, std::uint64_t req,
                 const char* reason = "unknown view (stale registration)");
  /// Shed an over-admission request: answer msg::Busy(retry_after).
  /// Like send_nack, never cached in the dedup window — the request did
  /// not execute, and re-executing the retry later is the point.
  void send_busy(const net::Address& to, ViewId view, std::uint64_t req,
                 const char* reason);
  /// Drop the in-progress dedup slot noted for a request we ultimately
  /// shed, so its post-Busy retry is not mistaken for a duplicate of a
  /// round in flight.
  void forget_in_progress(const net::Address& from, std::uint64_t req);
  void arm_liveness_timer();
  void liveness_sweep();

  // durability / recovery helpers
  /// Append one record to the WAL (no-op without a store); triggers
  /// compaction past cfg_.compact_threshold.
  void wal_append(const WalRecord& rec);
  [[nodiscard]] WalRecord register_record(const ViewRecord& rec) const;
  /// A kRoundOpen (with the target's property snapshot) or kRoundMerge
  /// checkpoint record.
  [[nodiscard]] static WalRecord round_record(
      WalKind wal, RoundKind kind, std::uint64_t round, ViewId v,
      const props::PropertySet& props = {});
  /// A merged-op marker: the sender's (node, port) and request id.
  using MergedOpKey = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>;
  /// The kOpMerged checkpoint record of one merged-op marker.
  [[nodiscard]] static WalRecord op_record(const MergedOpKey& key);
  /// Merge a push, kill or handoff image from `rec` once per (sender,
  /// request id), recording (and persisting) the merge so a post-restart
  /// re-issue is acked without re-merging (counted as `replayed`).
  void merge_op(const net::Address& from, std::uint64_t req,
                const ViewRecord& rec, const ObjectImage& image,
                const char* path, const char* replayed);
  /// Rebuild in-memory state from the checkpoint (constructor only).
  std::size_t replay_checkpoint(const std::vector<WalRecord>& records);
  void compact_wal();
  void start_rebuild();
  /// A DirectoryRebuild probe to rec's cache manager; `event` tells the
  /// first probe from a resend.
  void send_probe(const ViewRecord& rec, obs::EventKind event);
  void arm_rebuild_resend();
  void finish_rebuild();
  /// A round id minted by a previous incarnation (its generation bits
  /// are below ours)? Only meaningful after a restart.
  [[nodiscard]] bool pre_crash_round(std::uint64_t round) const {
    return generation_ > 1 && (round >> 32) < generation_;
  }

  net::Fabric& fabric_;
  net::Address self_;
  PrimaryAdapter& primary_;
  Config cfg_;

  StaticMap static_map_;
  /// Registered views in id order: the WAL snapshot, rebuild probes and
  /// liveness sweep iterate it, so their output order is fixed.
  ViewMap views_;
  /// The conflict index, one slot per view id issued so far: ids are
  /// dense from 1 and never reused, so a departed view leaves an empty
  /// slot behind. Changed only with views_, through link() and
  /// drop_view(). Also the lookup behind find(): one array access, so a
  /// per-op walk over a neighbour list touches the slot and the list
  /// even when the records are cold.
  std::vector<IndexEntry> index_;
  ViewId next_view_id_ = 1;
  Version version_ = 0;
  sim::Time last_merge_at_ = 0;
  MergeLog log_;

  std::map<std::uint64_t, Round> fetch_rounds_;  // by token
  std::uint64_t next_token_ = 1;
  /// Settled rounds, indexed by RoundKind.
  std::array<SettledRounds, 2> archives_;

  // Strong-mode acquires are processed strictly FIFO, one at a time.
  std::vector<msg::AcquireReq> acquire_queue_;
  std::optional<Round> invalidation_;
  std::uint64_t next_epoch_ = 1;

  // ---- view migration --------------------------------------------------
  MigrationMap migrations_;
  /// Recently settled migrations by view, kept in a bounded window so a
  /// source still retransmitting HandoffState after completion gets its
  /// ViewMoveDone replayed instead of a spurious abort.
  Window<ViewId, MigrationOutcome> migration_outcomes_;

  /// Idempotent-replay windows, keyed by cache-manager address (stable
  /// across reconnects, unlike view ids).
  std::unordered_map<net::Address, std::deque<DedupEntry>, net::AddressHash>
      dedup_;
  net::TimerId liveness_timer_ = net::kInvalidTimerId;

  // ---- crash recovery (PROTOCOL.md, "Directory crash-recovery") -------
  /// Incarnation number stamped into every outgoing message. Token,
  /// epoch, and version counters are generation-scoped (counter ids
  /// carry the generation in their top 32 bits) so ids from different
  /// incarnations never collide.
  std::uint64_t generation_ = 1;
  bool rebuilding_ = false;
  std::set<ViewId> rebuild_awaiting_;
  net::TimerId rebuild_timer_ = net::kInvalidTimerId;
  net::TimerId rebuild_resend_timer_ = net::kInvalidTimerId;
  std::size_t rebuild_resends_left_ = 0;
  std::size_t wal_appends_since_compact_ = 0;
  /// Bounded (address, request id) window of merged push/kill/handoff
  /// requests, replayed from the WAL so a post-restart re-issue of an
  /// already-merged request is acked without a double merge.
  Window<MergedOpKey, std::monostate> merged_ops_;

  /// Per-payload-type slot pools behind box().
  net::PoolSet pools_;

  sim::CounterSet stats_;
  /// Lamport clock for causal trace stamping; mirrors
  /// CacheManager::clock_ (see there).
  obs::CausalClock clock_;
};

}  // namespace flecc::core

// The Flecc cache manager (paper §4.2, Figure 3).
//
// One cache manager accompanies each deployed view. It exposes the
// paper's view-facing API — initImage / pullImage / pushImage /
// startUseImage / endUseImage / killImage plus run-time mode changes —
// forwards requests to the directory manager, executes its commands
// (invalidations, demand fetches), and evaluates the view's push/pull
// quality triggers against the view's variable registry.
//
// All operations are asynchronous: the optional completion callback
// fires when the protocol exchange finishes. Operations are serialized
// FIFO per cache manager (views are sequential programs, Figure 3).
//
// Reliability layer (PROTOCOL.md, "Fault model & reliability layer"):
// every request carries a monotonic request id; a per-request timeout
// retransmits with exponential backoff + deterministic jitter up to
// RetryPolicy::max_attempts, after which the op fails over to
// reconnect(). Optional liveness heartbeats detect a dead or restarted
// directory and trigger reconnect() automatically. On the lossless path
// none of this machinery sends a single extra message.
//
// Trigger time semantics: within a push (resp. pull) trigger, the
// builtin `t` is the number of milliseconds since this view's last push
// (resp. pull), so "(t > 1500)" reads "synchronize every 1.5 s".
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/adapters.hpp"
#include "core/durability.hpp"
#include "core/flow_control.hpp"
#include "core/messages.hpp"
#include "core/reliability.hpp"
#include "core/types.hpp"
#include "net/fabric.hpp"
#include "net/pool.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "trigger/trigger.hpp"

namespace flecc::core {

class CacheManager : public net::Endpoint {
 public:
  struct Config {
    /// Component type name; the static map is keyed by it.
    std::string view_name = "view";
    /// The view's data properties (which data it shares).
    props::PropertySet properties;
    /// Initial consistency mode.
    Mode mode = Mode::kWeak;
    /// Trigger sources; empty = absent. Validity is evaluated at the
    /// directory; push/pull are evaluated here on a polling timer.
    std::string push_trigger;
    std::string pull_trigger;
    std::string validity_trigger;
    /// How often push/pull triggers are (re)evaluated.
    sim::Duration trigger_poll = sim::msec(100);
    /// Request retransmission policy (reliable delivery).
    RetryPolicy retry;
    /// Liveness heartbeat cadence; 0 disables heartbeats.
    sim::Duration heartbeat_interval = 0;
    /// Consecutive unacked heartbeats tolerated before reconnect().
    std::size_t heartbeat_miss_limit = 3;
    /// WEAK-mode write buffer (PERFORMANCE.md): absorb up to this many
    /// consecutive pushes locally — the push completes immediately and
    /// its deltas keep accumulating in the view — before one combined
    /// PushUpdate goes out; 0 disables. Every real extraction (the
    /// next non-absorbed push, a served fetch/invalidate, a kill)
    /// naturally carries the accumulated deltas, so no update is lost
    /// (monitor invariant I3). STRONG-mode pushes are never absorbed.
    std::size_t write_buffer_ops = 0;
    /// Piggyback liveness on regular traffic (PERFORMANCE.md): skip a
    /// timed heartbeat when anything was sent to the directory within
    /// the last heartbeat interval, and let ANY directory-originated
    /// message clear the miss counter (each proves liveness as well as
    /// a HeartbeatAck does — without this dedupe, a lost ack would
    /// keep incrementing the miss counter even while replies flow,
    /// forcing a spurious reconnect). Cuts beacon traffic on busy
    /// managers to ~zero.
    bool piggyback_heartbeats = false;
    /// Circuit breaker toward the directory (PROTOCOL.md "Flow control
    /// & overload"): consecutive Busy replies / retry failovers before
    /// bulk traffic is suspended; 0 disables the breaker.
    std::size_t breaker_threshold = 0;
    /// Minimum time an open breaker suspends bulk traffic; a Busy's
    /// retry_after extends (never shortens) the window.
    sim::Duration breaker_open_timeout = sim::msec(500);
    /// Degradation ladder: when the breaker opens while in STRONG mode,
    /// fall back to buffered WEAK writes (the write buffer keeps pushes
    /// local) until the breaker closes, then restore STRONG.
    bool degrade_on_overload = false;
    /// Observer for terminal give-ups (RetryPolicy::deadline expired);
    /// the argument names the abandoned operation ("pull", ...).
    std::function<void(const char*)> on_give_up;
    /// Optional protocol trace sink (not owned); nullptr = no tracing.
    /// See OBSERVABILITY.md for the events this manager emits.
    obs::TraceBuffer* trace = nullptr;
    // ---- dynamic reconfiguration (PROTOCOL.md "View migration & CM
    // journaling") ---------------------------------------------------
    /// Write-ahead journal (not owned): buffered WEAK writes and
    /// unacked push/kill intents are journaled, so a crashed manager
    /// restarted on the SAME store replays them, resumes its view
    /// (same view id, bumped incarnation), and re-delivers every
    /// buffered update exactly once instead of losing it. nullptr
    /// disables journaling (the seed behavior: a crash loses whatever
    /// the write buffer held).
    DurabilityStore* journal = nullptr;
    /// Start idle as a migration destination: skip registration and
    /// wait for a ViewMoveInstall to adopt a migrating view.
    bool await_migration = false;
  };

  using Done = std::function<void()>;

  /// Construction registers with the directory (Figure 2, steps 1-2);
  /// operations issued before the ack arrives are queued.
  CacheManager(net::Fabric& fabric, net::Address self, net::Address directory,
               ViewAdapter& view, Config cfg);
  ~CacheManager() override;

  CacheManager(const CacheManager&) = delete;
  CacheManager& operator=(const CacheManager&) = delete;

  // ---- the Figure 3 API ----------------------------------------------

  /// Fetch the initial data image (cm.initImage()).
  void init_image(Done done = {});
  /// Refresh from the primary (cm.pullImage()); honors the validity
  /// trigger at the directory.
  void pull_image(Done done = {});
  /// Send current updates to the primary (explicit push).
  void push_image(Done done = {});
  /// Enter the mutually-exclusive work section (cm.startUseImage()).
  /// In strong mode this acquires exclusivity (invalidating conflicting
  /// active views); in weak mode it revalidates if needed.
  void start_use_image(Done done = {});
  /// Leave the work section; `modified` marks the image dirty. Deferred
  /// invalidations/fetches are served here.
  void end_use_image(bool modified = true);
  /// Change consistency mode at run time.
  void set_mode(Mode m, Done done = {});
  /// Deregister, surrendering final updates (cm.killImage()).
  void kill_image(Done done = {});

  /// Fail-safe recovery (§4.1 notes the centralized protocol assumes a
  /// live original component and that "fail-safe mechanisms can be
  /// implemented"): reconnect to a (re)started directory manager.
  /// Re-registers with the original configuration, re-initializes the
  /// image, re-pushes dirty local state, and re-issues the abandoned
  /// in-flight operation (its request id is preserved, so a directory
  /// that already executed it replays the cached reply instead of
  /// re-executing); previously queued operations then continue.
  /// Invoked automatically when a request exhausts its retry budget or
  /// heartbeats report the registration lost.
  void reconnect(Done done = {});

  /// Read/write-semantics extension (§6): annotate subsequent
  /// pulls/acquires with an access intent.
  void set_intent(AccessIntent intent) noexcept { intent_ = intent; }

  /// Simulate a silent process crash (chaos testing): unbind from the
  /// fabric, cancel every timer, drop all queued and in-flight work
  /// without invoking completions, and ignore all future API calls and
  /// messages. No teardown protocol runs — the directory discovers the
  /// death only via liveness eviction or round timeouts.
  void halt();
  [[nodiscard]] bool halted() const noexcept { return halted_; }

  // ---- introspection ----------------------------------------------------

  [[nodiscard]] ViewId id() const noexcept { return id_; }
  [[nodiscard]] net::Address address() const noexcept { return self_; }
  [[nodiscard]] bool registered() const noexcept { return registered_; }
  [[nodiscard]] bool rejected() const noexcept { return rejected_; }
  [[nodiscard]] const std::string& reject_reason() const noexcept {
    return reject_reason_;
  }
  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] bool valid() const noexcept { return valid_; }
  [[nodiscard]] bool exclusive() const noexcept { return exclusive_; }
  [[nodiscard]] bool in_use() const noexcept { return in_use_; }
  [[nodiscard]] bool dirty() const noexcept { return dirty_; }
  [[nodiscard]] bool alive() const noexcept { return alive_; }
  [[nodiscard]] Version last_version() const noexcept { return last_version_; }
  /// Queued (not yet issued) operations — wedge diagnostics.
  [[nodiscard]] std::size_t queued_ops() const noexcept {
    return queue_.size();
  }
  /// True while an operation awaits its reply (or a retransmission).
  [[nodiscard]] bool op_in_flight() const noexcept {
    return current_.has_value();
  }
  /// Quality reported by the most recent pull (remote unseen updates).
  [[nodiscard]] std::uint64_t last_pull_unseen() const noexcept {
    return last_pull_unseen_;
  }
  [[nodiscard]] std::uint64_t notifies_received() const {
    return stats_.get("notify.received");
  }
  /// Highest directory generation observed (generation fencing). 0
  /// until the first stamped directory message arrives.
  [[nodiscard]] std::uint64_t dir_generation() const noexcept {
    return dir_generation_;
  }
  [[nodiscard]] const sim::CounterSet& stats() const noexcept {
    return stats_;
  }
  /// Pushes currently absorbed by the write buffer (deltas pending in
  /// the view, not yet surrendered); resets to 0 at every extraction.
  [[nodiscard]] std::size_t write_buffer_depth() const noexcept {
    return wbuf_streak_;
  }
  /// Circuit-breaker state toward the directory (overload diagnostics).
  [[nodiscard]] flow::BreakerState breaker_state() const noexcept {
    return breaker_.state();
  }
  /// True while overload degraded a STRONG manager to buffered WEAK.
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }
  /// True while quiesced for a view migration (HandoffState in flight).
  [[nodiscard]] bool sealed() const noexcept { return handoff_.has_value(); }
  /// True once a migration moved this manager's view away for good.
  [[nodiscard]] bool moved() const noexcept { return moved_; }
  /// This manager's life number (journal-derived; 1 on a fresh store).
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_;
  }
  /// View id the journal asked to resume (kInvalidViewId = fresh).
  [[nodiscard]] ViewId resumed_view() const noexcept { return resume_view_; }

  void on_message(const net::Message& m) override;

 private:
  enum class OpKind { kInit, kPull, kPush, kAcquire, kModeChange, kKill };

  /// What differs by op kind: the trace label of its lifecycle events
  /// ("pull", ...), the wire types of its request and of the reply it
  /// awaits, and whether it is bulk (sheddable and breaker-gated: the
  /// load generators). kOpSpecs is indexed by OpKind.
  struct OpSpec {
    const char* label;
    const char* request;
    const char* reply;
    bool bulk;
  };
  static const OpSpec kOpSpecs[];
  static const OpSpec& spec(OpKind k) noexcept {
    return kOpSpecs[static_cast<std::size_t>(k)];
  }

  /// The three retransmitted exchanges: registration, the in-flight op,
  /// and a migration handoff. At most one of each is in flight, so each
  /// kind has one retry timer (retry_timers_).
  enum class ExchangeKind { kRegister, kOp, kHandoff };
  /// The state a retransmitted exchange keeps between sends.
  struct Exchange {
    /// Request id: the directory's idempotency key. An op keeps it
    /// across retransmissions AND reconnect() re-issues (the dedup
    /// window is keyed by (address, req)); a handoff's delta merges
    /// exactly once under it.
    std::uint64_t req = 0;
    /// Sends so far (first transmission included).
    std::size_t attempts = 0;
    /// First send; anchors RetryPolicy::deadline across
    /// retransmissions, Busy back-offs, and reconnect() re-issues. -1
    /// until then (0 is a valid simulated time — exchanges started at
    /// t=0 must still hit deadlines).
    sim::Time first_sent_at = -1;
  };

  struct Op {
    Op(OpKind k, Mode m, Done d)
        : kind(k), new_mode(m), done(std::move(d)) {}
    OpKind kind;
    Mode new_mode = Mode::kWeak;  // for kModeChange
    Done done;
    /// Its request id is assigned at first issue.
    Exchange ex;
    /// Push/kill extract the view's pending deltas exactly once; the
    /// image is cached here so retransmissions resend the same deltas
    /// (ViewAdapter::extract_from_view moves them out of the view).
    std::optional<ObjectImage> image;
    /// Push/kill: the unconfirmed reply echoes snapshotted at first
    /// issue; the op's ack confirms exactly these.
    std::vector<msg::DeltaEcho> echoes;
  };

  /// The two directory commands (Figure 2). Each is served once and
  /// answered fire-and-forget; kCommandSpecs (cache_manager.cpp) holds
  /// what differs by kind.
  enum class Command { kInvalidate, kFetch };
  /// A served command's reply, kept so a resent command replays it
  /// instead of extracting again (extraction moves deltas out of the
  /// view).
  struct ServedCommand {
    std::uint64_t round = 0;  // invalidate epoch or fetch token
    ViewId view = kInvalidViewId;
    bool dirty = false;
    ObjectImage image;
  };
  /// Per command kind: the rounds a use section deferred, and the
  /// replay window of served replies.
  struct CommandLedger {
    std::vector<std::uint64_t> deferred;
    std::vector<ServedCommand> served;
    std::size_t next = 0;  // replies served; next % window is the oldest
  };
  CommandLedger& ledger(Command c) noexcept {
    return commands_[static_cast<std::size_t>(c)];
  }

  void enqueue(Op op);
  void pump();
  /// Send (or retransmit) the in-flight op.
  void issue();
  bool accept_reply(OpKind kind, std::uint64_t req);
  void complete_current();
  /// RetryPolicy::deadline expired: abandon the in-flight op terminally
  /// (its completion still fires so callers never wedge).
  void give_up_current(const char* why);
  /// Complete every queued op without running it (registration failed
  /// or the view is gone); callers observe why through rejected(),
  /// alive() or moved().
  void fail_queued();
  /// The view left this manager (killed, moved away, or uninstalled at
  /// a destination): clear the copy's flags, stop the trigger poll and
  /// heartbeats, and wipe the journal so a restart cannot resurrect it.
  void retire();
  void cancel(net::TimerId& timer);
  /// Cancel every timer and leave the fabric (halt() and the destructor).
  void detach();
  /// breaker.* counters, trace, and the degradation ladder.
  void on_breaker_transition(flow::BreakerState from, flow::BreakerState to);

  // ---- retransmission (PROTOCOL.md "Request-id framing") ----------------
  net::TimerId& retry_timer(ExchangeKind k) noexcept {
    return retry_timers_[static_cast<std::size_t>(k)];
  }
  /// The attempt step of every exchange: count the send, anchor the
  /// deadline at the first one, and arm the retry timer (which fires
  /// on_retry_timeout(k)). Called before the send, so a reply handled on
  /// another thread finds the timer already armed.
  void next_attempt(Exchange& x, ExchangeKind k);
  [[nodiscard]] bool past_deadline(const Exchange& x) const;
  /// Trace kind of an exchange's latest send.
  static obs::EventKind send_event(const Exchange& x) noexcept {
    return x.attempts == 1 ? obs::EventKind::kMsgSent
                           : obs::EventKind::kMsgRetransmitted;
  }
  /// Retransmit, or apply the exchange's terminal rule.
  void on_retry_timeout(ExchangeKind k);
  void send_register();
  void send_handoff();

  void start_heartbeats();
  void stop_heartbeats();
  void heartbeat_tick();
  /// A directory command arrived: serve it, or defer it to
  /// end_use_image while a use section runs.
  void on_command(Command c, std::uint64_t round);
  /// Answer a command: extract if dirty, or replay a resend's reply.
  void serve(Command c, std::uint64_t round);
  /// Send `s` as the reply of kind `c`, stamped with the current
  /// generation.
  void send_reply(Command c, ServedCommand s);
  /// A restarted directory's rebuild probe: re-announce our
  /// registration, cached-copy state, and unconfirmed echoes, then
  /// re-issue the in-flight op under the new generation.
  void handle_rebuild_probe(const net::Message& m);
  /// Track a dirty reply image until the directory confirms it.
  void queue_echo(msg::DeltaEcho e);
  /// An acked push/kill confirms the echoes it carried.
  void confirm_echoes(const std::vector<msg::DeltaEcho>& confirmed);
  void arm_trigger_timer();
  void poll_triggers();
  /// Evaluate the `what` ("push"/"pull") trigger against the time since
  /// `since`; count and trace a firing.
  bool fires(const std::optional<trigger::Trigger>& t, sim::Time since,
             const char* what);
  /// Merge a fresh image from the directory (init, pull, grant, install)
  /// into the view: the copy is valid at that image's version.
  void adopt(const ObjectImage& image);
  ObjectImage extract_dirty();
  /// True when an explicit/triggered push may be absorbed by the
  /// write buffer instead of hitting the wire.
  [[nodiscard]] bool can_absorb_push() const noexcept;

  // ---- journaling & view migration (PROTOCOL.md "View migration & CM
  // journaling") -----------------------------------------------------
  /// Rebuild pre-crash state from cfg_.journal (constructor only):
  /// derives resume_view_/incarnation_/next_req_ and re-enqueues one
  /// push per unflushed intent plus one for the buffered write set.
  void replay_journal();
  void journal_append(WalRecord w);
  /// Journal the (view id, incarnation) binding after registration or
  /// install.
  void journal_bind();
  /// Journal an extracted-but-unacked push/kill/handoff image.
  void journal_intent(std::uint64_t req, const ObjectImage& image);
  /// The directory acked request `req`: its intent is durable there.
  void journal_flush(std::uint64_t req);
  /// Journal the cumulative buffered write set (every absorb).
  void journal_write_buffer();
  /// Rewrite the journal as a minimal snapshot of live state.
  void compact_journal();
  /// Allocate a request id, journaling a ceiling promise so a restart
  /// never re-mints an id the directory may already have seen.
  [[nodiscard]] std::uint64_t alloc_req();
  /// Seal for migration once quiescent (no use section, no in-flight or
  /// queued op); called from every place that could drain the last op.
  void try_seal();
  void seal();
  void handle_move_req(const net::Message& m);
  void handle_move_install(const net::Message& m);
  void handle_move_done(const net::Message& m);
  /// Abort path: resume serving and re-queue the sealed extraction as
  /// the push it is, under the SAME request id (the directory's
  /// exactly-once key absorbs an already-merged handoff).
  void unseal_resume();
  /// Send `value` to the directory in a pooled slot, and record the
  /// traffic for heartbeat piggybacking.
  template <typename T>
  void send_dir(const char* type, T value);

  net::Fabric& fabric_;
  net::Address self_;
  net::Address directory_;
  ViewAdapter& view_;
  Config cfg_;

  std::optional<trigger::Trigger> push_trigger_;
  std::optional<trigger::Trigger> pull_trigger_;

  ViewId id_ = kInvalidViewId;
  Mode mode_;
  AccessIntent intent_ = AccessIntent::kReadWrite;
  bool registered_ = false;
  bool rejected_ = false;
  std::string reject_reason_;
  bool alive_ = true;
  bool halted_ = false;
  bool valid_ = false;
  bool exclusive_ = false;
  bool in_use_ = false;
  bool dirty_ = false;
  Version last_version_ = 0;
  std::uint64_t last_pull_unseen_ = 0;

  sim::Time last_push_at_ = 0;
  sim::Time last_pull_at_ = 0;

  /// Highest directory generation seen in any stamped message; every
  /// send carries it back. Messages stamped with a lower generation are
  /// fenced (dropped) — they were minted by a crashed incarnation.
  std::uint64_t dir_generation_ = 0;

  std::deque<Op> queue_;
  std::optional<Op> current_;

  std::array<CommandLedger, 2> commands_;

  // ---- reliability state ------------------------------------------------
  sim::Rng retry_rng_;
  /// Breaker toward the (single) directory destination.
  flow::CircuitBreaker breaker_;
  /// STRONG manager currently degraded to buffered WEAK by overload.
  bool degraded_ = false;
  std::uint64_t next_req_ = 1;
  std::array<net::TimerId, 3> retry_timers_{};  // by ExchangeKind
  /// In-flight registration (the register exchange is not an Op: it
  /// gates the op queue). After max_attempts the retry cadence drops to
  /// a daemon timer at max_timeout, so an unreachable directory never
  /// wedges a run-to-quiescence simulation yet recovery stays
  /// self-driving once connectivity returns.
  Exchange register_;
  net::TimerId heartbeat_timer_ = net::kInvalidTimerId;
  std::uint64_t heartbeat_seq_ = 0;
  std::size_t heartbeat_unacked_ = 0;
  /// Dirty images extracted for FetchReply/InvalidateAck that the
  /// directory has not yet confirmed. Those replies are fire-and-forget,
  /// so each image also rides the next push/kill (msg::DeltaEcho) until
  /// that op is acked; otherwise a lost reply would silently drop the
  /// deltas (extraction moves them out of the view). Survives
  /// reconnect(): echoes are keyed by round id, not by incarnation.
  std::deque<msg::DeltaEcho> unconfirmed_echoes_;

  net::TimerId trigger_timer_ = net::kInvalidTimerId;

  // ---- dynamic reconfiguration state ------------------------------------
  /// Life number of this manager (1 on a fresh journal; last journaled
  /// binding + 1 after a restart). Sent with resume registrations.
  std::uint64_t incarnation_ = 1;
  /// View id to resume (journal-derived); cleared after the first
  /// successful registration so later reconnects register fresh.
  ViewId resume_view_ = kInvalidViewId;
  /// Highest request id the journal promises was never exceeded; a
  /// restart resumes allocation above it (no (address, req) reuse).
  std::uint64_t req_ceiling_ = 0;
  std::size_t journal_appends_ = 0;
  /// A ViewMoveReq arrived; sealing happens at the next quiescent point.
  bool move_requested_ = false;
  /// The view now lives at the migration destination; inert forever.
  bool moved_ = false;
  /// Epoch of the latest ViewMoveReq: the one we quiesce for, and once
  /// sealed the one the handoff travels under.
  std::uint64_t move_epoch_ = 0;
  /// Sealed (quiesced): the handoff is the push it becomes on abort,
  /// and HandoffState retransmits until ViewMoveDone settles it. Its
  /// request id is the directory's (address, req) exactly-once key for
  /// every send and re-push of the extraction; `image` is present iff
  /// the view was dirty; `echoes` are the unconfirmed echoes at sealing.
  std::optional<Op> handoff_;
  /// Destination side: epoch of the install we adopted (idempotent ack
  /// replay for retransmitted installs).
  std::uint64_t installed_epoch_ = 0;

  // ---- raw-speed state (PERFORMANCE.md) ---------------------------------
  /// Per-payload-type slot pools behind send_dir().
  net::PoolSet pools_;
  /// Consecutive pushes absorbed by the write buffer since the last
  /// extraction (lifetime totals live in the wbuf.* counters).
  std::size_t wbuf_streak_ = 0;
  /// When traffic last went to the directory (heartbeat piggybacking).
  sim::Time last_dir_traffic_ = 0;

  sim::CounterSet stats_;
  /// Lamport clock for causal trace stamping; registered only when
  /// cfg_.trace is set, with the fabric (sends tick it, deliveries
  /// observe the sender's stamp) and with cfg_.trace (events carry its
  /// value). An untraced manager's messages carry clock 0.
  obs::CausalClock clock_;
};

template <typename T>
void CacheManager::send_dir(const char* type, T value) {
  const std::size_t bytes = msg::wire_size(value);
  last_dir_traffic_ = fabric_.now();
  net::PoolPtr<T> slot = pools_.acquire<T>();
  *slot = std::move(value);
  fabric_.send(self_, directory_, type, std::move(slot), bytes);
}

}  // namespace flecc::core

#include "core/cache_manager.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

namespace flecc::core {

namespace {

/// Per-manager jitter stream: mix the policy seed with the endpoint
/// address so colocated managers draw independent deterministic streams.
std::uint64_t mix_seed(std::uint64_t seed, net::Address addr) {
  std::uint64_t s = seed ^ ((static_cast<std::uint64_t>(addr.node) << 32) |
                            static_cast<std::uint64_t>(addr.port));
  return sim::splitmix64(s);
}

constexpr std::size_t kUnconfirmedEchoWindow = 32;

/// What differs between the two directory commands, indexed by
/// CacheManager::Command.
struct CommandSpec {
  const char* command;   // wire type of the command
  const char* reply;     // wire type of its reply
  const char* deferred;  // counter: deferred by a use section
  const char* served;    // counter: served (replays excluded)
  std::size_t window;    // served replies kept for replay
};
constexpr CommandSpec kCommandSpecs[] = {
    {msg::kInvalidateReq, msg::kInvalidateAck, "invalidate.deferred",
     "invalidate.served", 4},
    {msg::kFetchReq, msg::kFetchReply, "fetch.deferred", "fetch.served", 8},
};

/// Journal compaction cadence: rewrite the log as a snapshot once this
/// many records accumulated since the last compaction.
constexpr std::size_t kJournalCompactThreshold = 256;
/// How many request ids one kCmReq ceiling promise covers; amortizes
/// the journal traffic of alloc_req() to one record per 64 ids.
constexpr std::uint64_t kReqCeilingStride = 64;

/// A cache-manager journal record (kCmBind ... kCmReq).
WalRecord cm_record(WalKind kind, std::uint64_t req,
                    ViewId view = kInvalidViewId, ObjectImage image = {}) {
  WalRecord w;
  w.kind = kind;
  w.view = view;
  w.req = req;
  w.image = std::move(image);
  return w;
}

}  // namespace

const CacheManager::OpSpec CacheManager::kOpSpecs[] = {
    {"init", msg::kInitReq, msg::kInitReply, true},
    {"pull", msg::kPullReq, msg::kPullReply, true},
    {"push", msg::kPushUpdate, msg::kPushAck, true},
    {"acquire", msg::kAcquireReq, msg::kAcquireGrant, true},
    {"mode_change", msg::kModeChangeReq, msg::kModeChangeAck, false},
    {"kill", msg::kKillReq, msg::kKillAck, false},
};

CacheManager::CacheManager(net::Fabric& fabric, net::Address self,
                           net::Address directory, ViewAdapter& view,
                           Config cfg)
    : fabric_(fabric),
      self_(self),
      directory_(directory),
      view_(view),
      cfg_(std::move(cfg)),
      mode_(cfg_.mode),
      retry_rng_(mix_seed(cfg_.retry.seed, self)) {
  if (!cfg_.push_trigger.empty()) push_trigger_.emplace(cfg_.push_trigger);
  if (!cfg_.pull_trigger.empty()) pull_trigger_.emplace(cfg_.pull_trigger);
  fabric_.bind(self_, *this);
  fabric_.set_clock(self_, &clock_);
  if (cfg_.trace != nullptr) cfg_.trace->set_clock(&clock_);
  breaker_ = flow::CircuitBreaker(flow::CircuitBreaker::Config{
      cfg_.breaker_threshold, cfg_.breaker_open_timeout});
  breaker_.set_transition_hook(
      [this](flow::BreakerState from, flow::BreakerState to) {
        on_breaker_transition(from, to);
      });
  replay_journal();
  if (!cfg_.await_migration || resume_view_ != kInvalidViewId) {
    register_.req = alloc_req();
    send_register();
  }
  // else: idle migration destination — a ViewMoveInstall adopts us.
}

CacheManager::~CacheManager() { detach(); }

// ---- public API ------------------------------------------------------------

void CacheManager::init_image(Done done) {
  enqueue(Op{OpKind::kInit, {}, std::move(done)});
}

void CacheManager::pull_image(Done done) {
  enqueue(Op{OpKind::kPull, {}, std::move(done)});
}

void CacheManager::push_image(Done done) {
  if (halted_) return;
  if (can_absorb_push()) {
    // Write buffer: the deltas keep accumulating in the view's pending
    // set; the next extraction (a real push, a served fetch or
    // invalidate, or the kill) surrenders them all in one message.
    ++wbuf_streak_;
    stats_.inc("wbuf.absorbed");
    journal_write_buffer();
    if (done) done();
    return;
  }
  if (wbuf_streak_ >= cfg_.write_buffer_ops && cfg_.write_buffer_ops > 0) {
    stats_.inc("wbuf.flush.capacity");
  }
  enqueue(Op{OpKind::kPush, {}, std::move(done)});
}

bool CacheManager::can_absorb_push() const noexcept {
  return cfg_.write_buffer_ops > 0 && mode_ == Mode::kWeak && alive_ &&
         registered_ && !rejected_ && valid_ && dirty_ &&
         wbuf_streak_ < cfg_.write_buffer_ops;
}

void CacheManager::start_use_image(Done done) {
  if (halted_) return;
  if (in_use_) {
    throw std::logic_error("CacheManager: startUseImage while already in use");
  }
  // Fast path: a valid copy (exclusive in strong mode) needs no traffic.
  const bool ready =
      mode_ == Mode::kStrong ? (valid_ && exclusive_) : valid_;
  if (ready && queue_.empty() && !current_.has_value()) {
    in_use_ = true;
    stats_.inc("start_use.local");
    if (done) done();
    return;
  }
  stats_.inc("start_use.remote");
  const OpKind kind = mode_ == Mode::kStrong ? OpKind::kAcquire : OpKind::kPull;
  // Wrap the completion to enter the use section once revalidated.
  enqueue(Op{kind, {}, [this, done = std::move(done)] {
               in_use_ = true;
               if (done) done();
             }});
}

void CacheManager::end_use_image(bool modified) {
  if (halted_) return;
  if (!in_use_) {
    throw std::logic_error("CacheManager: endUseImage without startUseImage");
  }
  in_use_ = false;
  if (modified) dirty_ = true;
  // Serve commands deferred by the mutual-exclusion section (§4.2: "the
  // view needs to mark the code that processes the data as mutually
  // exclusive" so merges/extracts never interleave with work): the
  // invalidation first, then the fetches in arrival order.
  for (const Command c : {Command::kInvalidate, Command::kFetch}) {
    auto& deferred = ledger(c).deferred;
    for (const std::uint64_t round : deferred) serve(c, round);
    deferred.clear();
  }
  try_seal();  // a pending migration may now find us quiescent
}

void CacheManager::set_mode(Mode m, Done done) {
  enqueue(Op{OpKind::kModeChange, m, std::move(done)});
}

void CacheManager::kill_image(Done done) {
  enqueue(Op{OpKind::kKill, {}, std::move(done)});
}

void CacheManager::reconnect(Done done) {
  if (halted_) return;
  if (!alive_) {
    if (done) done();
    return;
  }
  cancel(retry_timer(ExchangeKind::kOp));
  cancel(retry_timer(ExchangeKind::kRegister));
  stop_heartbeats();

  // The in-flight op (if any) is re-issued under the new incarnation
  // with its request id and extracted image intact: if the directory
  // already executed it, the dedup window replays the original reply
  // rather than re-executing, and the op's Done still fires.
  std::optional<Op> abandoned = std::move(current_);
  current_.reset();
  registered_ = false;
  rejected_ = false;
  reject_reason_.clear();
  id_ = kInvalidViewId;
  valid_ = false;
  exclusive_ = false;
  for (auto& l : commands_) {
    l.deferred.clear();
    l.served.clear();
    l.next = 0;
  }
  stats_.inc("reconnect");

  if (abandoned.has_value()) {
    abandoned->ex.attempts = 0;  // fresh retry budget for the new incarnation
    stats_.inc("op.reissued");
    queue_.push_front(std::move(*abandoned));
  }
  // Recovery ops run before anything previously queued: refresh the
  // base image, then surrender locally pending updates (including any
  // reply echoes the old incarnation never got confirmed).
  const bool need_push = dirty_ || !unconfirmed_echoes_.empty();
  if (need_push) {
    queue_.push_front(Op{OpKind::kPush, {}, std::move(done)});
    queue_.push_front(Op{OpKind::kInit, {}, {}});
  } else {
    queue_.push_front(Op{OpKind::kInit, {}, std::move(done)});
  }

  register_ = Exchange{alloc_req()};
  send_register();
}

// ---- retransmission ---------------------------------------------------------

void CacheManager::next_attempt(Exchange& x, ExchangeKind k) {
  ++x.attempts;
  if (x.first_sent_at < 0) x.first_sent_at = fabric_.now();
  net::TimerId& timer = retry_timer(k);
  cancel(timer);
  if (!cfg_.retry.enabled()) return;
  if (k == ExchangeKind::kRegister && x.attempts >= cfg_.retry.max_attempts) {
    // Attempt cap reached: keep trying, but on a daemon timer at the
    // backoff ceiling so an unreachable directory never wedges a
    // run-to-quiescence simulation — recovery stays self-driving once
    // connectivity returns.
    timer = fabric_.schedule_daemon(self_, cfg_.retry.max_timeout, [this] {
      on_retry_timeout(ExchangeKind::kRegister);
    });
    return;
  }
  timer =
      fabric_.schedule(self_, cfg_.retry.timeout_for(x.attempts, retry_rng_),
                       [this, k] { on_retry_timeout(k); });
}

bool CacheManager::past_deadline(const Exchange& x) const {
  return cfg_.retry.deadline > 0 && x.first_sent_at >= 0 &&
         fabric_.now() - x.first_sent_at >= cfg_.retry.deadline;
}

void CacheManager::on_retry_timeout(ExchangeKind k) {
  retry_timer(k) = net::kInvalidTimerId;
  switch (k) {
    case ExchangeKind::kRegister:
      if (!alive_ || registered_ || rejected_) return;
      if (past_deadline(register_)) {
        // The directory stayed unreachable for this incarnation's whole
        // budget: fail registration terminally so queued callers unwedge
        // (they observe the failure through rejected()).
        stats_.inc("reliability.exhausted");
        FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(),
                          obs::EventKind::kRetryExhausted,
                          obs::Role::kCacheManager, obs::agent_key(self_),
                          obs::span_id(self_, register_.req), "register",
                          register_.attempts);
        rejected_ = true;
        reject_reason_ = "registration deadline exhausted";
        if (cfg_.on_give_up) cfg_.on_give_up("register");
        fail_queued();
        return;
      }
      stats_.inc("register.retry");
      send_register();
      return;
    case ExchangeKind::kOp:
      if (!alive_ || !current_.has_value()) return;
      if (past_deadline(current_->ex)) {
        // Overall per-op budget spent across every retransmission, Busy
        // back-off, and reconnect cycle: give up terminally instead of
        // failing over into yet another retry round.
        give_up_current(spec(current_->kind).label);
        return;
      }
      if (current_->ex.attempts >= cfg_.retry.max_attempts) {
        // Retry budget exhausted: assume the registration (or the
        // directory) is gone and fail over instead of wedging the queue.
        stats_.inc("op.failover");
        reconnect();
        // After reconnect so the breaker's degradation hook sees the op
        // already parked back on the queue, not still in flight.
        breaker_.on_failure(fabric_.now());
        return;
      }
      stats_.inc("op.retry");
      issue();
      return;
    case ExchangeKind::kHandoff:
      if (!handoff_.has_value()) return;
      if (handoff_->ex.attempts < cfg_.retry.max_attempts) {
        send_handoff();
        return;
      }
      // Retransmission budget spent without a ViewMoveDone — the
      // directory likely crashed mid-migration and forgot it. Resume
      // serving; the delta re-pushes under the same request id, which
      // the WAL-persisted merge marker dedups if the handoff did merge.
      stats_.inc("migrate.handoff.abandoned");
      unseal_resume();
      return;
  }
}

void CacheManager::send_register() {
  next_attempt(register_, ExchangeKind::kRegister);
  msg::RegisterReq req;
  req.view_name = cfg_.view_name;
  req.properties = cfg_.properties;
  req.mode = mode_;
  req.push_trigger = cfg_.push_trigger;
  req.pull_trigger = cfg_.pull_trigger;
  req.validity_trigger = cfg_.validity_trigger;
  req.resume_view = resume_view_;
  req.incarnation = incarnation_;
  req.req = register_.req;
  req.gen = dir_generation_;
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), send_event(register_),
                    obs::Role::kCacheManager, obs::agent_key(self_),
                    obs::span_id(self_, register_.req), msg::kRegisterReq,
                    register_.attempts);
  send_dir(msg::kRegisterReq, std::move(req));
}

// ---- teardown ---------------------------------------------------------------

void CacheManager::cancel(net::TimerId& timer) {
  if (timer == net::kInvalidTimerId) return;
  fabric_.cancel_timer(timer);
  timer = net::kInvalidTimerId;
}

void CacheManager::detach() {
  for (net::TimerId& timer : retry_timers_) cancel(timer);
  cancel(trigger_timer_);
  stop_heartbeats();
  fabric_.set_clock(self_, nullptr);
  fabric_.unbind(self_);
}

void CacheManager::fail_queued() {
  std::deque<Op> q = std::move(queue_);
  queue_.clear();
  for (auto& op : q) {
    if (op.done) op.done();
  }
}

void CacheManager::retire() {
  registered_ = false;
  valid_ = false;
  exclusive_ = false;
  dirty_ = false;
  cancel(trigger_timer_);
  stop_heartbeats();
  if (cfg_.journal != nullptr) {
    cfg_.journal->compact({});
    journal_appends_ = 0;
  }
}

void CacheManager::halt() {
  if (halted_) return;
  halted_ = true;
  detach();
  current_.reset();  // completions are deliberately NOT invoked
  queue_.clear();
}

// ---- op queue ---------------------------------------------------------------

void CacheManager::enqueue(Op op) {
  if (halted_) return;  // crashed: nothing runs, nothing completes
  if (!alive_ || rejected_) {
    // Registration failed or the manager is dead: complete immediately;
    // callers observe the failure through rejected()/alive().
    if (op.done) op.done();
    return;
  }
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kOpEnqueued,
                    obs::Role::kCacheManager, obs::agent_key(self_), 0,
                    spec(op.kind).label, queue_.size());
  queue_.push_back(std::move(op));
  pump();
}

void CacheManager::pump() {
  if (sealed()) return;  // quiesced for migration: nothing issues
  if (current_.has_value() || !registered_ || queue_.empty()) {
    try_seal();  // the queue may just have drained under a move request
    return;
  }
  current_ = std::move(queue_.front());
  queue_.pop_front();
  issue();
}

void CacheManager::issue() {
  Op& op = *current_;
  if (spec(op.kind).bulk && !breaker_.allow(fabric_.now())) {
    // Breaker open: hold the op locally instead of hammering a drowning
    // directory; the timer re-tries at the window edge (where allow()
    // admits it as the half-open probe). The overall deadline still
    // applies, so a destination that never recovers is terminal.
    if (past_deadline(op.ex)) {
      give_up_current(spec(op.kind).label);
      return;
    }
    stats_.inc("breaker.deferred");
    net::TimerId& timer = retry_timer(ExchangeKind::kOp);
    cancel(timer);
    timer = fabric_.schedule(self_, breaker_.retry_in(fabric_.now()), [this] {
      retry_timer(ExchangeKind::kOp) = net::kInvalidTimerId;
      if (alive_ && current_.has_value()) issue();
    });
    return;
  }
  next_attempt(op.ex, ExchangeKind::kOp);
  if (op.ex.req == 0) op.ex.req = alloc_req();
  if (op.ex.attempts == 1) {
    // a = our view id: the monitor's agent -> view mapping.
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kOpStarted,
                      obs::Role::kCacheManager, obs::agent_key(self_),
                      obs::span_id(self_, op.ex.req), spec(op.kind).label,
                      id_);
  }
  switch (op.kind) {
    case OpKind::kInit: {
      send_dir(msg::kInitReq, msg::InitReq{id_, op.ex.req, dir_generation_});
      break;
    }
    case OpKind::kPull: {
      send_dir(msg::kPullReq,
               msg::PullReq{id_, intent_, op.ex.req, dir_generation_});
      break;
    }
    case OpKind::kPush: {
      // Extraction moves the view's pending deltas, so it happens once;
      // retransmissions resend the cached image under the same req id.
      // Unconfirmed reply echoes are snapshotted alongside it: the
      // PushAck for this req confirms exactly this set.
      if (!op.image.has_value()) {
        op.image = extract_dirty();
        op.echoes.assign(unconfirmed_echoes_.begin(),
                         unconfirmed_echoes_.end());
        journal_intent(op.ex.req, *op.image);
      }
      msg::PushUpdate req;
      req.view = id_;
      req.image = *op.image;
      req.req = op.ex.req;
      req.gen = dir_generation_;
      req.echoes = op.echoes;
      send_dir(msg::kPushUpdate, std::move(req));
      break;
    }
    case OpKind::kAcquire: {
      send_dir(msg::kAcquireReq,
               msg::AcquireReq{id_, intent_, op.ex.req, dir_generation_});
      break;
    }
    case OpKind::kModeChange: {
      send_dir(msg::kModeChangeReq,
               msg::ModeChangeReq{id_, op.new_mode, op.ex.req,
                                  dir_generation_});
      break;
    }
    case OpKind::kKill: {
      // op.image doubles as the dirty marker: set at first issue only.
      if (op.ex.attempts == 1) {
        if (dirty_) op.image = extract_dirty();
        op.echoes.assign(unconfirmed_echoes_.begin(),
                         unconfirmed_echoes_.end());
        if (op.image.has_value()) journal_intent(op.ex.req, *op.image);
      }
      msg::KillReq req;
      req.view = id_;
      req.dirty = op.image.has_value();
      if (op.image.has_value()) req.final_image = *op.image;
      req.req = op.ex.req;
      req.gen = dir_generation_;
      req.echoes = op.echoes;
      send_dir(msg::kKillReq, std::move(req));
      break;
    }
  }
  // b = 1 when this op carries an extracted dirty image (push always,
  // kill when dirty): the monitor's exactly-once-merge bookkeeping.
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), send_event(op.ex),
                    obs::Role::kCacheManager, obs::agent_key(self_),
                    obs::span_id(self_, op.ex.req), spec(op.kind).request,
                    op.ex.attempts, op.image.has_value() ? 1 : 0);
}

void CacheManager::give_up_current(const char* why) {
  stats_.inc("reliability.exhausted");
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(),
                    obs::EventKind::kRetryExhausted,
                    obs::Role::kCacheManager, obs::agent_key(self_),
                    obs::span_id(self_, current_->ex.req), why,
                    current_->ex.attempts);
  cancel(retry_timer(ExchangeKind::kOp));
  Done done = std::move(current_->done);
  current_.reset();
  // After the reset: the breaker hook must not re-park the abandoned op.
  breaker_.on_failure(fabric_.now());
  if (cfg_.on_give_up) cfg_.on_give_up(why);
  if (done) done();
  pump();
}

void CacheManager::on_breaker_transition(
    [[maybe_unused]] flow::BreakerState from, flow::BreakerState to) {
  stats_.inc_cat("breaker.", flow::to_string(to));
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(),
                    obs::EventKind::kBreakerTransition,
                    obs::Role::kCacheManager, obs::agent_key(self_), 0,
                    flow::to_string(to), static_cast<std::uint64_t>(from),
                    static_cast<std::uint64_t>(to));
  if (to == flow::BreakerState::kOpen && cfg_.degrade_on_overload &&
      !degraded_ && mode_ == Mode::kStrong && alive_ && !rejected_) {
    // Degradation ladder: STRONG acquires are what a drowning directory
    // cannot serve, so fall back to WEAK — pushes get absorbed by the
    // write buffer and use sections stop needing exclusivity. The
    // stalled bulk op is parked behind the mode switch (same kind, same
    // req id) and re-issues once the breaker admits traffic again.
    if (current_.has_value() && current_->kind != OpKind::kModeChange &&
        current_->kind != OpKind::kKill) {
      cancel(retry_timer(ExchangeKind::kOp));
      queue_.push_front(std::move(*current_));
      current_.reset();
    }
    queue_.push_front(Op{OpKind::kModeChange, Mode::kWeak, {}});
    degraded_ = true;
    stats_.inc("breaker.degrade");
    pump();
  } else if (to == flow::BreakerState::kClosed && degraded_) {
    degraded_ = false;
    stats_.inc("breaker.restore");
    set_mode(Mode::kStrong);
  }
}

bool CacheManager::accept_reply(OpKind kind, std::uint64_t req) {
  if (current_.has_value() && current_->kind == kind &&
      (req == 0 || req == current_->ex.req)) {
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgReceived,
                      obs::Role::kCacheManager, obs::agent_key(self_),
                      obs::span_id(self_, current_->ex.req), spec(kind).reply);
    return true;
  }
  if (req == 0) {
    stats_.inc("msg.unexpected");  // unframed or forged
    return false;
  }
  // A late duplicate of an already-completed exchange, or a stale reply
  // to an exchange another op has replaced.
  stats_.inc(current_.has_value() ? "msg.stale.dropped"
                                  : "msg.duplicate.dropped");
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kDedupHit,
                    obs::Role::kCacheManager, obs::agent_key(self_),
                    obs::span_id(self_, req), spec(kind).reply);
  return false;
}

void CacheManager::complete_current() {
  cancel(retry_timer(ExchangeKind::kOp));
  // A served bulk request is proof the directory is healthy again; the
  // transition hook un-degrades (kClosed) if overload had demoted us.
  if (spec(current_->kind).bulk) breaker_.on_success();
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kOpCompleted,
                    obs::Role::kCacheManager, obs::agent_key(self_),
                    obs::span_id(self_, current_->ex.req),
                    spec(current_->kind).label, current_->ex.attempts);
  Done done = std::move(current_->done);
  current_.reset();
  if (done) done();
  pump();
}

void CacheManager::adopt(const ObjectImage& image) {
  view_.merge_into_view(image, cfg_.properties);
  valid_ = true;
  last_version_ = image.version();
  last_pull_at_ = fabric_.now();
}

ObjectImage CacheManager::extract_dirty() {
  if (wbuf_streak_ > 0) {
    // This extraction carries everything the write buffer absorbed.
    stats_.inc("wbuf.flushed");
    wbuf_streak_ = 0;
  }
  ObjectImage image = view_.extract_from_view(cfg_.properties);
  return image;
}

// ---- heartbeats -------------------------------------------------------------

void CacheManager::start_heartbeats() {
  if (cfg_.heartbeat_interval <= 0) return;
  if (heartbeat_timer_ != net::kInvalidTimerId) return;
  heartbeat_unacked_ = 0;
  heartbeat_timer_ = fabric_.schedule_daemon(
      self_, cfg_.heartbeat_interval, [this] { heartbeat_tick(); });
}

void CacheManager::stop_heartbeats() {
  cancel(heartbeat_timer_);
  heartbeat_unacked_ = 0;
}

void CacheManager::heartbeat_tick() {
  heartbeat_timer_ = net::kInvalidTimerId;
  if (!alive_ || !registered_) return;
  if (heartbeat_unacked_ > 0) {
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(),
                      obs::EventKind::kHeartbeatMiss,
                      obs::Role::kCacheManager, obs::agent_key(self_), 0,
                      msg::kHeartbeat, heartbeat_unacked_);
  }
  if (heartbeat_unacked_ >= cfg_.heartbeat_miss_limit) {
    // The directory stopped answering: assume our registration is gone
    // (it evicts silent views symmetrically) and re-establish it.
    stats_.inc("heartbeat.failover");
    reconnect();
    return;
  }
  if (cfg_.piggyback_heartbeats && last_dir_traffic_ > 0 &&
      fabric_.now() - last_dir_traffic_ < cfg_.heartbeat_interval) {
    // Regular traffic reached the directory within the interval — it
    // keeps our liveness record fresh exactly like a beacon would, and
    // its replies clear the miss counter (on_message). Skip the
    // redundant send; a dead directory is still caught because idle
    // managers fall back to timed beacons and busy ones hit the
    // request-retry failover first.
    stats_.inc("heartbeat.piggybacked");
  } else {
    msg::Heartbeat hb{id_, ++heartbeat_seq_, dir_generation_};
    ++heartbeat_unacked_;
    stats_.inc("heartbeat.sent");
    send_dir(msg::kHeartbeat, hb);
  }
  heartbeat_timer_ = fabric_.schedule_daemon(
      self_, cfg_.heartbeat_interval, [this] { heartbeat_tick(); });
}

// ---- message handling -------------------------------------------------------

void CacheManager::on_message(const net::Message& m) {
  if (halted_) return;

  // Generation fencing: adopt a newer directory incarnation the moment
  // any of its messages arrives (every subsequent send is stamped with
  // it), and drop messages minted by an older, crashed incarnation —
  // their protocol state (rounds, versions, grants) no longer exists.
  if (const std::uint64_t gen = msg::header_of(m).gen; gen != 0) {
    if (gen < dir_generation_) {
      stats_.inc("recovery.fenced");
      FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgFenced,
                        obs::Role::kCacheManager, obs::agent_key(self_), 0,
                        m.type.c_str(), gen, dir_generation_);
      return;
    }
    if (gen > dir_generation_) {
      if (dir_generation_ != 0) stats_.inc("recovery.generation_bump");
      dir_generation_ = gen;
    }
  }

  // Piggyback mode treats every live directory message as a liveness
  // proof — without this, a beacon whose ack happened to be dropped
  // would keep counting misses even while real replies flow, and the
  // miss counter would double-count its way to a spurious reconnect.
  if (cfg_.piggyback_heartbeats) heartbeat_unacked_ = 0;

  // Dispatch in traffic order: commands, then replies to the in-flight
  // operation, then the rarer control messages.
  if (m.type == msg::kFetchReq) {
    return on_command(Command::kFetch,
                      net::payload_as<msg::FetchReq>(m).token);
  }
  if (m.type == msg::kInvalidateReq) {
    return on_command(Command::kInvalidate,
                      net::payload_as<msg::InvalidateReq>(m).epoch);
  }
  if (m.type == msg::kPullReply) {
    const auto& reply = net::payload_as<msg::PullReply>(m);
    if (!accept_reply(OpKind::kPull, reply.req)) return;
    adopt(reply.image);
    last_pull_unseen_ = reply.unseen_before;
    complete_current();
    return;
  }
  if (m.type == msg::kPushAck) {
    const auto& ack = net::payload_as<msg::PushAck>(m);
    if (!accept_reply(OpKind::kPush, ack.req)) return;
    last_version_ = ack.version;
    dirty_ = false;
    last_push_at_ = fabric_.now();
    confirm_echoes(current_->echoes);
    journal_flush(current_->ex.req);
    complete_current();
    return;
  }
  if (m.type == msg::kHeartbeatAck) {
    const auto& ack = net::payload_as<msg::HeartbeatAck>(m);
    if (!alive_ || !registered_ || ack.view != id_) return;
    if (sealed()) {
      // Mid-migration the record may already point at the destination
      // (known=false for us) — reconnecting now would fresh-register and
      // steal the view back. The ViewMoveDone settles our fate instead.
      heartbeat_unacked_ = 0;
      return;
    }
    if (!ack.known) {
      // The directory does not know us (restart or liveness eviction):
      // our copy can no longer be trusted to be coherent.
      stats_.inc("heartbeat.lost_registration");
      reconnect();
      return;
    }
    heartbeat_unacked_ = 0;
    return;
  }
  if (m.type == msg::kAcquireGrant) {
    const auto& grant = net::payload_as<msg::AcquireGrant>(m);
    if (!accept_reply(OpKind::kAcquire, grant.req)) return;
    adopt(grant.image);
    exclusive_ = true;
    // dirty_ is deliberately preserved: updates made before the acquire
    // (e.g. in weak mode just before a mode switch) still need to be
    // surrendered on the next invalidation/push/kill.
    complete_current();
    return;
  }
  if (m.type == msg::kInitReply) {
    const auto& reply = net::payload_as<msg::InitReply>(m);
    if (!accept_reply(OpKind::kInit, reply.req)) return;
    adopt(reply.image);
    dirty_ = false;
    complete_current();
    return;
  }
  if (m.type == msg::kModeChangeAck) {
    const auto& ack = net::payload_as<msg::ModeChangeAck>(m);
    if (!accept_reply(OpKind::kModeChange, ack.req)) return;
    mode_ = ack.mode;
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kModeSwitch,
                      obs::Role::kCacheManager, obs::agent_key(self_),
                      obs::span_id(self_, ack.req),
                      mode_ == Mode::kStrong ? "strong" : "weak",
                      static_cast<std::uint64_t>(mode_));
    if (mode_ == Mode::kStrong) {
      // Must re-acquire before the next use section.
      valid_ = false;
      exclusive_ = false;
    } else {
      exclusive_ = false;  // copy stays valid in weak mode
    }
    complete_current();
    return;
  }
  if (m.type == msg::kKillAck) {
    const auto& ack = net::payload_as<msg::KillAck>(m);
    if (!accept_reply(OpKind::kKill, ack.req)) return;
    alive_ = false;
    confirm_echoes(current_->echoes);
    unconfirmed_echoes_.clear();  // nothing after the kill will carry them
    journal_flush(current_->ex.req);
    retire();  // a killed view never resumes
    complete_current();
    fail_queued();  // ops queued behind the kill never complete remotely
    return;
  }
  if (m.type == msg::kRegisterAck) {
    const auto& ack = net::payload_as<msg::RegisterAck>(m);
    if (ack.req != 0 && ack.req != register_.req) {
      stats_.inc("msg.stale.dropped");  // ack for a previous incarnation
      return;
    }
    if (registered_ || rejected_) {
      stats_.inc("msg.duplicate.dropped");
      return;
    }
    cancel(retry_timer(ExchangeKind::kRegister));
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgReceived,
                      obs::Role::kCacheManager, obs::agent_key(self_),
                      obs::span_id(self_, register_.req), msg::kRegisterAck,
                      ack.accepted ? 1 : 0);
    if (ack.accepted) {
      registered_ = true;
      id_ = ack.view;
      if (resume_view_ != kInvalidViewId) {
        stats_.inc(id_ == resume_view_ ? "journal.resumed"
                                       : "journal.resume_missed");
        resume_view_ = kInvalidViewId;  // later reconnects register fresh
      }
      journal_bind();
      arm_trigger_timer();
      start_heartbeats();
      pump();
    } else {
      rejected_ = true;
      reject_reason_ = ack.reason;
      fail_queued();  // so callers do not hang
    }
    return;
  }
  if (m.type == msg::kUpdateNotify) {
    stats_.inc("notify.received");
    return;
  }
  if (m.type == msg::kBusy) {
    const auto& busy = net::payload_as<msg::Busy>(m);
    if (!current_.has_value() ||
        (busy.req != 0 && busy.req != current_->ex.req)) {
      // Late Busy for an exchange that already resolved.
      stats_.inc("msg.duplicate.dropped");
      return;
    }
    stats_.inc("flow.busy.received");
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgReceived,
                      obs::Role::kCacheManager, obs::agent_key(self_),
                      obs::span_id(self_, current_->ex.req), msg::kBusy,
                      static_cast<std::uint64_t>(busy.retry_after));
    // An explicit "try later": swap the exponential schedule for the
    // server-suggested retry_after (jittered so a shed burst does not
    // re-arrive in lockstep) and reset the attempt count — Busy proves
    // the destination is alive, so the retransmission budget must not
    // tick toward failover while we politely back off. The overall
    // deadline (first_sent_at) still bounds the total wait.
    current_->ex.attempts = 1;
    cancel(retry_timer(ExchangeKind::kOp));
    double delay = static_cast<double>(
        busy.retry_after > 0 ? busy.retry_after : cfg_.retry.base_timeout);
    if (cfg_.retry.jitter > 0.0) {
      delay *= retry_rng_.uniform(1.0, 1.0 + cfg_.retry.jitter);
    }
    retry_timer(ExchangeKind::kOp) = fabric_.schedule(
        self_, std::max<sim::Duration>(1, static_cast<sim::Duration>(delay)),
        [this] { on_retry_timeout(ExchangeKind::kOp); });
    // Last: the breaker's transition hook may park current_ behind a
    // degradation mode switch (which cancels the timer just armed).
    breaker_.on_busy(fabric_.now(), busy.retry_after);
    return;
  }
  if (m.type == msg::kOpNack) {
    const auto& nack = net::payload_as<msg::OpNack>(m);
    if (current_.has_value() &&
        (nack.req == 0 || nack.req == current_->ex.req)) {
      stats_.inc("op.nack");
      reconnect();  // re-registers, then re-issues the nacked op
    } else {
      stats_.inc("msg.duplicate.dropped");
    }
    return;
  }
  if (m.type == msg::kDirectoryRebuild) return handle_rebuild_probe(m);
  if (m.type == msg::kViewMoveReq) return handle_move_req(m);
  if (m.type == msg::kViewMoveInstall) return handle_move_install(m);
  if (m.type == msg::kViewMoveDone) return handle_move_done(m);
  stats_.inc("msg.unexpected");
}

void CacheManager::handle_rebuild_probe(const net::Message& m) {
  const auto& probe = net::payload_as<msg::DirectoryRebuild>(m);
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgReceived,
                    obs::Role::kCacheManager, obs::agent_key(self_), 0,
                    msg::kDirectoryRebuild, probe.gen, probe.view);
  if (!alive_ || !registered_ || probe.view != id_) {
    // Killed/superseded incarnation of our address: let the rebuild
    // window drop the checkpointed ghost.
    stats_.inc("rebuild.probe.ignored");
    return;
  }
  // Only an op in flight before this probe was lost with the old dedup
  // window; unseal_resume() issues an abandoned handoff's push itself.
  const bool reissue = current_.has_value();
  if (sealed()) {
    // The directory restarted mid-migration and forgot it (migrations
    // are not checkpointed): abandon the handoff and resume serving —
    // the re-pushed delta dedups against the WAL-persisted merge marker.
    stats_.inc("migrate.abandoned.rebuild");
    unseal_resume();
  }
  stats_.inc("rebuild.reannounced");
  msg::RebuildReply rep;
  rep.view = id_;
  rep.view_name = cfg_.view_name;
  rep.properties = cfg_.properties;
  rep.mode = mode_;
  rep.push_trigger = cfg_.push_trigger;
  rep.pull_trigger = cfg_.pull_trigger;
  rep.validity_trigger = cfg_.validity_trigger;
  rep.active = valid_;
  rep.exclusive = exclusive_;
  rep.dirty = dirty_;
  // Unconfirmed extractions re-deliver with the announcement: the
  // directory merges them via the settled-round archive (or revives the
  // round) exactly once. They stay queued here until a push/kill ack
  // confirms them.
  rep.echoes.assign(unconfirmed_echoes_.begin(), unconfirmed_echoes_.end());
  rep.gen = dir_generation_;
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgSent,
                    obs::Role::kCacheManager, obs::agent_key(self_), 0,
                    msg::kRebuildReply, dir_generation_,
                    static_cast<std::uint64_t>(rep.echoes.size()));
  send_dir(msg::kRebuildReply, std::move(rep));
  // The restarted directory lost our in-flight request with its dedup
  // window; re-issue immediately under the new generation instead of
  // waiting out the retransmission backoff.
  if (reissue) {
    stats_.inc("op.reissued.rebuild");
    issue();
  }
}

void CacheManager::queue_echo(msg::DeltaEcho e) {
  unconfirmed_echoes_.push_back(std::move(e));
  stats_.inc("echo.queued");
  if (unconfirmed_echoes_.size() > kUnconfirmedEchoWindow) {
    // Backstop against a directory that stays unreachable forever;
    // dropping the oldest can lose its deltas, so count it.
    unconfirmed_echoes_.pop_front();
    stats_.inc("echo.dropped");
  }
}

void CacheManager::confirm_echoes(
    const std::vector<msg::DeltaEcho>& confirmed) {
  if (confirmed.empty() || unconfirmed_echoes_.empty()) return;
  for (const auto& c : confirmed) {
    for (auto it = unconfirmed_echoes_.begin();
         it != unconfirmed_echoes_.end(); ++it) {
      if (it->round == c.round && it->invalidate == c.invalidate) {
        unconfirmed_echoes_.erase(it);
        stats_.inc("echo.confirmed");
        break;
      }
    }
  }
}

void CacheManager::on_command(Command c, std::uint64_t round) {
  const CommandSpec& spec = kCommandSpecs[static_cast<std::size_t>(c)];
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgReceived,
                    obs::Role::kCacheManager, obs::agent_key(self_), 0,
                    spec.command, round);
  if (!in_use_) return serve(c, round);
  auto& deferred = ledger(c).deferred;
  if (std::find(deferred.begin(), deferred.end(), round) != deferred.end()) {
    stats_.inc("msg.duplicate.dropped");  // retransmitted command
    return;
  }
  // Answered after endUseImage. A newer invalidation epoch replaces the
  // deferred one; fetch tokens accumulate.
  if (c == Command::kInvalidate) deferred.clear();
  deferred.push_back(round);
  stats_.inc(spec.deferred);
}

void CacheManager::serve(Command c, std::uint64_t round) {
  const CommandSpec& spec = kCommandSpecs[static_cast<std::size_t>(c)];
  CommandLedger& l = ledger(c);
  for (const ServedCommand& s : l.served) {
    if (s.round != round) continue;
    // Retransmitted command: re-send the original reply (extraction
    // already moved the deltas; re-extracting would lose them).
    stats_.inc("msg.duplicate.replayed");
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kDedupHit,
                      obs::Role::kCacheManager, obs::agent_key(self_), 0,
                      spec.command, round, /*replayed=*/1);
    send_reply(c, s);
    return;
  }
  stats_.inc(spec.served);
  ServedCommand s;
  s.round = round;
  s.view = id_;
  s.dirty = dirty_ && valid_;
  if (s.dirty) {
    s.image = extract_dirty();
    dirty_ = false;  // our updates are now at the primary
    journal_write_buffer();  // the buffered set left with this reply
    queue_echo(msg::DeltaEcho{round, c == Command::kInvalidate, id_, s.image});
  }
  if (c == Command::kInvalidate) {
    valid_ = false;
    exclusive_ = false;
  }
  // A full window is a ring: the reply overwrites the oldest one and
  // reuses its image buffer.
  if (l.served.size() < spec.window) l.served.emplace_back();
  l.served[l.next++ % spec.window] = s;
  // b = dirty: marks an extraction the directory must merge exactly once.
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgSent,
                    obs::Role::kCacheManager, obs::agent_key(self_), 0,
                    spec.reply, round, s.dirty ? 1 : 0);
  send_reply(c, std::move(s));
}

void CacheManager::send_reply(Command c, ServedCommand s) {
  if (c == Command::kFetch) {
    send_dir(msg::kFetchReply,
             msg::FetchReply{s.view, s.round, std::move(s.image), s.dirty,
                             dir_generation_});
  } else {
    send_dir(msg::kInvalidateAck,
             msg::InvalidateAck{s.view, s.round, std::move(s.image), s.dirty,
                                dir_generation_});
  }
}

// ---- write-ahead journal ----------------------------------------------------

void CacheManager::replay_journal() {
  if (cfg_.journal == nullptr) return;
  const std::vector<WalRecord> records = cfg_.journal->load();
  if (records.empty()) return;
  ViewId resume = kInvalidViewId;
  std::uint64_t last_incarnation = 0;
  std::uint64_t ceiling = 0;
  ObjectImage pending;
  // Ordered by request id, which is issue order: replayed intents go
  // back out in the sequence the pre-crash life sent them.
  std::map<std::uint64_t, ObjectImage> intents;
  for (const auto& w : records) {
    switch (w.kind) {
      case WalKind::kCmBind:
        resume = w.view;
        last_incarnation = std::max(last_incarnation, w.req);
        break;
      case WalKind::kCmWrite:
        pending = w.image;  // cumulative snapshot: last one wins
        break;
      case WalKind::kCmIntent:
        // The buffered set traveled with this extraction.
        intents[w.req] = w.image;
        ceiling = std::max(ceiling, w.req);
        pending.clear();
        break;
      case WalKind::kCmFlush:
        intents.erase(w.req);
        break;
      case WalKind::kCmReq:
        ceiling = std::max(ceiling, w.req);
        break;
      default:
        break;  // directory-side kinds: not ours
    }
  }
  next_req_ = ceiling + 1;
  req_ceiling_ = next_req_;
  if (resume != kInvalidViewId) {
    resume_view_ = resume;
    incarnation_ = last_incarnation + 1;
  }
  const bool have_pending = !pending.empty();
  if (resume != kInvalidViewId || !intents.empty() || have_pending) {
    stats_.inc("journal.replay");
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(),
                      obs::EventKind::kJournalReplay,
                      obs::Role::kCacheManager, obs::agent_key(self_), 0,
                      "replay", resume,
                      intents.size() + (have_pending ? 1 : 0));
  }
  if (intents.empty() && !have_pending) return;
  // Refresh the base image first, then surrender the pre-crash state:
  // one push per unflushed intent under its ORIGINAL request id (the
  // directory's (address, req) key absorbs any that already merged),
  // then the buffered write set under a fresh id. Preset images are
  // never re-extracted — the restarted view starts empty.
  queue_.push_back(Op{OpKind::kInit, Mode::kWeak, {}});
  for (auto& [req, image] : intents) {
    Op& op = queue_.emplace_back(OpKind::kPush, Mode::kWeak, Done{});
    op.ex.req = req;
    op.image = std::move(image);
    stats_.inc("journal.replayed.intent");
  }
  if (have_pending) {
    const std::uint64_t req = alloc_req();
    Op& op = queue_.emplace_back(OpKind::kPush, Mode::kWeak, Done{});
    op.ex.req = req;
    op.image = std::move(pending);
    stats_.inc("journal.replayed.wbuf");
  }
}

void CacheManager::journal_append(WalRecord w) {
  if (cfg_.journal == nullptr) return;
  cfg_.journal->append(w);
  if (++journal_appends_ >= kJournalCompactThreshold) compact_journal();
}

void CacheManager::journal_bind() {
  if (cfg_.journal == nullptr) return;
  journal_append(cm_record(WalKind::kCmBind, incarnation_, id_));
}

void CacheManager::journal_intent(std::uint64_t req,
                                  const ObjectImage& image) {
  if (cfg_.journal == nullptr || image.empty()) return;
  stats_.inc("journal.intent");
  journal_append(cm_record(WalKind::kCmIntent, req, id_, image));
}

void CacheManager::journal_flush(std::uint64_t req) {
  if (cfg_.journal == nullptr) return;
  journal_append(cm_record(WalKind::kCmFlush, req));
}

void CacheManager::journal_write_buffer() {
  if (cfg_.journal == nullptr) return;
  stats_.inc("journal.write");
  journal_append(cm_record(WalKind::kCmWrite, 0, id_,
                           view_.peek_from_view(cfg_.properties)));
}

void CacheManager::compact_journal() {
  if (cfg_.journal == nullptr) return;
  journal_appends_ = 0;
  std::vector<WalRecord> snapshot;
  if (alive_ && !moved_) {
    if (registered_ && id_ != kInvalidViewId) {
      snapshot.push_back(cm_record(WalKind::kCmBind, incarnation_, id_));
    }
    snapshot.push_back(cm_record(WalKind::kCmReq, req_ceiling_));
    // Every extracted image not yet acked, in issue order: the in-flight
    // op (i == 0), the queue, then the sealed handoff (i == n + 1).
    const std::size_t n = queue_.size();
    for (std::size_t i = 0; i <= n + 1; ++i) {
      const std::optional<Op>& end = i == 0 ? current_ : handoff_;
      const Op* op = i > 0 && i <= n    ? &queue_[i - 1]
                     : end.has_value() ? &*end
                                       : nullptr;
      if (op != nullptr && op->image.has_value() && !op->image->empty()) {
        snapshot.push_back(
            cm_record(WalKind::kCmIntent, op->ex.req, id_, *op->image));
      }
    }
    WalRecord wb = cm_record(WalKind::kCmWrite, 0, id_,
                             view_.peek_from_view(cfg_.properties));
    if (!wb.image.empty()) snapshot.push_back(std::move(wb));
  }
  cfg_.journal->compact(snapshot);
  stats_.inc("journal.compacted");
}

std::uint64_t CacheManager::alloc_req() {
  const std::uint64_t r = next_req_++;
  if (cfg_.journal != nullptr && next_req_ > req_ceiling_) {
    // Promise a stride of ids ahead of time so a restart never re-mints
    // an id the directory may already associate with a merged op.
    req_ceiling_ = next_req_ + kReqCeilingStride;
    journal_append(cm_record(WalKind::kCmReq, req_ceiling_));
  }
  return r;
}

// ---- view migration ---------------------------------------------------------

void CacheManager::handle_move_req(const net::Message& m) {
  const auto& req = net::payload_as<msg::ViewMoveReq>(m);
  if (!alive_ || !registered_ || req.view != id_) {
    stats_.inc("migrate.req.ignored");
    return;
  }
  if (sealed()) {
    if (req.epoch != move_epoch_) {
      // The directory opened a fresh migration attempt for us; the same
      // sealed extraction simply travels under the new epoch (its merge
      // stays keyed by the handoff's req, so no double-merge is possible).
      move_epoch_ = req.epoch;
      stats_.inc("migrate.requiesced");
    } else {
      stats_.inc("msg.duplicate.dropped");
    }
    send_handoff();
    return;
  }
  if (move_requested_ && move_epoch_ == req.epoch) {
    stats_.inc("msg.duplicate.dropped");
    return;
  }
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgReceived,
                    obs::Role::kCacheManager, obs::agent_key(self_), 0,
                    msg::kViewMoveReq, req.epoch);
  move_requested_ = true;
  move_epoch_ = req.epoch;
  stats_.inc("migrate.quiesce");
  try_seal();
}

void CacheManager::try_seal() {
  if (!move_requested_ || sealed() || !alive_ || !registered_) return;
  if (in_use_ || current_.has_value() || !queue_.empty()) return;
  for (const auto& l : commands_) {
    if (!l.deferred.empty()) return;
  }
  seal();
}

void CacheManager::seal() {
  // Filed before the journal appends below, so a compaction they
  // trigger snapshots its intent.
  Op& h = handoff_.emplace(OpKind::kPush, Mode::kWeak, Done{});
  h.ex.req = alloc_req();
  if (dirty_) {
    // Extracted exactly once; every retransmission (and any post-abort
    // or journal-replayed re-push) resends this same image under h's req.
    h.image = extract_dirty();
    journal_write_buffer();  // the buffered set left with the handoff
    journal_intent(h.ex.req, *h.image);
  }
  h.echoes.assign(unconfirmed_echoes_.begin(), unconfirmed_echoes_.end());
  stats_.inc("migrate.sealed");
  send_handoff();
}

void CacheManager::send_handoff() {
  if (!handoff_.has_value() || !alive_) return;
  Op& h = *handoff_;
  next_attempt(h.ex, ExchangeKind::kHandoff);
  msg::HandoffState hs;
  hs.view = id_;
  hs.epoch = move_epoch_;
  hs.mode = mode_;
  hs.exclusive = exclusive_;
  hs.dirty = h.image.has_value();
  if (h.image.has_value()) hs.delta = *h.image;
  hs.echoes = h.echoes;
  hs.req = h.ex.req;
  hs.gen = dir_generation_;
  // b = dirty: an extraction the directory must merge exactly once.
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), send_event(h.ex),
                    obs::Role::kCacheManager, obs::agent_key(self_),
                    obs::span_id(self_, h.ex.req), msg::kHandoffState,
                    h.ex.attempts, hs.dirty ? 1 : 0);
  send_dir(msg::kHandoffState, std::move(hs));
}

void CacheManager::unseal_resume() {
  if (!handoff_.has_value()) return;
  cancel(retry_timer(ExchangeKind::kHandoff));
  move_requested_ = false;
  stats_.inc("migrate.resumed");
  if (handoff_->image.has_value()) {
    // The push it becomes: a fresh exchange under the same request id.
    handoff_->ex = Exchange{handoff_->ex.req};
    queue_.push_front(std::move(*handoff_));
    stats_.inc("migrate.repush");
  }
  handoff_.reset();
  pump();
}

void CacheManager::handle_move_install(const net::Message& m) {
  const auto& ins = net::payload_as<msg::ViewMoveInstall>(m);
  if (!alive_) return;
  if (registered_ && id_ == ins.view && installed_epoch_ == ins.epoch) {
    // Retransmitted install: replay the ack idempotently.
    stats_.inc("msg.duplicate.replayed");
    send_dir(msg::kViewMoveAck,
             msg::ViewMoveAck{id_, ins.epoch, dir_generation_});
    return;
  }
  if (registered_ && id_ != kInvalidViewId && id_ != ins.view) {
    // We already host a different view; the migration aborts by timeout.
    stats_.inc("migrate.install.refused");
    return;
  }
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgReceived,
                    obs::Role::kCacheManager, obs::agent_key(self_), 0,
                    msg::kViewMoveInstall, ins.epoch, ins.view);
  installed_epoch_ = ins.epoch;
  id_ = ins.view;
  registered_ = true;
  rejected_ = false;
  reject_reason_.clear();
  cfg_.view_name = ins.view_name;
  cfg_.properties = ins.properties;
  cfg_.validity_trigger = ins.validity_trigger;
  mode_ = ins.mode;
  exclusive_ = ins.exclusive;
  adopt(ins.image);
  dirty_ = false;
  journal_bind();
  stats_.inc("migrate.installed");
  arm_trigger_timer();
  start_heartbeats();
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgSent,
                    obs::Role::kCacheManager, obs::agent_key(self_), 0,
                    msg::kViewMoveAck, ins.epoch);
  send_dir(msg::kViewMoveAck,
           msg::ViewMoveAck{id_, ins.epoch, dir_generation_});
  pump();
}

void CacheManager::handle_move_done(const net::Message& m) {
  const auto& done = net::payload_as<msg::ViewMoveDone>(m);
  if (!alive_) return;
  if (sealed() && done.view == id_ && done.epoch == move_epoch_) {
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgReceived,
                      obs::Role::kCacheManager, obs::agent_key(self_), 0,
                      msg::kViewMoveDone, done.epoch, done.aborted ? 1 : 0);
    if (done.aborted) {
      stats_.inc("migrate.aborted.src");
      unseal_resume();
      return;
    }
    // The view now lives at the destination; this manager is done for
    // good. Its journal is wiped so a restart can never resurrect the
    // moved view.
    moved_ = true;
    handoff_.reset();
    move_requested_ = false;
    alive_ = false;
    unconfirmed_echoes_.clear();
    cancel(retry_timer(ExchangeKind::kHandoff));
    retire();
    stats_.inc("migrate.moved");
    fail_queued();
    return;
  }
  if (done.aborted && !sealed() && move_requested_ && done.view == id_ &&
      done.epoch == move_epoch_) {
    // Aborted before we even quiesced: stand down the move request so
    // triggers resume firing.
    move_requested_ = false;
    stats_.inc("migrate.aborted.src");
    return;
  }
  if (done.aborted && registered_ && done.view == id_ &&
      installed_epoch_ == done.epoch && installed_epoch_ != 0) {
    // Destination side of an aborted migration: uninstall the view our
    // ack never sealed — the source resumes serving it.
    stats_.inc("migrate.uninstalled");
    id_ = kInvalidViewId;
    installed_epoch_ = 0;
    retire();
    return;
  }
  stats_.inc("msg.duplicate.dropped");
}

// ---- quality triggers --------------------------------------------------------

void CacheManager::arm_trigger_timer() {
  if (!push_trigger_.has_value() && !pull_trigger_.has_value()) return;
  if (trigger_timer_ != net::kInvalidTimerId) return;  // already armed
  // Daemon timer: the recurring poll must not keep a run-to-quiescence
  // simulation alive forever.
  trigger_timer_ = fabric_.schedule_daemon(self_, cfg_.trigger_poll,
                                           [this] { poll_triggers(); });
}

void CacheManager::poll_triggers() {
  trigger_timer_ = net::kInvalidTimerId;
  if (!alive_) return;
  // Quiescent only: triggers never interrupt the mutual-exclusion
  // section or preempt an in-flight operation.
  const bool can_fire = !in_use_ && !current_.has_value() &&
                        queue_.empty() && !move_requested_;
  if (can_fire && registered_) {
    if (fires(pull_trigger_, last_pull_at_, "pull")) pull_image();
    if (dirty_ && fires(push_trigger_, last_push_at_, "push")) push_image();
  }
  arm_trigger_timer();
}

bool CacheManager::fires(const std::optional<trigger::Trigger>& t,
                         sim::Time since, const char* what) {
  if (!t.has_value()) return false;
  const double t_ms = sim::to_ms(fabric_.now() - since);
  if (!t->evaluate(t_ms, view_.variables())) return false;
  stats_.inc_cat("auto.", what);
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kTriggerFired,
                    obs::Role::kCacheManager, obs::agent_key(self_), 0, what,
                    static_cast<std::uint64_t>(t_ms));
  return true;
}

}  // namespace flecc::core

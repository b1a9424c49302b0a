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

constexpr std::size_t kServedFetchWindow = 8;
constexpr std::size_t kUnconfirmedEchoWindow = 32;
constexpr std::size_t kServedInvalidateWindow = 4;

/// Generation stamp of a directory-originated message; 0 = unstamped.
std::uint64_t dm_generation_of(const net::Message& m) {
  if (m.type == msg::kRegisterAck) {
    return net::payload_as<msg::RegisterAck>(m).gen;
  }
  if (m.type == msg::kInitReply) {
    return net::payload_as<msg::InitReply>(m).gen;
  }
  if (m.type == msg::kPullReply) {
    return net::payload_as<msg::PullReply>(m).gen;
  }
  if (m.type == msg::kPushAck) return net::payload_as<msg::PushAck>(m).gen;
  if (m.type == msg::kAcquireGrant) {
    return net::payload_as<msg::AcquireGrant>(m).gen;
  }
  if (m.type == msg::kInvalidateReq) {
    return net::payload_as<msg::InvalidateReq>(m).gen;
  }
  if (m.type == msg::kFetchReq) return net::payload_as<msg::FetchReq>(m).gen;
  if (m.type == msg::kModeChangeAck) {
    return net::payload_as<msg::ModeChangeAck>(m).gen;
  }
  if (m.type == msg::kKillAck) return net::payload_as<msg::KillAck>(m).gen;
  if (m.type == msg::kUpdateNotify) {
    return net::payload_as<msg::UpdateNotify>(m).gen;
  }
  if (m.type == msg::kHeartbeatAck) {
    return net::payload_as<msg::HeartbeatAck>(m).gen;
  }
  if (m.type == msg::kOpNack) return net::payload_as<msg::OpNack>(m).gen;
  if (m.type == msg::kBusy) return net::payload_as<msg::Busy>(m).gen;
  if (m.type == msg::kDirectoryRebuild) {
    return net::payload_as<msg::DirectoryRebuild>(m).gen;
  }
  if (m.type == msg::kViewMoveReq) {
    return net::payload_as<msg::ViewMoveReq>(m).gen;
  }
  if (m.type == msg::kViewMoveInstall) {
    return net::payload_as<msg::ViewMoveInstall>(m).gen;
  }
  if (m.type == msg::kViewMoveDone) {
    return net::payload_as<msg::ViewMoveDone>(m).gen;
  }
  return 0;
}

/// Journal compaction cadence: rewrite the log as a snapshot once this
/// many records accumulated since the last compaction.
constexpr std::size_t kJournalCompactThreshold = 256;
/// How many request ids one kCmReq ceiling promise covers; amortizes
/// the journal traffic of alloc_req() to one record per 64 ids.
constexpr std::uint64_t kReqCeilingStride = 64;

}  // namespace

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
    register_req_ = alloc_req();
    send_register();
  }
  // else: idle migration destination — a ViewMoveInstall adopts us.
}

CacheManager::~CacheManager() {
  if (trigger_timer_ != net::kInvalidTimerId) {
    fabric_.cancel_timer(trigger_timer_);
  }
  if (handoff_timer_ != net::kInvalidTimerId) {
    fabric_.cancel_timer(handoff_timer_);
    handoff_timer_ = net::kInvalidTimerId;
  }
  cancel_op_timer();
  if (register_timer_ != net::kInvalidTimerId) {
    fabric_.cancel_timer(register_timer_);
    register_timer_ = net::kInvalidTimerId;
  }
  stop_heartbeats();
  fabric_.set_clock(self_, nullptr);
  fabric_.unbind(self_);
}

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
  // exclusive" so merges/extracts never interleave with work).
  if (deferred_invalidate_epoch_.has_value()) {
    const auto epoch = *deferred_invalidate_epoch_;
    deferred_invalidate_epoch_.reset();
    serve_invalidate(epoch);
  }
  auto tokens = std::move(deferred_fetch_tokens_);
  deferred_fetch_tokens_.clear();
  for (const auto token : tokens) serve_fetch(token);
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
  cancel_op_timer();
  if (register_timer_ != net::kInvalidTimerId) {
    fabric_.cancel_timer(register_timer_);
    register_timer_ = net::kInvalidTimerId;
  }
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
  deferred_invalidate_epoch_.reset();
  deferred_fetch_tokens_.clear();
  served_fetches_.clear();
  served_invalidates_.clear();
  stats_.inc("reconnect");

  if (abandoned.has_value()) {
    abandoned->attempts = 0;  // fresh retry budget for the new incarnation
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

  register_req_ = alloc_req();
  register_attempts_ = 0;
  send_register();
}

// ---- registration -----------------------------------------------------------

void CacheManager::send_register() {
  if (register_attempts_ == 0) register_started_at_ = fabric_.now();
  ++register_attempts_;
  msg::RegisterReq req;
  req.view_name = cfg_.view_name;
  req.properties = cfg_.properties;
  req.mode = mode_;
  req.push_trigger = cfg_.push_trigger;
  req.pull_trigger = cfg_.pull_trigger;
  req.validity_trigger = cfg_.validity_trigger;
  req.resume_view = resume_view_;
  req.incarnation = incarnation_;
  req.req = register_req_;
  req.gen = dir_generation_;
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(),
                    register_attempts_ == 1
                        ? obs::EventKind::kMsgSent
                        : obs::EventKind::kMsgRetransmitted,
                    obs::Role::kCacheManager, obs::agent_key(self_),
                    obs::span_id(self_, register_req_), msg::kRegisterReq,
                    register_attempts_);
  send_dir(msg::kRegisterReq, std::move(req));
  if (!cfg_.retry.enabled()) return;
  if (register_attempts_ < cfg_.retry.max_attempts) {
    register_timer_ = fabric_.schedule(
        self_, cfg_.retry.timeout_for(register_attempts_, retry_rng_),
        [this] { on_register_timeout(); });
  } else {
    // Attempt cap reached: keep trying, but on a daemon timer at the
    // backoff ceiling so an unreachable directory never wedges a
    // run-to-quiescence simulation — recovery stays self-driving once
    // connectivity returns.
    register_timer_ = fabric_.schedule_daemon(
        self_, cfg_.retry.max_timeout, [this] { on_register_timeout(); });
  }
}

void CacheManager::on_register_timeout() {
  register_timer_ = net::kInvalidTimerId;
  if (!alive_ || registered_ || rejected_) return;
  if (cfg_.retry.deadline > 0 && register_started_at_ >= 0 &&
      fabric_.now() - register_started_at_ >= cfg_.retry.deadline) {
    // The directory stayed unreachable for this incarnation's whole
    // budget: fail registration terminally so queued callers unwedge
    // (they observe the failure through rejected()).
    stats_.inc("reliability.exhausted");
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(),
                      obs::EventKind::kRetryExhausted,
                      obs::Role::kCacheManager, obs::agent_key(self_),
                      obs::span_id(self_, register_req_), "register",
                      register_attempts_);
    rejected_ = true;
    reject_reason_ = "registration deadline exhausted";
    if (cfg_.on_give_up) cfg_.on_give_up("register");
    std::deque<Op> q = std::move(queue_);
    queue_.clear();
    for (auto& op : q) {
      if (op.done) op.done();
    }
    return;
  }
  stats_.inc("register.retry");
  send_register();
}

// ---- crash simulation -------------------------------------------------------

void CacheManager::halt() {
  if (halted_) return;
  halted_ = true;
  cancel_op_timer();
  if (register_timer_ != net::kInvalidTimerId) {
    fabric_.cancel_timer(register_timer_);
    register_timer_ = net::kInvalidTimerId;
  }
  stop_heartbeats();
  if (trigger_timer_ != net::kInvalidTimerId) {
    fabric_.cancel_timer(trigger_timer_);
    trigger_timer_ = net::kInvalidTimerId;
  }
  if (handoff_timer_ != net::kInvalidTimerId) {
    fabric_.cancel_timer(handoff_timer_);
    handoff_timer_ = net::kInvalidTimerId;
  }
  current_.reset();  // completions are deliberately NOT invoked
  queue_.clear();
  fabric_.set_clock(self_, nullptr);
  fabric_.unbind(self_);
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
                    op_label(op.kind), queue_.size());
  queue_.push_back(std::move(op));
  pump();
}

void CacheManager::pump() {
  if (sealed_) return;  // quiesced for migration: nothing issues
  if (current_.has_value() || !registered_ || queue_.empty()) {
    try_seal();  // the queue may just have drained under a move request
    return;
  }
  current_ = std::move(queue_.front());
  queue_.pop_front();
  issue(*current_);
}

void CacheManager::issue(Op& op) {
  if (is_bulk(op.kind) && !breaker_.allow(fabric_.now())) {
    // Breaker open: hold the op locally instead of hammering a drowning
    // directory; the timer re-tries at the window edge (where allow()
    // admits it as the half-open probe). The overall deadline still
    // applies, so a destination that never recovers is terminal.
    if (cfg_.retry.deadline > 0 && op.first_issued_at >= 0 &&
        fabric_.now() - op.first_issued_at >= cfg_.retry.deadline) {
      give_up_current(op_label(op.kind));
      return;
    }
    stats_.inc("breaker.deferred");
    cancel_op_timer();
    op_timer_ =
        fabric_.schedule(self_, breaker_.retry_in(fabric_.now()), [this] {
          op_timer_ = net::kInvalidTimerId;
          if (alive_ && current_.has_value()) issue(*current_);
        });
    return;
  }
  ++op.attempts;
  if (op.req == 0) op.req = alloc_req();
  if (op.attempts == 1) {
    if (op.first_issued_at < 0) op.first_issued_at = fabric_.now();
    // a = our view id: the monitor's agent -> view mapping.
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kOpStarted,
                      obs::Role::kCacheManager, obs::agent_key(self_),
                      obs::span_id(self_, op.req), op_label(op.kind), id_);
  }
  switch (op.kind) {
    case OpKind::kInit: {
      send_dir(msg::kInitReq, msg::InitReq{id_, op.req, dir_generation_});
      break;
    }
    case OpKind::kPull: {
      send_dir(msg::kPullReq,
               msg::PullReq{id_, intent_, op.req, dir_generation_});
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
        journal_intent(op.req, *op.image);
      }
      msg::PushUpdate req;
      req.view = id_;
      req.image = *op.image;
      req.req = op.req;
      req.gen = dir_generation_;
      req.echoes = op.echoes;
      send_dir(msg::kPushUpdate, std::move(req));
      break;
    }
    case OpKind::kAcquire: {
      send_dir(msg::kAcquireReq,
               msg::AcquireReq{id_, intent_, op.req, dir_generation_});
      break;
    }
    case OpKind::kModeChange: {
      send_dir(msg::kModeChangeReq,
               msg::ModeChangeReq{id_, op.new_mode, op.req, dir_generation_});
      break;
    }
    case OpKind::kKill: {
      // op.image doubles as the dirty marker: set at first issue only.
      if (op.attempts == 1) {
        if (dirty_) op.image = extract_dirty();
        op.echoes.assign(unconfirmed_echoes_.begin(),
                         unconfirmed_echoes_.end());
        if (op.image.has_value()) journal_intent(op.req, *op.image);
      }
      msg::KillReq req;
      req.view = id_;
      req.dirty = op.image.has_value();
      if (op.image.has_value()) req.final_image = *op.image;
      req.req = op.req;
      req.gen = dir_generation_;
      req.echoes = op.echoes;
      send_dir(msg::kKillReq, std::move(req));
      break;
    }
  }
  // b = 1 when this op carries an extracted dirty image (push always,
  // kill when dirty): the monitor's exactly-once-merge bookkeeping.
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(),
                    op.attempts == 1 ? obs::EventKind::kMsgSent
                                     : obs::EventKind::kMsgRetransmitted,
                    obs::Role::kCacheManager, obs::agent_key(self_),
                    obs::span_id(self_, op.req), op_msg_type(op.kind),
                    op.attempts, op.image.has_value() ? 1 : 0);
  cancel_op_timer();
  if (cfg_.retry.enabled()) {
    op_timer_ = fabric_.schedule(
        self_, cfg_.retry.timeout_for(op.attempts, retry_rng_),
        [this] { on_op_timeout(); });
  }
}

void CacheManager::on_op_timeout() {
  op_timer_ = net::kInvalidTimerId;
  if (!alive_ || !current_.has_value()) return;
  if (cfg_.retry.deadline > 0 && current_->first_issued_at >= 0 &&
      fabric_.now() - current_->first_issued_at >= cfg_.retry.deadline) {
    // Overall per-op budget spent across every retransmission, Busy
    // back-off, and reconnect cycle: give up terminally instead of
    // failing over into yet another retry round.
    give_up_current(op_label(current_->kind));
    return;
  }
  if (current_->attempts >= cfg_.retry.max_attempts) {
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
  issue(*current_);
}

void CacheManager::give_up_current(const char* why) {
  stats_.inc("reliability.exhausted");
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(),
                    obs::EventKind::kRetryExhausted,
                    obs::Role::kCacheManager, obs::agent_key(self_),
                    obs::span_id(self_, current_->req), why,
                    current_->attempts);
  cancel_op_timer();
  Done done = std::move(current_->done);
  current_.reset();
  // After the reset: the breaker hook must not re-park the abandoned op.
  breaker_.on_failure(fabric_.now());
  if (cfg_.on_give_up) cfg_.on_give_up(why);
  if (done) done();
  pump();
}

void CacheManager::on_breaker_transition(flow::BreakerState from,
                                         flow::BreakerState to) {
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
      cancel_op_timer();
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
  if (!current_.has_value()) {
    // A late duplicate of an already-completed exchange (req != 0), or a
    // genuinely unexpected message (req == 0: unframed/forged).
    stats_.inc(req != 0 ? "msg.duplicate.dropped" : "msg.unexpected");
    if (req != 0) {
      FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kDedupHit,
                        obs::Role::kCacheManager, obs::agent_key(self_),
                        obs::span_id(self_, req), op_reply_type(kind));
    }
    return false;
  }
  if (current_->kind != kind || (req != 0 && req != current_->req)) {
    stats_.inc(req != 0 ? "msg.stale.dropped" : "msg.unexpected");
    if (req != 0) {
      FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kDedupHit,
                        obs::Role::kCacheManager, obs::agent_key(self_),
                        obs::span_id(self_, req), op_reply_type(kind));
    }
    return false;
  }
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgReceived,
                    obs::Role::kCacheManager, obs::agent_key(self_),
                    obs::span_id(self_, current_->req), op_reply_type(kind));
  return true;
}

void CacheManager::complete_current() {
  cancel_op_timer();
  // A served bulk request is proof the directory is healthy again; the
  // transition hook un-degrades (kClosed) if overload had demoted us.
  if (is_bulk(current_->kind)) breaker_.on_success();
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kOpCompleted,
                    obs::Role::kCacheManager, obs::agent_key(self_),
                    obs::span_id(self_, current_->req),
                    op_label(current_->kind), current_->attempts);
  Done done = std::move(current_->done);
  current_.reset();
  if (done) done();
  pump();
}

void CacheManager::cancel_op_timer() {
  if (op_timer_ != net::kInvalidTimerId) {
    fabric_.cancel_timer(op_timer_);
    op_timer_ = net::kInvalidTimerId;
  }
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
  if (heartbeat_timer_ != net::kInvalidTimerId) {
    fabric_.cancel_timer(heartbeat_timer_);
    heartbeat_timer_ = net::kInvalidTimerId;
  }
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
  if (const std::uint64_t gen = dm_generation_of(m); gen != 0) {
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

  if (m.type == msg::kDirectoryRebuild) return handle_rebuild_probe(m);
  if (m.type == msg::kViewMoveReq) return handle_move_req(m);
  if (m.type == msg::kViewMoveInstall) return handle_move_install(m);
  if (m.type == msg::kViewMoveDone) return handle_move_done(m);

  if (m.type == msg::kRegisterAck) {
    const auto& ack = net::payload_as<msg::RegisterAck>(m);
    if (ack.req != 0 && ack.req != register_req_) {
      stats_.inc("msg.stale.dropped");  // ack for a previous incarnation
      return;
    }
    if (registered_ || rejected_) {
      stats_.inc("msg.duplicate.dropped");
      return;
    }
    if (register_timer_ != net::kInvalidTimerId) {
      fabric_.cancel_timer(register_timer_);
      register_timer_ = net::kInvalidTimerId;
    }
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgReceived,
                      obs::Role::kCacheManager, obs::agent_key(self_),
                      obs::span_id(self_, register_req_), msg::kRegisterAck,
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
      // Flush queued ops so callers do not hang.
      std::deque<Op> q = std::move(queue_);
      queue_.clear();
      for (auto& op : q) {
        if (op.done) op.done();
      }
    }
    return;
  }

  if (m.type == msg::kHeartbeatAck) {
    const auto& ack = net::payload_as<msg::HeartbeatAck>(m);
    if (!alive_ || !registered_ || ack.view != id_) return;
    if (sealed_) {
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

  if (m.type == msg::kBusy) {
    const auto& busy = net::payload_as<msg::Busy>(m);
    if (!current_.has_value() ||
        (busy.req != 0 && busy.req != current_->req)) {
      // Late Busy for an exchange that already resolved.
      stats_.inc("msg.duplicate.dropped");
      return;
    }
    stats_.inc("flow.busy.received");
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgReceived,
                      obs::Role::kCacheManager, obs::agent_key(self_),
                      obs::span_id(self_, current_->req), msg::kBusy,
                      static_cast<std::uint64_t>(busy.retry_after));
    // An explicit "try later": swap the exponential schedule for the
    // server-suggested retry_after (jittered so a shed burst does not
    // re-arrive in lockstep) and reset the attempt count — Busy proves
    // the destination is alive, so the retransmission budget must not
    // tick toward failover while we politely back off. The overall
    // deadline (first_issued_at) still bounds the total wait.
    current_->attempts = 1;
    cancel_op_timer();
    double delay = static_cast<double>(
        busy.retry_after > 0 ? busy.retry_after : cfg_.retry.base_timeout);
    if (cfg_.retry.jitter > 0.0) {
      delay *= retry_rng_.uniform(1.0, 1.0 + cfg_.retry.jitter);
    }
    op_timer_ = fabric_.schedule(
        self_, std::max<sim::Duration>(1, static_cast<sim::Duration>(delay)),
        [this] { on_op_timeout(); });
    // Last: the breaker's transition hook may park current_ behind a
    // degradation mode switch (which cancels the timer just armed).
    breaker_.on_busy(fabric_.now(), busy.retry_after);
    return;
  }

  if (m.type == msg::kOpNack) {
    const auto& nack = net::payload_as<msg::OpNack>(m);
    if (current_.has_value() &&
        (nack.req == 0 || nack.req == current_->req)) {
      stats_.inc("op.nack");
      reconnect();  // re-registers, then re-issues the nacked op
    } else {
      stats_.inc("msg.duplicate.dropped");
    }
    return;
  }

  if (m.type == msg::kInvalidateReq) {
    const auto& req = net::payload_as<msg::InvalidateReq>(m);
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgReceived,
                      obs::Role::kCacheManager, obs::agent_key(self_), 0,
                      msg::kInvalidateReq, req.epoch);
    if (in_use_) {
      if (deferred_invalidate_epoch_ == req.epoch) {
        stats_.inc("msg.duplicate.dropped");  // retransmitted command
      } else {
        deferred_invalidate_epoch_ = req.epoch;  // ack after endUseImage
        stats_.inc("invalidate.deferred");
      }
    } else {
      serve_invalidate(req.epoch);
    }
    return;
  }

  if (m.type == msg::kFetchReq) {
    const auto& req = net::payload_as<msg::FetchReq>(m);
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgReceived,
                      obs::Role::kCacheManager, obs::agent_key(self_), 0,
                      msg::kFetchReq, req.token);
    if (in_use_) {
      const bool deferred =
          std::find(deferred_fetch_tokens_.begin(),
                    deferred_fetch_tokens_.end(),
                    req.token) != deferred_fetch_tokens_.end();
      if (deferred) {
        stats_.inc("msg.duplicate.dropped");  // retransmitted command
      } else {
        deferred_fetch_tokens_.push_back(req.token);
        stats_.inc("fetch.deferred");
      }
    } else {
      serve_fetch(req.token);
    }
    return;
  }

  if (m.type == msg::kUpdateNotify) {
    ++notifies_received_;
    stats_.inc("notify.received");
    return;
  }

  // Replies to the in-flight operation.
  if (m.type == msg::kInitReply) {
    const auto& reply = net::payload_as<msg::InitReply>(m);
    if (!accept_reply(OpKind::kInit, reply.req)) return;
    view_.merge_into_view(reply.image, cfg_.properties);
    valid_ = true;
    dirty_ = false;
    last_version_ = reply.image.version();
    last_pull_at_ = fabric_.now();
    complete_current();
    return;
  }
  if (m.type == msg::kPullReply) {
    const auto& reply = net::payload_as<msg::PullReply>(m);
    if (!accept_reply(OpKind::kPull, reply.req)) return;
    view_.merge_into_view(reply.image, cfg_.properties);
    valid_ = true;
    last_version_ = reply.image.version();
    last_pull_unseen_ = reply.unseen_before;
    last_pull_at_ = fabric_.now();
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
    journal_flush(current_->req);
    complete_current();
    return;
  }
  if (m.type == msg::kAcquireGrant) {
    const auto& grant = net::payload_as<msg::AcquireGrant>(m);
    if (!accept_reply(OpKind::kAcquire, grant.req)) return;
    view_.merge_into_view(grant.image, cfg_.properties);
    valid_ = true;
    exclusive_ = true;
    // dirty_ is deliberately preserved: updates made before the acquire
    // (e.g. in weak mode just before a mode switch) still need to be
    // surrendered on the next invalidation/push/kill.
    last_version_ = grant.image.version();
    last_pull_at_ = fabric_.now();
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
    registered_ = false;
    valid_ = false;
    exclusive_ = false;
    dirty_ = false;
    confirm_echoes(current_->echoes);
    unconfirmed_echoes_.clear();  // nothing after the kill will carry them
    journal_flush(current_->req);
    if (cfg_.journal != nullptr) {
      cfg_.journal->compact({});  // a killed view never resumes
      journal_appends_ = 0;
    }
    if (trigger_timer_ != net::kInvalidTimerId) {
      fabric_.cancel_timer(trigger_timer_);
      trigger_timer_ = net::kInvalidTimerId;
    }
    stop_heartbeats();
    // Any ops queued behind kill can never complete remotely.
    std::deque<Op> q = std::move(queue_);
    queue_.clear();
    complete_current();
    for (auto& op : q) {
      if (op.done) op.done();
    }
    return;
  }
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
  if (sealed_) {
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
  if (current_.has_value()) {
    stats_.inc("op.reissued.rebuild");
    issue(*current_);
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

void CacheManager::serve_invalidate(std::uint64_t epoch) {
  // Retransmitted command: re-send the original ack (extraction already
  // moved the deltas; re-extracting would lose them).
  for (auto& [e, ack] : served_invalidates_) {
    if (e == epoch) {
      stats_.inc("msg.duplicate.replayed");
      FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kDedupHit,
                        obs::Role::kCacheManager, obs::agent_key(self_), 0,
                        msg::kInvalidateReq, epoch, /*replayed=*/1);
      ack.gen = dir_generation_;  // re-stamp under the current generation
      send_dir(msg::kInvalidateAck, ack);
      return;
    }
  }
  ++invalidations_served_;
  stats_.inc("invalidate.served");
  msg::InvalidateAck ack;
  ack.view = id_;
  ack.epoch = epoch;
  ack.gen = dir_generation_;
  ack.dirty = dirty_ && valid_;
  if (ack.dirty) {
    ack.image = extract_dirty();
    journal_write_buffer();  // the buffered set left with this reply
    queue_echo(msg::DeltaEcho{epoch, /*invalidate=*/true, id_, ack.image});
  }
  valid_ = false;
  exclusive_ = false;
  dirty_ = false;
  served_invalidates_.emplace_back(epoch, ack);
  if (served_invalidates_.size() > kServedInvalidateWindow) {
    served_invalidates_.pop_front();
  }
  // b = dirty: marks an extraction the directory must merge exactly once.
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgSent,
                    obs::Role::kCacheManager, obs::agent_key(self_), 0,
                    msg::kInvalidateAck, epoch, ack.dirty ? 1 : 0);
  send_dir(msg::kInvalidateAck, std::move(ack));
}

void CacheManager::serve_fetch(std::uint64_t token) {
  for (auto& [t, reply] : served_fetches_) {
    if (t == token) {
      stats_.inc("msg.duplicate.replayed");
      FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kDedupHit,
                        obs::Role::kCacheManager, obs::agent_key(self_), 0,
                        msg::kFetchReq, token, /*replayed=*/1);
      reply.gen = dir_generation_;  // re-stamp under the current generation
      send_dir(msg::kFetchReply, reply);
      return;
    }
  }
  stats_.inc("fetch.served");
  msg::FetchReply reply;
  reply.view = id_;
  reply.token = token;
  reply.gen = dir_generation_;
  reply.dirty = dirty_ && valid_;
  if (reply.dirty) {
    reply.image = extract_dirty();
    dirty_ = false;  // our updates are now at the primary
    journal_write_buffer();  // the buffered set left with this reply
    queue_echo(msg::DeltaEcho{token, /*invalidate=*/false, id_, reply.image});
  }
  served_fetches_.emplace_back(token, reply);
  if (served_fetches_.size() > kServedFetchWindow) served_fetches_.pop_front();
  // b = dirty: marks an extraction the directory must merge exactly once.
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgSent,
                    obs::Role::kCacheManager, obs::agent_key(self_), 0,
                    msg::kFetchReply, token, reply.dirty ? 1 : 0);
  send_dir(msg::kFetchReply, std::move(reply));
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
    Op op{OpKind::kPush, Mode::kWeak, {}};
    op.req = req;
    op.image = std::move(image);
    queue_.push_back(std::move(op));
    stats_.inc("journal.replayed.intent");
  }
  if (have_pending) {
    Op op{OpKind::kPush, Mode::kWeak, {}};
    op.req = alloc_req();
    op.image = std::move(pending);
    queue_.push_back(std::move(op));
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
  WalRecord w;
  w.kind = WalKind::kCmBind;
  w.view = id_;
  w.req = incarnation_;
  journal_append(std::move(w));
}

void CacheManager::journal_intent(std::uint64_t req,
                                  const ObjectImage& image) {
  if (cfg_.journal == nullptr || image.empty()) return;
  WalRecord w;
  w.kind = WalKind::kCmIntent;
  w.view = id_;
  w.req = req;
  w.image = image;
  stats_.inc("journal.intent");
  journal_append(std::move(w));
}

void CacheManager::journal_flush(std::uint64_t req) {
  if (cfg_.journal == nullptr) return;
  WalRecord w;
  w.kind = WalKind::kCmFlush;
  w.req = req;
  journal_append(std::move(w));
}

void CacheManager::journal_write_buffer() {
  if (cfg_.journal == nullptr) return;
  WalRecord w;
  w.kind = WalKind::kCmWrite;
  w.view = id_;
  w.image = view_.peek_from_view(cfg_.properties);
  stats_.inc("journal.write");
  journal_append(std::move(w));
}

void CacheManager::compact_journal() {
  if (cfg_.journal == nullptr) return;
  journal_appends_ = 0;
  std::vector<WalRecord> snapshot;
  if (alive_ && !moved_) {
    if (registered_ && id_ != kInvalidViewId) {
      WalRecord bind;
      bind.kind = WalKind::kCmBind;
      bind.view = id_;
      bind.req = incarnation_;
      snapshot.push_back(std::move(bind));
    }
    WalRecord ceil;
    ceil.kind = WalKind::kCmReq;
    ceil.req = req_ceiling_;
    snapshot.push_back(std::move(ceil));
    const auto add_intent = [&](std::uint64_t req, const ObjectImage& img) {
      if (img.empty()) return;
      WalRecord w;
      w.kind = WalKind::kCmIntent;
      w.view = id_;
      w.req = req;
      w.image = img;
      snapshot.push_back(std::move(w));
    };
    if (current_.has_value() && current_->image.has_value()) {
      add_intent(current_->req, *current_->image);
    }
    for (const auto& op : queue_) {
      if (op.image.has_value() && op.req != 0) {
        add_intent(op.req, *op.image);
      }
    }
    if (sealed_ && handoff_dirty_) add_intent(handoff_req_, handoff_image_);
    WalRecord wb;
    wb.kind = WalKind::kCmWrite;
    wb.view = id_;
    wb.image = view_.peek_from_view(cfg_.properties);
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
    WalRecord w;
    w.kind = WalKind::kCmReq;
    w.req = req_ceiling_;
    journal_append(std::move(w));
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
  if (sealed_) {
    if (req.epoch != seal_epoch_) {
      // The directory opened a fresh migration attempt for us; the same
      // sealed extraction simply travels under the new epoch (its merge
      // stays keyed by handoff_req_, so no double-merge is possible).
      seal_epoch_ = req.epoch;
      pending_move_epoch_ = req.epoch;
      stats_.inc("migrate.requiesced");
    } else {
      stats_.inc("msg.duplicate.dropped");
    }
    send_handoff();
    return;
  }
  if (move_requested_ && pending_move_epoch_ == req.epoch) {
    stats_.inc("msg.duplicate.dropped");
    return;
  }
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgReceived,
                    obs::Role::kCacheManager, obs::agent_key(self_), 0,
                    msg::kViewMoveReq, req.epoch);
  move_requested_ = true;
  pending_move_epoch_ = req.epoch;
  stats_.inc("migrate.quiesce");
  try_seal();
}

void CacheManager::try_seal() {
  if (!move_requested_ || sealed_ || !alive_ || !registered_) return;
  if (in_use_ || current_.has_value() || !queue_.empty()) return;
  if (deferred_invalidate_epoch_.has_value() ||
      !deferred_fetch_tokens_.empty()) {
    return;
  }
  seal();
}

void CacheManager::seal() {
  sealed_ = true;
  seal_epoch_ = pending_move_epoch_;
  handoff_dirty_ = dirty_ && valid_;
  handoff_image_ = ObjectImage{};
  handoff_req_ = alloc_req();
  if (handoff_dirty_) {
    // Extracted exactly once; every retransmission (and any post-abort
    // or journal-replayed re-push) resends this same image under
    // handoff_req_.
    handoff_image_ = extract_dirty();
    journal_write_buffer();  // the buffered set left with the handoff
    journal_intent(handoff_req_, handoff_image_);
  }
  handoff_echoes_.assign(unconfirmed_echoes_.begin(),
                         unconfirmed_echoes_.end());
  handoff_attempts_ = 0;
  stats_.inc("migrate.sealed");
  send_handoff();
}

void CacheManager::send_handoff() {
  if (!sealed_ || !alive_) return;
  ++handoff_attempts_;
  msg::HandoffState hs;
  hs.view = id_;
  hs.epoch = seal_epoch_;
  hs.mode = mode_;
  hs.exclusive = exclusive_;
  hs.dirty = handoff_dirty_;
  hs.delta = handoff_image_;
  hs.echoes = handoff_echoes_;
  hs.req = handoff_req_;
  hs.gen = dir_generation_;
  // b = dirty: an extraction the directory must merge exactly once.
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(),
                    handoff_attempts_ == 1 ? obs::EventKind::kMsgSent
                                           : obs::EventKind::kMsgRetransmitted,
                    obs::Role::kCacheManager, obs::agent_key(self_),
                    obs::span_id(self_, handoff_req_), msg::kHandoffState,
                    handoff_attempts_, handoff_dirty_ ? 1 : 0);
  send_dir(msg::kHandoffState, std::move(hs));
  if (handoff_timer_ != net::kInvalidTimerId) {
    fabric_.cancel_timer(handoff_timer_);
    handoff_timer_ = net::kInvalidTimerId;
  }
  if (!cfg_.retry.enabled()) return;
  const sim::Duration delay =
      cfg_.retry.timeout_for(handoff_attempts_, retry_rng_);
  if (handoff_attempts_ < cfg_.retry.max_attempts) {
    handoff_timer_ = fabric_.schedule(self_, delay, [this] {
      handoff_timer_ = net::kInvalidTimerId;
      send_handoff();
    });
  } else {
    // Retransmission budget spent without a ViewMoveDone — the
    // directory likely crashed mid-migration and forgot it. Resume
    // serving; the delta re-pushes under the same request id, which the
    // WAL-persisted merge marker dedups if the handoff did merge.
    handoff_timer_ = fabric_.schedule(self_, delay, [this] {
      handoff_timer_ = net::kInvalidTimerId;
      if (!sealed_) return;
      stats_.inc("migrate.handoff.abandoned");
      unseal_resume();
    });
  }
}

void CacheManager::unseal_resume() {
  if (!sealed_) return;
  if (handoff_timer_ != net::kInvalidTimerId) {
    fabric_.cancel_timer(handoff_timer_);
    handoff_timer_ = net::kInvalidTimerId;
  }
  sealed_ = false;
  move_requested_ = false;
  stats_.inc("migrate.resumed");
  if (handoff_dirty_) {
    Op op{OpKind::kPush, Mode::kWeak, {}};
    op.req = handoff_req_;
    op.image = std::move(handoff_image_);
    op.echoes = std::move(handoff_echoes_);
    queue_.push_front(std::move(op));
    stats_.inc("migrate.repush");
  }
  handoff_dirty_ = false;
  handoff_image_ = ObjectImage{};
  handoff_echoes_.clear();
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
  view_.merge_into_view(ins.image, cfg_.properties);
  valid_ = true;
  dirty_ = false;
  last_version_ = ins.image.version();
  last_pull_at_ = fabric_.now();
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
  if (sealed_ && done.view == id_ && done.epoch == seal_epoch_) {
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
    sealed_ = false;
    move_requested_ = false;
    alive_ = false;
    registered_ = false;
    valid_ = false;
    exclusive_ = false;
    dirty_ = false;
    handoff_dirty_ = false;
    handoff_image_ = ObjectImage{};
    handoff_echoes_.clear();
    unconfirmed_echoes_.clear();
    if (handoff_timer_ != net::kInvalidTimerId) {
      fabric_.cancel_timer(handoff_timer_);
      handoff_timer_ = net::kInvalidTimerId;
    }
    if (trigger_timer_ != net::kInvalidTimerId) {
      fabric_.cancel_timer(trigger_timer_);
      trigger_timer_ = net::kInvalidTimerId;
    }
    stop_heartbeats();
    if (cfg_.journal != nullptr) {
      cfg_.journal->compact({});
      journal_appends_ = 0;
    }
    stats_.inc("migrate.moved");
    std::deque<Op> q = std::move(queue_);
    queue_.clear();
    for (auto& op : q) {
      if (op.done) op.done();
    }
    if (cfg_.on_moved) cfg_.on_moved();
    return;
  }
  if (done.aborted && !sealed_ && move_requested_ && done.view == id_ &&
      done.epoch == pending_move_epoch_) {
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
    registered_ = false;
    id_ = kInvalidViewId;
    installed_epoch_ = 0;
    valid_ = false;
    exclusive_ = false;
    dirty_ = false;
    if (trigger_timer_ != net::kInvalidTimerId) {
      fabric_.cancel_timer(trigger_timer_);
      trigger_timer_ = net::kInvalidTimerId;
    }
    stop_heartbeats();
    if (cfg_.journal != nullptr) {
      cfg_.journal->compact({});
      journal_appends_ = 0;
    }
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
    const trigger::Env& vars = view_.variables();
    if (pull_trigger_.has_value()) {
      const double t_ms = sim::to_ms(fabric_.now() - last_pull_at_);
      if (pull_trigger_->evaluate(t_ms, vars)) {
        stats_.inc("auto.pull");
        FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(),
                          obs::EventKind::kTriggerFired,
                          obs::Role::kCacheManager, obs::agent_key(self_), 0,
                          "pull", static_cast<std::uint64_t>(t_ms));
        pull_image();
      }
    }
    if (push_trigger_.has_value() && dirty_) {
      const double t_ms = sim::to_ms(fabric_.now() - last_push_at_);
      if (push_trigger_->evaluate(t_ms, vars)) {
        stats_.inc("auto.push");
        FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(),
                          obs::EventKind::kTriggerFired,
                          obs::Role::kCacheManager, obs::agent_key(self_), 0,
                          "push", static_cast<std::uint64_t>(t_ms));
        push_image();
      }
    }
  }
  arm_trigger_timer();
}

}  // namespace flecc::core

#include "core/directory_manager.hpp"

#include <algorithm>
#include <utility>

#include "trigger/errors.hpp"

namespace flecc::core {

namespace {

/// Settled fetch/invalidate rounds remembered for straggler replies and
/// push-borne echoes. Sized so a round is still in the window when the
/// echo of its lost reply arrives on the sender's next push (typically
/// within a handful of rounds).
constexpr std::size_t kSettledRoundWindow = 256;

/// Merged push/kill request ids remembered across restarts (per
/// directory, not per sender). Sized like the dedup window but global:
/// it only needs to cover requests whose CM might re-issue them after a
/// crash, i.e. the recent past.
constexpr std::size_t kMergedOpWindow = 1024;

/// Generation stamp of a message; 0 = unknown (legacy/unfenced).
std::uint64_t generation_of(const net::Message& m) {
  if (m.type == msg::kRegisterReq) {
    return net::payload_as<msg::RegisterReq>(m).gen;
  }
  if (m.type == msg::kInitReq) return net::payload_as<msg::InitReq>(m).gen;
  if (m.type == msg::kPullReq) return net::payload_as<msg::PullReq>(m).gen;
  if (m.type == msg::kPushUpdate) {
    return net::payload_as<msg::PushUpdate>(m).gen;
  }
  if (m.type == msg::kAcquireReq) {
    return net::payload_as<msg::AcquireReq>(m).gen;
  }
  if (m.type == msg::kModeChangeReq) {
    return net::payload_as<msg::ModeChangeReq>(m).gen;
  }
  if (m.type == msg::kKillReq) return net::payload_as<msg::KillReq>(m).gen;
  if (m.type == msg::kInvalidateAck) {
    return net::payload_as<msg::InvalidateAck>(m).gen;
  }
  if (m.type == msg::kFetchReply) {
    return net::payload_as<msg::FetchReply>(m).gen;
  }
  if (m.type == msg::kHeartbeat) {
    return net::payload_as<msg::Heartbeat>(m).gen;
  }
  if (m.type == msg::kRebuildReply) {
    return net::payload_as<msg::RebuildReply>(m).gen;
  }
  if (m.type == msg::kHandoffState) {
    return net::payload_as<msg::HandoffState>(m).gen;
  }
  if (m.type == msg::kViewMoveAck) {
    return net::payload_as<msg::ViewMoveAck>(m).gen;
  }
  return 0;
}

/// Request id of a framed cache-manager request; 0 for unframed
/// messages and for non-request types (commands, acks, heartbeats).
std::uint64_t request_id_of(const net::Message& m) {
  if (m.type == msg::kRegisterReq) {
    return net::payload_as<msg::RegisterReq>(m).req;
  }
  if (m.type == msg::kInitReq) return net::payload_as<msg::InitReq>(m).req;
  if (m.type == msg::kPullReq) return net::payload_as<msg::PullReq>(m).req;
  if (m.type == msg::kPushUpdate) {
    return net::payload_as<msg::PushUpdate>(m).req;
  }
  if (m.type == msg::kAcquireReq) {
    return net::payload_as<msg::AcquireReq>(m).req;
  }
  if (m.type == msg::kModeChangeReq) {
    return net::payload_as<msg::ModeChangeReq>(m).req;
  }
  if (m.type == msg::kKillReq) return net::payload_as<msg::KillReq>(m).req;
  return 0;
}

}  // namespace

DirectoryManager::DirectoryManager(net::Fabric& fabric, net::Address self,
                                   PrimaryAdapter& primary, Config cfg)
    : fabric_(fabric), self_(self), primary_(primary), cfg_(cfg) {
  std::size_t replayed = 0;
  bool recovering = false;
  if (cfg_.durability != nullptr) {
    const std::uint64_t prev = cfg_.durability->generation();
    recovering = prev > 0;  // a previous incarnation existed: restart
    generation_ = prev + 1;
    replayed = replay_checkpoint(cfg_.durability->load());
    // Durable immediately: even if every WAL append is later lost, the
    // next incarnation knows this one existed and fences its traffic.
    cfg_.durability->set_generation(generation_);
  }
  // Generation-scoped id spaces: round ids and versions from different
  // incarnations never collide, and a round id reveals which
  // incarnation minted it (pre_crash_round()).
  next_token_ = (generation_ << 32) | 1;
  next_epoch_ = (generation_ << 32) | 1;
  if (generation_ > 1) {
    version_ = generation_ << 32;
    // The Lamport clock is also generation-scoped: jumping forward is
    // always legal, and it keeps this incarnation's stamps past every
    // pre-crash one (the monitor checks per-agent monotonicity).
    clock_.observe(generation_ << 32);
  }

  fabric_.bind(self_, *this);
  fabric_.set_clock(self_, &clock_);
  if (cfg_.trace != nullptr) cfg_.trace->set_clock(&clock_);
  arm_liveness_timer();

  if (recovering) {
    stats_.inc("recovery.restart");
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(),
                      obs::EventKind::kRecoveryBegin, obs::Role::kDirectory,
                      obs::agent_key(self_), 0, "restart", generation_,
                      static_cast<std::uint64_t>(replayed));
    if (views_.empty()) {
      // Empty (or fully lost) checkpoint: nobody to probe. Surviving
      // cache managers rebuild the state themselves — their heartbeats
      // are fenced (known == false), they re-register, and their
      // echoes/pushes re-deliver any unconfirmed extractions.
      FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(),
                        obs::EventKind::kRecoveryEnd, obs::Role::kDirectory,
                        obs::agent_key(self_), 0, "rebuilt", generation_, 0);
      stats_.inc("recovery.completed");
    } else {
      start_rebuild();
    }
  }
}

DirectoryManager::~DirectoryManager() {
  if (liveness_timer_ != net::kInvalidTimerId) {
    fabric_.cancel_timer(liveness_timer_);
  }
  for (auto& [view, mig] : migrations_) {
    (void)view;
    if (mig.resend_timer != net::kInvalidTimerId) {
      fabric_.cancel_timer(mig.resend_timer);
    }
  }
  if (rebuild_timer_ != net::kInvalidTimerId) {
    fabric_.cancel_timer(rebuild_timer_);
  }
  if (rebuild_resend_timer_ != net::kInvalidTimerId) {
    fabric_.cancel_timer(rebuild_resend_timer_);
  }
  fabric_.set_clock(self_, nullptr);
  fabric_.unbind(self_);
}

void DirectoryManager::on_message(const net::Message& m) {
  // Generation fencing: a message stamped by a previous incarnation (or
  // addressed to one) is rejected before the dedup window can replay a
  // cached pre-crash reply. gen == 0 means unfenced (legacy senders and
  // first contact) and passes through.
  if (const std::uint64_t gen = generation_of(m);
      gen != 0 && gen != generation_) {
    stats_.inc("recovery.fenced");
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgFenced,
                      obs::Role::kDirectory, obs::agent_key(self_),
                      obs::span_id(m.from, request_id_of(m)), m.type.c_str(),
                      gen, generation_);
    if (m.type == msg::kHeartbeat) {
      // known == false drives the sender into its reconnect path, which
      // re-registers under the current generation.
      const auto& hb = net::payload_as<msg::Heartbeat>(m);
      msg::HeartbeatAck ack{hb.view, hb.seq, false, generation_};
      fabric_.send(self_, m.from, msg::kHeartbeatAck, box(ack),
                   msg::wire_size(ack));
    } else if (const std::uint64_t rid = request_id_of(m); rid != 0) {
      // Framed request: nack (never cached) so the sender aborts the op
      // and re-issues it under the current generation.
      send_nack(m.from, kInvalidViewId, rid, "stale generation");
    }
    return;
  }

  if (m.type == msg::kHeartbeat) return handle_heartbeat(m);

  // Idempotent replay: a framed request we have already seen is either
  // answered from the cached reply (completed) or dropped (a round for
  // it is still in flight; the eventual reply will reach the sender).
  if (const std::uint64_t rid = request_id_of(m); rid != 0) {
    if (DedupEntry* e = find_dedup(m.from, rid); e != nullptr) {
      FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kDedupHit,
                        obs::Role::kDirectory, obs::agent_key(self_),
                        obs::span_id(m.from, rid), m.type.c_str(),
                        e->completed ? 1 : 0);
      if (e->completed) {
        stats_.inc("msg.duplicate.replayed");
        fabric_.send(self_, m.from, e->type, e->payload, e->bytes);
      } else {
        stats_.inc("msg.duplicate.dropped");
      }
      return;
    }
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgReceived,
                      obs::Role::kDirectory, obs::agent_key(self_),
                      obs::span_id(m.from, rid), m.type.c_str());
  }

  if (m.type == msg::kRegisterReq) return handle_register(m);
  if (m.type == msg::kInitReq) return handle_init(m);
  if (m.type == msg::kPullReq) return handle_pull(m);
  if (m.type == msg::kPushUpdate) return handle_push(m);
  if (m.type == msg::kAcquireReq) return handle_acquire(m);
  if (m.type == msg::kInvalidateAck) return handle_invalidate_ack(m);
  if (m.type == msg::kFetchReply) return handle_fetch_reply(m);
  if (m.type == msg::kModeChangeReq) return handle_mode_change(m);
  if (m.type == msg::kKillReq) return handle_kill(m);
  if (m.type == msg::kRebuildReply) return handle_rebuild_reply(m);
  if (m.type == msg::kHandoffState) return handle_handoff_state(m);
  if (m.type == msg::kViewMoveAck) return handle_view_move_ack(m);
  if (m.type == msg::kBusy) {
    // A fabric-synthesized Busy for one of our commands: the command's
    // round timeout + resends already cover a slow receiver, so the
    // directory just counts it.
    stats_.inc("flow.busy.ignored");
    return;
  }
  stats_.inc("msg.unknown");
}

// ---- lookup helpers -----------------------------------------------------

DirectoryManager::ViewRecord* DirectoryManager::find(ViewId v) {
  return v < index_.size() ? index_[v].rec : nullptr;
}

const DirectoryManager::ViewRecord* DirectoryManager::find(ViewId v) const {
  return v < index_.size() ? index_[v].rec : nullptr;
}

bool DirectoryManager::is_active(ViewId v) const {
  const auto* r = find(v);
  return r != nullptr && r->active;
}

bool DirectoryManager::is_exclusive(ViewId v) const {
  const auto* r = find(v);
  return r != nullptr && r->exclusive;
}

Mode DirectoryManager::mode_of(ViewId v) const {
  const auto* r = find(v);
  return r == nullptr ? Mode::kWeak : r->mode;
}

Version DirectoryManager::last_sync(ViewId v) const {
  const auto* r = find(v);
  return r == nullptr ? 0 : r->last_sync;
}

std::uint64_t DirectoryManager::quality(ViewId v) const {
  const ViewRecord* r = find(v);
  if (r == nullptr) return 0;
  // Live sources count through the conflict index (static map first);
  // departed ones by the property snapshot the log kept.
  std::uint64_t n = log_.unseen_departed(r->properties, r->last_sync);
  for (const ViewId id : index_[v].neighbours) {
    n += log_.unseen_from(id, r->last_sync);
  }
  return n;
}

bool DirectoryManager::conflicts(ViewId a, ViewId b) const {
  const auto& n = conflicting_views(a);
  return std::binary_search(n.begin(), n.end(), b);
}

const std::vector<ViewId>& DirectoryManager::conflicting_views(
    ViewId v) const {
  static const std::vector<ViewId> kNone;
  return v < index_.size() ? index_[v].neighbours : kNone;
}

// ---- conflict adjacency index ---------------------------------------------

bool DirectoryManager::rule_conflicts(const ViewRecord& a,
                                      const ViewRecord& b) const {
  switch (static_map_.query(a.name, b.name)) {
    case Relation::kConflict:
      return true;
    case Relation::kNoConflict:
      return false;
    case Relation::kDynamic:
      break;
  }
  // Definition 1: dynConfl via property-set intersection.
  return a.properties.conflicts_with(b.properties);
}

void DirectoryManager::link(ViewRecord& rec) {
  if (index_.size() <= rec.id) index_.resize(std::size_t{rec.id} + 1);
  index_[rec.id].rec = &rec;
  auto& mine = index_[rec.id].neighbours;
  for (const auto& [id, other] : views_) {
    if (id == rec.id || !rule_conflicts(rec, other)) continue;
    mine.push_back(id);  // views_ is ascending
    auto& theirs = index_[id].neighbours;
    theirs.insert(std::upper_bound(theirs.begin(), theirs.end(), rec.id),
                  rec.id);
  }
}

void DirectoryManager::unlink(ViewRecord& rec) {
  auto& mine = index_[rec.id].neighbours;
  for (const ViewId id : mine) {
    auto& theirs = index_[id].neighbours;
    theirs.erase(std::lower_bound(theirs.begin(), theirs.end(), rec.id));
  }
  mine.clear();
}

DirectoryManager::ViewMap::iterator DirectoryManager::drop_view(
    ViewMap::iterator it) {
  unlink(it->second);
  log_.retire(it->first);
  index_[it->first] = IndexEntry{};
  return views_.erase(it);
}

void DirectoryManager::set_static_map(StaticMap m) {
  static_map_ = std::move(m);
  for (auto& entry : index_) entry.neighbours.clear();
  for (auto a = views_.begin(); a != views_.end(); ++a) {
    auto& mine = index_[a->first].neighbours;
    for (auto b = std::next(a); b != views_.end(); ++b) {
      if (!rule_conflicts(a->second, b->second)) continue;
      mine.push_back(b->first);
      index_[b->first].neighbours.push_back(a->first);
    }
  }
}

void DirectoryManager::send_to_view(const ViewRecord& rec, const char* type,
                                    std::any payload, std::size_t bytes) {
  fabric_.send(self_, rec.cache_addr, type, std::move(payload), bytes);
}

// ---- reliability helpers --------------------------------------------------

DirectoryManager::DedupEntry* DirectoryManager::find_dedup(
    const net::Address& from, std::uint64_t req) {
  if (req == 0 || cfg_.dedup_window == 0) return nullptr;
  auto it = dedup_.find(from);
  if (it == dedup_.end()) return nullptr;
  for (auto& e : it->second) {
    if (e.req == req) return &e;
  }
  return nullptr;
}

void DirectoryManager::note_in_progress(const net::Address& from,
                                        std::uint64_t req) {
  if (req == 0 || cfg_.dedup_window == 0) return;
  auto& win = dedup_[from];
  win.push_back(DedupEntry{req, false, {}, {}, 0});
  while (win.size() > cfg_.dedup_window) win.pop_front();
}

void DirectoryManager::reply(const net::Address& to, std::uint64_t req,
                             const char* type, std::any payload,
                             std::size_t bytes) {
  if (req != 0 && cfg_.dedup_window != 0) {
    DedupEntry* e = find_dedup(to, req);
    if (e == nullptr) {
      note_in_progress(to, req);
      e = find_dedup(to, req);
    }
    if (e != nullptr) {
      e->completed = true;
      e->type = type;
      e->payload = payload;
      e->bytes = bytes;
    }
  }
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgSent,
                    obs::Role::kDirectory, obs::agent_key(self_),
                    obs::span_id(to, req), type);
  fabric_.send(self_, to, type, std::move(payload), bytes);
}

void DirectoryManager::send_nack(const net::Address& to, ViewId view,
                                 std::uint64_t req, const char* reason) {
  stats_.inc("op.nack.sent");
  msg::OpNack nack{view, reason, req, generation_};
  const auto bytes = msg::wire_size(nack);
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgSent,
                    obs::Role::kDirectory, obs::agent_key(self_),
                    obs::span_id(to, req), msg::kOpNack, view);
  fabric_.send(self_, to, msg::kOpNack, box(std::move(nack)), bytes);
}

void DirectoryManager::send_busy(const net::Address& to, ViewId view,
                                 std::uint64_t req, const char* reason) {
  stats_.inc("flow.busy.sent");
  msg::Busy busy{view, reason, cfg_.busy_retry_after, req, generation_};
  const auto bytes = msg::wire_size(busy);
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kLoadShed,
                    obs::Role::kDirectory, obs::agent_key(self_),
                    obs::span_id(to, req), reason, view);
  fabric_.send(self_, to, msg::kBusy, box(std::move(busy)), bytes);
}

void DirectoryManager::forget_in_progress(const net::Address& from,
                                          std::uint64_t req) {
  if (req == 0 || cfg_.dedup_window == 0) return;
  auto it = dedup_.find(from);
  if (it == dedup_.end()) return;
  auto& win = it->second;
  for (auto e = win.begin(); e != win.end(); ++e) {
    if (e->req == req && !e->completed) {
      win.erase(e);
      return;
    }
  }
}

std::size_t DirectoryManager::open_rounds_of(ViewId v) const {
  std::size_t n = 0;
  for (const auto& [token, pp] : pending_pulls_) {
    (void)token;
    if (pp.requester == v) ++n;
  }
  return n;
}

void DirectoryManager::arm_liveness_timer() {
  if (cfg_.liveness_timeout <= 0) return;
  // Daemon: liveness sweeps must not keep run-to-quiescence alive.
  liveness_timer_ = fabric_.schedule_daemon(
      self_, std::max<sim::Duration>(1, cfg_.liveness_timeout / 2),
      [this] { liveness_sweep(); });
}

void DirectoryManager::liveness_sweep() {
  liveness_timer_ = net::kInvalidTimerId;
  const sim::Time now = fabric_.now();
  std::vector<ViewId> dead;
  for (const auto& [id, rec] : views_) {
    if (now - rec.last_seen_at > cfg_.liveness_timeout) dead.push_back(id);
  }
  for (const ViewId id : dead) {
    const auto it = views_.find(id);
    if (it == views_.end()) continue;  // dropped by an earlier eviction
    stats_.inc("view.evicted.liveness");
    const bool held_token = it->second.exclusive;
    FLECC_TRACE_EVENT(cfg_.trace, now, obs::EventKind::kViewEvicted,
                      obs::Role::kDirectory, obs::agent_key(self_), 0,
                      it->second.name.c_str(), id,
                      static_cast<std::uint64_t>(now -
                                                 it->second.last_seen_at));
    drop_view(it);
    complete_fetch_or_acquire_for_dead_view(id);
    if (held_token) {
      // A dead STRONG holder's token is released to the FIFO acquire
      // queue in the same sweep, not left for the next request (or a
      // round timeout) to discover. Traffic from the dead incarnation
      // is fenced at re-registration (stale incarnation/generation).
      stats_.inc("view.evicted.strong_reclaim");
      if (!acquire_inflight_.has_value()) start_next_acquire();
    }
  }
  arm_liveness_timer();
}

void DirectoryManager::handle_heartbeat(const net::Message& m) {
  const auto& hb = net::payload_as<msg::Heartbeat>(m);
  auto* rec = find(hb.view);
  const bool known = rec != nullptr && rec->cache_addr == m.from;
  if (known) {
    touch(*rec);
    stats_.inc("heartbeat.received");
  } else {
    stats_.inc("heartbeat.unknown");
  }
  msg::HeartbeatAck ack{hb.view, hb.seq, known, generation_};
  fabric_.send(self_, m.from, msg::kHeartbeatAck, box(ack),
               msg::wire_size(ack));
}

// ---- registration -------------------------------------------------------

void DirectoryManager::handle_register(const net::Message& m) {
  const auto& req = net::payload_as<msg::RegisterReq>(m);
  stats_.inc("op.register");

  // A (re)registration obsoletes any request still in progress from the
  // same address: its requester has moved on. Completed entries stay so
  // a reconnecting manager re-issuing its abandoned op (same request id)
  // still gets the original reply replayed instead of re-execution.
  if (auto it = dedup_.find(m.from); it != dedup_.end()) {
    auto& win = it->second;
    win.erase(std::remove_if(win.begin(), win.end(),
                             [](const DedupEntry& e) { return !e.completed; }),
              win.end());
  }
  note_in_progress(m.from, req.req);

  auto reject = [&](const std::string& why) {
    stats_.inc("op.register.rejected");
    msg::RegisterAck ack{kInvalidViewId, false, why, req.req, generation_};
    const auto bytes = msg::wire_size(ack);
    reply(m.from, req.req, msg::kRegisterAck, box(std::move(ack)), bytes);
  };

  if (req.view_name.empty()) {
    return reject("view name must be non-empty");
  }
  // A genuine view's shared data is a subset of the component's data
  // (paper §3.2: V_v ∩ V_c ≠ ∅, and the view only shares what the
  // component defines).
  if (!req.properties.subset_of(primary_.data_properties())) {
    return reject("view properties are not a subset of component data");
  }
  std::optional<trigger::Trigger> validity;
  if (!req.validity_trigger.empty()) {
    try {
      validity.emplace(req.validity_trigger);
    } catch (const trigger::ParseError& e) {
      return reject(std::string("bad validity trigger: ") + e.what());
    }
  }

  // Journal-replaying resume: the cache manager restarted with its view
  // id intact and asks for the surviving record back (same view id, no
  // fresh registration) so its replayed pushes land under the identity
  // the exactly-once keys were minted for. Fenced unless the claimed
  // incarnation is strictly newer than the recorded one — a retransmit
  // from the dead life must not steal the view back.
  if (req.resume_view != kInvalidViewId) {
    if (auto* rec = find(req.resume_view);
        rec != nullptr && rec->cache_addr != m.from) {
      // The record moved while this manager was dead: a live migration
      // rebound the view to another address (and reset its incarnation
      // sequence), so an incarnation comparison alone would let the
      // restarted source steal the view back from its new server. A
      // resume is only honored from the record's current home; everyone
      // else falls through to a fresh registration — their replayed
      // pushes still merge exactly once (merged_ops_ is keyed by
      // address, not view).
      stats_.inc("register.fenced.moved");
    } else if (rec != nullptr) {
      if (req.incarnation <= rec->incarnation) {
        stats_.inc("register.fenced.incarnation");
        return reject("stale incarnation");
      }
      if (migrating(req.resume_view)) {
        abort_migration(req.resume_view, "source resumed");
      }
      rec->cache_addr = m.from;
      unlink(*rec);
      rec->name = req.view_name;
      rec->properties = req.properties;
      link(*rec);
      rec->mode = req.mode;
      rec->validity = std::move(validity);
      rec->validity_src = req.validity_trigger;
      rec->incarnation = req.incarnation;
      // Conservative until the resumed manager re-syncs (Init/Pull).
      rec->active = false;
      rec->exclusive = false;
      rec->last_seen_at = fabric_.now();
      wal_append(register_record(*rec));
      stats_.inc("view.resumed");
      msg::RegisterAck ack{req.resume_view, true, {}, req.req, generation_};
      const auto bytes = msg::wire_size(ack);
      reply(m.from, req.req, msg::kRegisterAck, box(std::move(ack)), bytes);
      return;
    } else {
      // Record gone (evicted, killed, or dropped by a directory
      // rebuild): fall through to a fresh registration. The replayed
      // pushes still merge exactly once — merged_ops_ is keyed by
      // address, not view.
      stats_.inc("view.resume_missed");
    }
  }

  // A registration from an address we already know supersedes the old
  // record: the cache manager reconnected (fail-safe path) and its
  // previous incarnation is a ghost.
  for (auto it = views_.begin(); it != views_.end();) {
    if (it->second.cache_addr == m.from) {
      const ViewId ghost = it->first;
      it = drop_view(it);
      complete_fetch_or_acquire_for_dead_view(ghost);
      stats_.inc("op.register.superseded");
    } else {
      ++it;
    }
  }

  ViewRecord rec;
  rec.id = next_view_id_++;
  rec.cache_addr = m.from;
  rec.name = req.view_name;
  rec.properties = req.properties;
  rec.mode = req.mode;
  rec.validity = std::move(validity);
  rec.validity_src = req.validity_trigger;
  rec.last_seen_at = fabric_.now();
  const ViewId id = rec.id;
  wal_append(register_record(rec));
  link(views_.emplace(id, std::move(rec)).first->second);

  msg::RegisterAck ack{id, true, {}, req.req, generation_};
  const auto bytes = msg::wire_size(ack);
  reply(m.from, req.req, msg::kRegisterAck, box(std::move(ack)), bytes);
}

// ---- init ---------------------------------------------------------------

void DirectoryManager::handle_init(const net::Message& m) {
  const auto& req = net::payload_as<msg::InitReq>(m);
  stats_.inc("op.init");
  auto* rec = find(req.view);
  if (rec == nullptr) {
    if (req.req != 0) send_nack(m.from, req.view, req.req);
    return;
  }
  touch(*rec);
  note_in_progress(m.from, req.req);
  msg::InitReply out;
  out.image = primary_.extract_from_object(rec->properties);
  out.image.set_version(version_);
  out.req = req.req;
  out.gen = generation_;
  rec->active = true;
  rec->last_sync = version_;
  rec->last_sync_at = fabric_.now();
  const auto bytes = msg::wire_size(out);
  reply(rec->cache_addr, req.req, msg::kInitReply, box(std::move(out)),
        bytes);
}

// ---- weak-mode pull (with validity-triggered demand fetch) ---------------

void DirectoryManager::handle_pull(const net::Message& m) {
  const auto& req = net::payload_as<msg::PullReq>(m);
  stats_.inc("op.pull");
  auto* rec = find(req.view);
  if (rec == nullptr) {
    if (req.req != 0) send_nack(m.from, req.view, req.req);
    return;
  }
  touch(*rec);
  note_in_progress(m.from, req.req);

  const std::uint64_t unseen = quality(req.view);

  bool need_fetch = false;
  if (rec->validity.has_value()) {
    // Validity trigger: true ⇒ the primary's data is "good enough".
    // Environment: t (global time, ms), _age (ms since last merge into
    // the primary), _unseen (the requester's quality), layered over any
    // variables the primary component exposes.
    trigger::VariableStore meta;
    meta.set("t", sim::to_ms(fabric_.now()));
    meta.set("_age", sim::to_ms(fabric_.now() - last_merge_at_));
    meta.set("_unseen", static_cast<double>(unseen));
    bool good;
    if (const trigger::Env* pv = primary_.variables(); pv != nullptr) {
      trigger::LayeredEnv env(meta, *pv);
      good = rec->validity->evaluate(env);
    } else {
      good = rec->validity->evaluate(meta);
    }
    need_fetch = !good;
    if (need_fetch) {
      FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(),
                        obs::EventKind::kTriggerFired, obs::Role::kDirectory,
                        obs::agent_key(self_), obs::span_id(m.from, req.req),
                        "validity", unseen, req.view);
    }
  }
  if (cfg_.use_rw_semantics && req.intent == AccessIntent::kReadOnly) {
    // Extension 1 (§6): read-only executions tolerate the primary's
    // current data; never chase conflicting views for updates.
    need_fetch = false;
    stats_.inc("op.pull.ro_shortcut");
  }

  std::set<ViewId> candidates;
  if (need_fetch) {
    for (const ViewId id : conflicting_views(req.view)) {
      // A migrating view is sealed: it cannot answer a FetchReq, and
      // its dirty state reaches the primary through the handoff anyway.
      if (find(id)->active && !migrating(id)) candidates.insert(id);
    }
  }

  if (candidates.empty()) {
    PendingPull pp;
    pp.requester = req.view;
    pp.unseen_before = unseen;
    pp.req = req.req;
    finish_pull(pp);
    return;
  }

  // Admission control: opening yet another demand-fetch round past the
  // configured budget is refused with Busy — fetch rounds are the
  // invalidation/fetch fan-out amplifier, so this is where overload is
  // cut off. Cheap pulls (no round needed) are always served above.
  // The in-progress dedup slot noted earlier must be forgotten, or the
  // post-Busy retry would be dropped as a duplicate of a round that
  // never opened.
  const bool over_global = cfg_.max_fetch_rounds != 0 &&
                           pending_pulls_.size() >= cfg_.max_fetch_rounds;
  const bool over_view = !over_global && cfg_.max_view_rounds != 0 &&
                         open_rounds_of(req.view) >= cfg_.max_view_rounds;
  if (over_global || over_view) {
    stats_.inc("shed.pull");
    stats_.inc(over_global ? "shed.pull.global" : "shed.pull.view");
    forget_in_progress(m.from, req.req);
    send_busy(m.from, req.view, req.req,
              over_global ? "fetch rounds saturated"
                          : "per-view round budget");
    return;
  }

  stats_.inc("op.pull.fetch_round");
  PendingPull pp;
  pp.token = next_token_++;
  pp.requester = req.view;
  pp.outstanding = std::move(candidates);
  for (const ViewId id : pp.outstanding) {
    pp.target_props.emplace(id, find(id)->properties);
  }
  pp.unseen_before = unseen;
  pp.req = req.req;
  pp.resends_left = cfg_.command_retries;
  FLECC_TRACE_ONLY(pp.span = obs::span_id(m.from, req.req);)
  const std::uint64_t token = pp.token;
  if (cfg_.durability != nullptr) {
    // Checkpoint the round opening per target so a straggler reply or
    // echo arriving after a crash can still merge from the archive.
    for (const auto& [id, props] : pp.target_props) {
      WalRecord w;
      w.kind = WalKind::kRoundOpen;
      w.view = id;
      w.properties = props;
      w.ns = 0;
      w.round = token;
      wal_append(w);
    }
  }
  for (const ViewId id : pp.outstanding) {
    stats_.inc("op.fetch.sent");
    msg::FetchReq freq{token, generation_};
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgSent,
                      obs::Role::kDirectory, obs::agent_key(self_), pp.span,
                      msg::kFetchReq, token, id);
    send_to_view(*find(id), msg::kFetchReq, box(freq),
                 msg::wire_size(freq));
  }
  pp.timeout = fabric_.schedule(self_, cfg_.fetch_timeout, [this, token] {
    auto it = pending_pulls_.find(token);
    if (it == pending_pulls_.end()) return;
    stats_.inc("op.fetch.timeout");
    PendingPull pp2 = std::move(it->second);
    pending_pulls_.erase(it);
    settle_pull_round(pp2);
    finish_pull(pp2);
  });
  pending_pulls_.emplace(token, std::move(pp));
  arm_pull_resend(token);
}

void DirectoryManager::arm_pull_resend(std::uint64_t token) {
  auto it = pending_pulls_.find(token);
  if (it == pending_pulls_.end() || it->second.resends_left == 0) return;
  const sim::Duration interval = std::max<sim::Duration>(
      1, cfg_.fetch_timeout /
             static_cast<sim::Duration>(cfg_.command_retries + 1));
  it->second.resend_timer = fabric_.schedule(self_, interval, [this, token] {
    auto it2 = pending_pulls_.find(token);
    if (it2 == pending_pulls_.end()) return;
    it2->second.resend_timer = net::kInvalidTimerId;
    if (it2->second.resends_left == 0) return;
    --it2->second.resends_left;
    for (const ViewId id : it2->second.outstanding) {
      const auto* rec = find(id);
      if (rec == nullptr) continue;
      stats_.inc("op.fetch.retry");
      msg::FetchReq freq{token, generation_};
      FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(),
                        obs::EventKind::kMsgRetransmitted,
                        obs::Role::kDirectory, obs::agent_key(self_),
                        it2->second.span, msg::kFetchReq, token, id);
      send_to_view(*rec, msg::kFetchReq, box(freq), msg::wire_size(freq));
    }
    arm_pull_resend(token);
  });
}

void DirectoryManager::finish_pull(PendingPull& pp) {
  if (pp.timeout != net::kInvalidTimerId) fabric_.cancel_timer(pp.timeout);
  if (pp.resend_timer != net::kInvalidTimerId) {
    fabric_.cancel_timer(pp.resend_timer);
  }
  auto* rec = find(pp.requester);
  if (rec == nullptr) return;  // requester died while we fetched
  msg::PullReply out;
  out.image = primary_.extract_from_object(rec->properties);
  out.image.set_version(version_);
  out.unseen_before = pp.unseen_before;
  out.req = pp.req;
  out.gen = generation_;
  rec->active = true;
  rec->last_sync = version_;
  rec->last_sync_at = fabric_.now();
  const auto bytes = msg::wire_size(out);
  reply(rec->cache_addr, pp.req, msg::kPullReply, box(std::move(out)),
        bytes);
}

void DirectoryManager::settle_pull_round(PendingPull& pp) {
  if (pp.token == 0) return;  // fast-path pull, no fetch round existed
  settled_pulls_.emplace(
      pp.token,
      SettledRound{std::move(pp.merged), std::move(pp.target_props)});
  settled_pull_order_.push_back(pp.token);
  if (settled_pull_order_.size() > kSettledRoundWindow) {
    settled_pulls_.erase(settled_pull_order_.front());
    settled_pull_order_.pop_front();
  }
}

void DirectoryManager::settle_acquire_round(PendingAcquire& pa) {
  settled_acquires_.emplace(
      pa.epoch,
      SettledRound{std::move(pa.merged), std::move(pa.target_props)});
  settled_acquire_order_.push_back(pa.epoch);
  if (settled_acquire_order_.size() > kSettledRoundWindow) {
    settled_acquires_.erase(settled_acquire_order_.front());
    settled_acquire_order_.pop_front();
  }
}

const props::PropertySet* DirectoryManager::round_props(
    ViewId v, const std::map<ViewId, props::PropertySet>& snap) const {
  if (const auto* rec = find(v); rec != nullptr) return &rec->properties;
  auto it = snap.find(v);
  return it == snap.end() ? nullptr : &it->second;
}

void DirectoryManager::process_echoes(
    const std::vector<msg::DeltaEcho>& echoes) {
  for (const auto& e : echoes) {
    if (!e.invalidate) {
      if (auto it = pending_pulls_.find(e.round);
          it != pending_pulls_.end()) {
        // The echo beat (or replaced) the FetchReply for a live round.
        auto& pp = it->second;
        if (pp.merged.count(e.view) != 0) {
          stats_.inc("echo.duplicate");
          continue;
        }
        if (const auto* ps = round_props(e.view, pp.target_props)) {
          merge_update(e.image, e.view, *ps, "echo.fetch", e.round, pp.span);
          pp.merged.insert(e.view);
          note_round_merge(false, e.round, e.view);
          stats_.inc("echo.merged");
        }
        if (pp.outstanding.erase(e.view) != 0 && pp.outstanding.empty()) {
          PendingPull done = std::move(pp);
          pending_pulls_.erase(it);
          settle_pull_round(done);
          finish_pull(done);
        }
        continue;
      }
      if (auto sit = settled_pulls_.find(e.round);
          sit != settled_pulls_.end()) {
        if (sit->second.merged.count(e.view) != 0) {
          stats_.inc("echo.duplicate");
          continue;
        }
        if (const auto* ps = round_props(e.view, sit->second.target_props)) {
          merge_update(e.image, e.view, *ps, "echo.fetch", e.round, 0);
          sit->second.merged.insert(e.view);
          note_round_merge(false, e.round, e.view);
          stats_.inc("echo.merged");
        }
        continue;
      }
      if (pre_crash_round(e.round)) {
        // A round a previous incarnation opened and the checkpoint lost.
        // The echoed extraction may exist nowhere else — re-open an
        // archive slot and merge it exactly once.
        auto& slot = revive_settled(false, e.round);
        if (slot.merged.count(e.view) != 0) {
          stats_.inc("echo.duplicate");
        } else if (const auto* ps = round_props(e.view, slot.target_props)) {
          merge_update(e.image, e.view, *ps, "echo.fetch", e.round, 0);
          slot.merged.insert(e.view);
          note_round_merge(false, e.round, e.view);
          stats_.inc("echo.revived");
        }
        continue;
      }
      // Round evicted from the window: the reply must have been merged
      // long ago — treat as confirmed.
      stats_.inc("echo.unknown");
      continue;
    }

    // Invalidate-epoch namespace.
    if (acquire_inflight_.has_value() && acquire_inflight_->epoch == e.round) {
      auto& pa = *acquire_inflight_;
      if (pa.merged.count(e.view) != 0) {
        stats_.inc("echo.duplicate");
        continue;
      }
      if (const auto* ps = round_props(e.view, pa.target_props)) {
        merge_update(e.image, e.view, *ps, "echo.invalidate", e.round,
                     pa.span);
        pa.merged.insert(e.view);
        note_round_merge(true, e.round, e.view);
        stats_.inc("echo.merged");
      }
      if (auto* rec = find(e.view); rec != nullptr) {
        rec->active = false;  // the echoed extraction invalidated the copy
        rec->exclusive = false;
      }
      if (pa.awaiting.erase(e.view) != 0 && pa.awaiting.empty()) {
        PendingAcquire done = std::move(pa);
        acquire_inflight_.reset();
        settle_acquire_round(done);
        finish_acquire(done);
        if (!acquire_inflight_.has_value()) start_next_acquire();
      }
      continue;
    }
    if (auto sit = settled_acquires_.find(e.round);
        sit != settled_acquires_.end()) {
      if (sit->second.merged.count(e.view) != 0) {
        stats_.inc("echo.duplicate");
        continue;
      }
      if (const auto* ps = round_props(e.view, sit->second.target_props)) {
        merge_update(e.image, e.view, *ps, "echo.invalidate", e.round, 0);
        sit->second.merged.insert(e.view);
        note_round_merge(true, e.round, e.view);
        stats_.inc("echo.merged");
      }
      continue;
    }
    if (pre_crash_round(e.round)) {
      // As on the fetch side: a pre-crash invalidate epoch the
      // checkpoint lost; merge its echoed extraction exactly once.
      auto& slot = revive_settled(true, e.round);
      if (slot.merged.count(e.view) != 0) {
        stats_.inc("echo.duplicate");
      } else if (const auto* ps = round_props(e.view, slot.target_props)) {
        merge_update(e.image, e.view, *ps, "echo.invalidate", e.round, 0);
        slot.merged.insert(e.view);
        note_round_merge(true, e.round, e.view);
        stats_.inc("echo.revived");
      }
      continue;
    }
    stats_.inc("echo.unknown");
  }
}

void DirectoryManager::handle_fetch_reply(const net::Message& m) {
  const auto& rep = net::payload_as<msg::FetchReply>(m);
  if (auto* src = find(rep.view); src != nullptr) touch(*src);
  auto it = pending_pulls_.find(rep.token);
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgReceived,
                    obs::Role::kDirectory, obs::agent_key(self_),
                    it != pending_pulls_.end() ? it->second.span : 0,
                    msg::kFetchReply, rep.token, rep.view);
  if (it == pending_pulls_.end()) {
    // The round already settled (timeout, or everyone else answered).
    // If this straggler carries deltas the round never merged, they
    // exist nowhere else — merge them from the settled-round archive.
    stats_.inc("op.fetch.late");
    auto sit = settled_pulls_.find(rep.token);
    if (sit == settled_pulls_.end() && rep.dirty &&
        pre_crash_round(rep.token)) {
      // A gen == 0 straggler from a round the checkpoint lost (stamped
      // replies from the old incarnation are fenced before this point).
      revive_settled(false, rep.token);
      sit = settled_pulls_.find(rep.token);
    }
    if (sit != settled_pulls_.end() && rep.dirty &&
        sit->second.merged.count(rep.view) == 0) {
      if (const auto* ps = round_props(rep.view, sit->second.target_props)) {
        merge_update(rep.image, rep.view, *ps, "late_fetch", rep.token, 0);
        sit->second.merged.insert(rep.view);
        note_round_merge(false, rep.token, rep.view);
        stats_.inc("op.fetch.late.merged");
      }
    }
    return;
  }
  if (it->second.outstanding.count(rep.view) == 0) {
    // Duplicate delivery (command retransmit + original both answered):
    // the first copy was already merged; merging again would
    // double-count the deltas.
    stats_.inc("msg.duplicate.dropped");
    return;
  }
  if (rep.dirty && it->second.merged.count(rep.view) == 0) {
    // Merge from the live record when possible; fall back to the
    // properties snapshotted at round start so a reply from a view
    // liveness-evicted mid-flight still lands.
    if (const auto* ps = round_props(rep.view, it->second.target_props)) {
      merge_update(rep.image, rep.view, *ps, "fetch", rep.token,
                   it->second.span);
      it->second.merged.insert(rep.view);
      note_round_merge(false, rep.token, rep.view);
    }
  }
  it->second.outstanding.erase(rep.view);
  if (it->second.outstanding.empty()) {
    PendingPull pp = std::move(it->second);
    pending_pulls_.erase(it);
    settle_pull_round(pp);
    finish_pull(pp);
  }
}

// ---- push ---------------------------------------------------------------

void DirectoryManager::handle_push(const net::Message& m) {
  const auto& req = net::payload_as<msg::PushUpdate>(m);
  stats_.inc("op.push");
  auto* rec = find(req.view);
  if (rec == nullptr) {
    if (req.req != 0) send_nack(m.from, req.view, req.req);
    return;
  }
  touch(*rec);
  note_in_progress(m.from, req.req);
  process_echoes(req.echoes);
  if (op_already_merged(m.from, req.req)) {
    // A previous incarnation merged this push; the ack was lost to the
    // crash. Ack without re-merging (the within-incarnation equivalent
    // is the dedup window, which did not survive the restart).
    stats_.inc("op.push.replayed_merge");
  } else {
    merge_update(req.image, req.view, rec->properties, "push", 0,
                 obs::span_id(m.from, req.req));
    note_op_merged(m.from, req.req);
  }
  rec->active = true;
  msg::PushAck ack{version_, req.req, generation_};
  reply(rec->cache_addr, req.req, msg::kPushAck, box(ack),
        msg::wire_size(ack));
}

void DirectoryManager::merge_update(const ObjectImage& image, ViewId source,
                                    const props::PropertySet& touched,
                                    [[maybe_unused]] const char* path,
                                    [[maybe_unused]] std::uint64_t round,
                                    [[maybe_unused]] std::uint64_t span) {
  primary_.merge_into_object(image, touched);
  ++version_;
  last_merge_at_ = fabric_.now();
  log_.record(MergeRecord{version_, source, touched});
  // A straggler from an evicted view: index it as departed at once.
  if (find(source) == nullptr) log_.retire(source);
  stats_.inc("merge.count");
  // label = delivery path, a = fetch token / invalidate epoch (0 for
  // push/kill), b = source view: the monitor's exactly-once-merge key.
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMergeApplied,
                    obs::Role::kDirectory, obs::agent_key(self_), span, path,
                    round, source);
  maybe_prune_log();

  if (cfg_.notify_on_update) {
    for (const ViewId id : conflicting_views(source)) {
      const ViewRecord& other = *find(id);
      if (!other.active) continue;
      msg::UpdateNotify note{version_, generation_};
      FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgSent,
                        obs::Role::kDirectory, obs::agent_key(self_), 0,
                        msg::kUpdateNotify, version_, id);
      send_to_view(other, msg::kUpdateNotify, box(note),
                   msg::wire_size(note));
      stats_.inc("op.notify.sent");
    }
  }
}

void DirectoryManager::maybe_prune_log() {
  if (log_.size() <= cfg_.merge_log_cap) return;
  Version floor = version_;
  for (const auto& [id, rec] : views_) {
    (void)id;
    floor = std::min(floor, rec.last_sync);
  }
  log_.prune_below(floor);
}

// ---- strong-mode acquire/invalidate --------------------------------------

void DirectoryManager::handle_acquire(const net::Message& m) {
  const auto& req = net::payload_as<msg::AcquireReq>(m);
  stats_.inc("op.acquire");
  auto* rec = find(req.view);
  if (rec == nullptr) {
    if (req.req != 0) send_nack(m.from, req.view, req.req);
    return;
  }
  touch(*rec);
  // Admission control: a full arbitration queue means every new acquire
  // would wait behind max_acquire_queue invalidation rounds anyway —
  // better to tell the requester to back off than to buffer unboundedly.
  if (cfg_.max_acquire_queue != 0 &&
      acquire_queue_.size() >= cfg_.max_acquire_queue) {
    stats_.inc("shed.acquire");
    send_busy(m.from, req.view, req.req, "acquire queue full");
    return;
  }
  note_in_progress(m.from, req.req);
  acquire_queue_.push_back(req);
  if (!acquire_inflight_.has_value()) start_next_acquire();
}

void DirectoryManager::start_next_acquire() {
  // Strong-mode arbitration is frozen until the post-restart rebuild
  // settles: granting exclusivity against a half-rebuilt sharing set
  // could skip an invalidation. Requests queue; finish_rebuild() drains.
  if (rebuilding_) return;
  // Likewise frozen while any view migration is in flight: a grant
  // racing the atomic rebind could target the sealed source or skip the
  // half-installed destination. Migration completion/abort drains.
  if (!migrations_.empty()) return;
  while (!acquire_queue_.empty()) {
    const msg::AcquireReq req = acquire_queue_.front();
    acquire_queue_.erase(acquire_queue_.begin());
    auto* rec = find(req.view);
    if (rec == nullptr) continue;  // requester died while queued

    PendingAcquire pa;
    pa.requester = req.view;
    pa.epoch = next_epoch_++;
    pa.req = req.req;
    FLECC_TRACE_ONLY(pa.span = obs::span_id(rec->cache_addr, req.req);)

    // Read-only acquires under the read/write-semantics extension can
    // share: they do not invalidate other read-only holders. A plain
    // Flecc acquire invalidates every conflicting active view (paper
    // Fig. 2, steps 12-14).
    const bool ro_share =
        cfg_.use_rw_semantics && req.intent == AccessIntent::kReadOnly;
    if (!cfg_.chaos_ignore_conflicts) {
      for (const ViewId id : conflicting_views(req.view)) {
        const ViewRecord& other = *find(id);
        if (!other.active) continue;
        if (ro_share && !other.exclusive) continue;  // RO can coexist
        pa.awaiting.insert(id);
        pa.target_props.emplace(id, other.properties);
      }
    }

    if (pa.awaiting.empty()) {
      finish_acquire(pa);
      continue;  // finish_acquire did not set inflight; serve next
    }

    if (cfg_.durability != nullptr) {
      // Mirror of the fetch-round checkpointing in handle_pull.
      for (const auto& [id, props] : pa.target_props) {
        WalRecord w;
        w.kind = WalKind::kRoundOpen;
        w.view = id;
        w.properties = props;
        w.ns = 1;
        w.round = pa.epoch;
        wal_append(w);
      }
    }
    for (const ViewId id : pa.awaiting) {
      stats_.inc("op.acquire.invalidations");
      msg::InvalidateReq inv{pa.epoch, generation_};
      FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgSent,
                        obs::Role::kDirectory, obs::agent_key(self_), pa.span,
                        msg::kInvalidateReq, pa.epoch, id);
      send_to_view(*find(id), msg::kInvalidateReq, box(inv),
                   msg::wire_size(inv));
    }
    const std::uint64_t epoch = pa.epoch;
    pa.resends_left = cfg_.command_retries;
    // Straggler protection: if an invalidated view never acks (crash),
    // proceed after the timeout.
    pa.timeout = fabric_.schedule(self_, cfg_.fetch_timeout, [this, epoch] {
      if (!acquire_inflight_.has_value() ||
          acquire_inflight_->epoch != epoch) {
        return;
      }
      stats_.inc("op.acquire.timeout");
      PendingAcquire pa2 = std::move(*acquire_inflight_);
      acquire_inflight_.reset();
      settle_acquire_round(pa2);
      finish_acquire(pa2);
      if (!acquire_inflight_.has_value()) start_next_acquire();
    });
    acquire_inflight_ = std::move(pa);
    arm_acquire_resend(epoch);
    return;
  }
}

void DirectoryManager::arm_acquire_resend(std::uint64_t epoch) {
  if (!acquire_inflight_.has_value() || acquire_inflight_->epoch != epoch ||
      acquire_inflight_->resends_left == 0) {
    return;
  }
  const sim::Duration interval = std::max<sim::Duration>(
      1, cfg_.fetch_timeout /
             static_cast<sim::Duration>(cfg_.command_retries + 1));
  acquire_inflight_->resend_timer =
      fabric_.schedule(self_, interval, [this, epoch] {
        if (!acquire_inflight_.has_value() ||
            acquire_inflight_->epoch != epoch) {
          return;
        }
        acquire_inflight_->resend_timer = net::kInvalidTimerId;
        if (acquire_inflight_->resends_left == 0) return;
        --acquire_inflight_->resends_left;
        for (const ViewId id : acquire_inflight_->awaiting) {
          const auto* rec = find(id);
          if (rec == nullptr) continue;
          stats_.inc("op.invalidate.retry");
          msg::InvalidateReq inv{epoch, generation_};
          FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(),
                            obs::EventKind::kMsgRetransmitted,
                            obs::Role::kDirectory, obs::agent_key(self_),
                            acquire_inflight_->span, msg::kInvalidateReq,
                            epoch, id);
          send_to_view(*rec, msg::kInvalidateReq, box(inv),
                       msg::wire_size(inv));
        }
        arm_acquire_resend(epoch);
      });
}

void DirectoryManager::finish_acquire(PendingAcquire& pa) {
  if (pa.timeout != net::kInvalidTimerId) fabric_.cancel_timer(pa.timeout);
  if (pa.resend_timer != net::kInvalidTimerId) {
    fabric_.cancel_timer(pa.resend_timer);
  }
  auto* rec = find(pa.requester);
  if (rec == nullptr) return;
  rec->active = true;
  rec->exclusive = true;
  rec->last_sync = version_;
  rec->last_sync_at = fabric_.now();
  msg::AcquireGrant grant;
  grant.image = primary_.extract_from_object(rec->properties);
  grant.image.set_version(version_);
  grant.req = pa.req;
  grant.gen = generation_;
  const auto bytes = msg::wire_size(grant);
  reply(rec->cache_addr, pa.req, msg::kAcquireGrant, box(std::move(grant)),
        bytes);
}

void DirectoryManager::handle_invalidate_ack(const net::Message& m) {
  const auto& ack = net::payload_as<msg::InvalidateAck>(m);
  if (auto* src = find(ack.view); src != nullptr) touch(*src);
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgReceived,
                    obs::Role::kDirectory, obs::agent_key(self_),
                    acquire_inflight_.has_value() &&
                            acquire_inflight_->epoch == ack.epoch
                        ? acquire_inflight_->span
                        : 0,
                    msg::kInvalidateAck, ack.epoch, ack.view);
  if (!acquire_inflight_.has_value() ||
      acquire_inflight_->epoch != ack.epoch) {
    // The round already settled. A dirty straggler still carries the
    // only copy of its extraction — merge it via the archive, once.
    stats_.inc("op.invalidate.stale_ack");
    auto sit = settled_acquires_.find(ack.epoch);
    if (sit == settled_acquires_.end() && ack.dirty &&
        pre_crash_round(ack.epoch)) {
      // Mirror of the late-fetch revive: a gen == 0 straggler from an
      // epoch the checkpoint lost.
      revive_settled(true, ack.epoch);
      sit = settled_acquires_.find(ack.epoch);
    }
    if (sit != settled_acquires_.end() && ack.dirty &&
        sit->second.merged.count(ack.view) == 0) {
      if (const auto* ps = round_props(ack.view, sit->second.target_props)) {
        merge_update(ack.image, ack.view, *ps, "late_invalidate", ack.epoch,
                     0);
        sit->second.merged.insert(ack.view);
        note_round_merge(true, ack.epoch, ack.view);
        stats_.inc("op.invalidate.late.merged");
      }
    }
    return;
  }
  if (acquire_inflight_->awaiting.count(ack.view) == 0) {
    // Duplicate delivery: this ack's image was already merged.
    stats_.inc("msg.duplicate.dropped");
    return;
  }
  if (ack.dirty && acquire_inflight_->merged.count(ack.view) == 0) {
    // As in handle_fetch_reply: merge evicted-mid-flight acks from the
    // round's property snapshot rather than dropping their deltas.
    if (const auto* ps =
            round_props(ack.view, acquire_inflight_->target_props)) {
      merge_update(ack.image, ack.view, *ps, "invalidate", ack.epoch,
                   acquire_inflight_->span);
      acquire_inflight_->merged.insert(ack.view);
      note_round_merge(true, ack.epoch, ack.view);
    }
  }
  if (auto* rec = find(ack.view); rec != nullptr) {
    rec->active = false;
    rec->exclusive = false;
  }
  acquire_inflight_->awaiting.erase(ack.view);
  if (acquire_inflight_->awaiting.empty()) {
    PendingAcquire pa = std::move(*acquire_inflight_);
    acquire_inflight_.reset();
    settle_acquire_round(pa);
    finish_acquire(pa);
    if (!acquire_inflight_.has_value()) start_next_acquire();
  }
}

// ---- mode change ----------------------------------------------------------

void DirectoryManager::handle_mode_change(const net::Message& m) {
  const auto& req = net::payload_as<msg::ModeChangeReq>(m);
  stats_.inc("op.mode_change");
  auto* rec = find(req.view);
  if (rec == nullptr) {
    if (req.req != 0) send_nack(m.from, req.view, req.req);
    return;
  }
  touch(*rec);
  note_in_progress(m.from, req.req);
  rec->mode = req.mode;
  {
    WalRecord w;
    w.kind = WalKind::kModeChange;
    w.view = req.view;
    w.mode = req.mode;
    wal_append(w);
  }
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kModeSwitch,
                    obs::Role::kDirectory, obs::agent_key(self_),
                    obs::span_id(m.from, req.req),
                    req.mode == Mode::kStrong ? "strong" : "weak",
                    static_cast<std::uint64_t>(req.mode), req.view);
  if (req.mode == Mode::kWeak) {
    // Leaving strong: surrender exclusivity; the copy stays valid.
    rec->exclusive = false;
  } else {
    // Entering strong: the view must (re)acquire before working.
    rec->active = false;
    rec->exclusive = false;
  }
  msg::ModeChangeAck ack{req.mode, req.req, generation_};
  reply(rec->cache_addr, req.req, msg::kModeChangeAck, box(ack),
        msg::wire_size(ack));
}

// ---- kill -----------------------------------------------------------------

void DirectoryManager::handle_kill(const net::Message& m) {
  const auto& req = net::payload_as<msg::KillReq>(m);
  stats_.inc("op.kill");
  // Even a kill for an already-gone view can carry valid echoes.
  process_echoes(req.echoes);
  auto* rec = find(req.view);
  if (rec == nullptr) {
    // Framed kill for a view that is already gone: acking is the
    // idempotent answer (deregistration is what the sender wants), and
    // it covers a replay whose window entry has been evicted. Unframed
    // kills keep the seed's silent-drop behavior.
    if (req.req != 0) {
      msg::KillAck ack{req.req, generation_};
      reply(m.from, req.req, msg::kKillAck, box(ack), msg::wire_size(ack));
    }
    return;
  }
  touch(*rec);
  note_in_progress(m.from, req.req);
  if (req.dirty) {
    if (op_already_merged(m.from, req.req)) {
      // Merged by a previous incarnation; see handle_push.
      stats_.inc("op.kill.replayed_merge");
    } else {
      merge_update(req.final_image, req.view, rec->properties, "kill", 0,
                   obs::span_id(m.from, req.req));
      note_op_merged(m.from, req.req);
    }
  }
  const net::Address addr = rec->cache_addr;
  drop_view(views_.find(req.view));
  complete_fetch_or_acquire_for_dead_view(req.view);
  msg::KillAck ack{req.req, generation_};
  reply(addr, req.req, msg::kKillAck, box(ack), msg::wire_size(ack));
}

void DirectoryManager::complete_fetch_or_acquire_for_dead_view(ViewId v) {
  // Every deregistration path (kill, supersede, liveness eviction,
  // rebuild drop) funnels through here: checkpoint the departure and
  // release any rebuild wait on the view.
  wal_deregister(v);
  if (migrating(v)) abort_migration(v, "view departed");
  if (rebuilding_) {
    rebuild_awaiting_.erase(v);
    if (rebuild_awaiting_.empty()) finish_rebuild();
  }

  // A dead view can no longer answer FetchReq/InvalidateReq; settle any
  // round that was waiting on it.
  std::vector<std::uint64_t> done_tokens;
  for (auto& [token, pp] : pending_pulls_) {
    pp.outstanding.erase(v);
    if (pp.outstanding.empty()) done_tokens.push_back(token);
  }
  for (const auto token : done_tokens) {
    auto it = pending_pulls_.find(token);
    PendingPull pp = std::move(it->second);
    pending_pulls_.erase(it);
    settle_pull_round(pp);
    finish_pull(pp);
  }

  if (acquire_inflight_.has_value()) {
    if (acquire_inflight_->requester == v) {
      if (acquire_inflight_->timeout != net::kInvalidTimerId) {
        fabric_.cancel_timer(acquire_inflight_->timeout);
      }
      if (acquire_inflight_->resend_timer != net::kInvalidTimerId) {
        fabric_.cancel_timer(acquire_inflight_->resend_timer);
      }
      // The requester died but invalidated views may already have
      // extracted; archive the round so their echoes still merge.
      PendingAcquire dead = std::move(*acquire_inflight_);
      acquire_inflight_.reset();
      settle_acquire_round(dead);
      start_next_acquire();
    } else {
      acquire_inflight_->awaiting.erase(v);
      if (acquire_inflight_->awaiting.empty()) {
        PendingAcquire pa = std::move(*acquire_inflight_);
        acquire_inflight_.reset();
        settle_acquire_round(pa);
        finish_acquire(pa);
        if (!acquire_inflight_.has_value()) start_next_acquire();
      }
    }
  }
}

// ---- view migration (PROTOCOL.md "View migration & CM journaling") --------

bool DirectoryManager::begin_migration(ViewId v, net::Address dest) {
  auto* rec = find(v);
  if (rec == nullptr || migrating(v) || rebuilding_ ||
      rec->cache_addr == dest) {
    stats_.inc("migrate.rejected");
    return false;
  }
  PendingMigration mig;
  mig.view = v;
  mig.epoch = next_epoch_++;  // shares the invalidate-epoch id space
  mig.src = rec->cache_addr;
  mig.dest = dest;
  mig.phase = kMigrateQuiesce;
  mig.resends_left = cfg_.migrate_resends;
  stats_.inc("migrate.begin");
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMigrateBegin,
                    obs::Role::kDirectory, obs::agent_key(self_), 0,
                    rec->name.c_str(), v, mig.epoch);
  auto [it, inserted] = migrations_.emplace(v, std::move(mig));
  (void)inserted;
  send_move_req(it->second);
  arm_migrate_resend(v);
  if (cfg_.on_migrate_phase) cfg_.on_migrate_phase(v, kMigrateQuiesce);
  return true;
}

void DirectoryManager::send_move_req(const PendingMigration& mig) {
  msg::ViewMoveReq req{mig.view, mig.epoch, generation_};
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgSent,
                    obs::Role::kDirectory, obs::agent_key(self_), 0,
                    msg::kViewMoveReq, mig.epoch, mig.view);
  fabric_.send(self_, mig.src, msg::kViewMoveReq, box(req),
               msg::wire_size(req));
}

void DirectoryManager::send_move_install(const PendingMigration& mig) {
  const auto* rec = find(mig.view);
  if (rec == nullptr) return;
  msg::ViewMoveInstall inst;
  inst.view = mig.view;
  inst.epoch = mig.epoch;
  inst.view_name = rec->name;
  inst.properties = rec->properties;
  inst.mode = rec->mode;
  inst.validity_trigger = rec->validity_src;
  inst.exclusive = rec->exclusive;
  // A fresh primary extraction (the handoff delta is already merged):
  // the destination starts valid without a separate pull round.
  inst.image = primary_.extract_from_object(rec->properties);
  inst.image.set_version(version_);
  inst.gen = generation_;
  const auto bytes = msg::wire_size(inst);
  stats_.inc("migrate.install.sent");
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgSent,
                    obs::Role::kDirectory, obs::agent_key(self_), 0,
                    msg::kViewMoveInstall, mig.epoch, mig.view);
  fabric_.send(self_, mig.dest, msg::kViewMoveInstall, box(std::move(inst)),
               bytes);
}

void DirectoryManager::arm_migrate_resend(ViewId v) {
  auto it = migrations_.find(v);
  if (it == migrations_.end()) return;
  it->second.resend_timer =
      fabric_.schedule(self_, std::max<sim::Duration>(1, cfg_.migrate_timeout),
                       [this, v] { on_migrate_timeout(v); });
}

void DirectoryManager::on_migrate_timeout(ViewId v) {
  auto it = migrations_.find(v);
  if (it == migrations_.end()) return;
  it->second.resend_timer = net::kInvalidTimerId;
  if (it->second.resends_left == 0) {
    abort_migration(v, "phase timeout");
    return;
  }
  --it->second.resends_left;
  stats_.inc("migrate.resend");
  if (it->second.phase == kMigrateQuiesce) {
    send_move_req(it->second);
  } else {
    send_move_install(it->second);
  }
  arm_migrate_resend(v);
}

void DirectoryManager::abort_migration(ViewId v, const char* why) {
  auto it = migrations_.find(v);
  if (it == migrations_.end()) return;
  PendingMigration mig = std::move(it->second);
  migrations_.erase(it);
  if (mig.resend_timer != net::kInvalidTimerId) {
    fabric_.cancel_timer(mig.resend_timer);
  }
  stats_.inc("migrate.aborted");
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMigrateAborted,
                    obs::Role::kDirectory, obs::agent_key(self_), 0, why,
                    mig.view, mig.epoch);
  note_migration_outcome(mig.view, mig.epoch, true);
  msg::ViewMoveDone done{mig.view, mig.epoch, true, generation_};
  fabric_.send(self_, mig.src, msg::kViewMoveDone, box(done),
               msg::wire_size(done));
  if (mig.phase == kMigrateHandoff) {
    // The install may already have landed at the destination whose ack
    // we never saw: uninstall it, or the view would be served twice.
    fabric_.send(self_, mig.dest, msg::kViewMoveDone, box(done),
                 msg::wire_size(done));
  }
  if (cfg_.on_migrate_phase) cfg_.on_migrate_phase(v, kMigrateAborted);
  if (migrations_.empty() && !acquire_inflight_.has_value()) {
    start_next_acquire();
  }
}

void DirectoryManager::note_migration_outcome(ViewId v, std::uint64_t epoch,
                                              bool aborted) {
  const bool fresh = migration_outcomes_.count(v) == 0;
  migration_outcomes_[v] = {epoch, aborted};
  if (fresh) {
    migration_outcome_order_.push_back(v);
    while (migration_outcome_order_.size() > kSettledRoundWindow) {
      migration_outcomes_.erase(migration_outcome_order_.front());
      migration_outcome_order_.pop_front();
    }
  }
}

void DirectoryManager::handle_handoff_state(const net::Message& m) {
  const auto& hs = net::payload_as<msg::HandoffState>(m);
  stats_.inc("migrate.handoff");
  // Unconfirmed extraction images ride along exactly as on push/kill.
  process_echoes(hs.echoes);
  auto it = migrations_.find(hs.view);
  if (it == migrations_.end() || it->second.epoch != hs.epoch ||
      it->second.src != m.from) {
    // Retransmit for a migration that already settled: replay the
    // outcome so the source can release (done) or unseal (aborted).
    if (auto oit = migration_outcomes_.find(hs.view);
        oit != migration_outcomes_.end() && oit->second.first == hs.epoch) {
      stats_.inc("migrate.handoff.replayed");
      msg::ViewMoveDone done{hs.view, hs.epoch, oit->second.second,
                             generation_};
      fabric_.send(self_, m.from, msg::kViewMoveDone, box(done),
                   msg::wire_size(done));
    } else {
      stats_.inc("migrate.handoff.unknown");
    }
    return;
  }
  auto& mig = it->second;
  if (mig.phase != kMigrateQuiesce) {
    // Duplicate handoff while the install is in flight: the first copy
    // already merged.
    stats_.inc("msg.duplicate.dropped");
    return;
  }
  auto* rec = find(hs.view);
  if (rec == nullptr) {  // unreachable (eviction aborts), but be safe
    abort_migration(hs.view, "view departed");
    return;
  }
  touch(*rec);
  // Merge the sealed write-buffer delta exactly once under the source's
  // (address, req) key — the same key absorbs a journal-replayed push of
  // this delta after an abort or a source crash, so no path double-merges.
  if (hs.dirty) {
    if (op_already_merged(m.from, hs.req)) {
      stats_.inc("migrate.handoff.replayed_merge");
    } else {
      merge_update(hs.delta, hs.view, rec->properties, "migrate", 0,
                   obs::span_id(m.from, hs.req));
      note_op_merged(m.from, hs.req);
    }
  }
  rec->mode = hs.mode;
  mig.phase = kMigrateHandoff;
  mig.resends_left = cfg_.migrate_resends;
  if (mig.resend_timer != net::kInvalidTimerId) {
    fabric_.cancel_timer(mig.resend_timer);
    mig.resend_timer = net::kInvalidTimerId;
  }
  send_move_install(mig);
  arm_migrate_resend(hs.view);
  if (cfg_.on_migrate_phase) cfg_.on_migrate_phase(hs.view, kMigrateHandoff);
}

void DirectoryManager::handle_view_move_ack(const net::Message& m) {
  const auto& ack = net::payload_as<msg::ViewMoveAck>(m);
  auto it = migrations_.find(ack.view);
  if (it == migrations_.end() || it->second.epoch != ack.epoch ||
      it->second.dest != m.from) {
    stats_.inc("migrate.ack.stale");
    return;
  }
  PendingMigration mig = std::move(it->second);
  migrations_.erase(it);
  if (mig.resend_timer != net::kInvalidTimerId) {
    fabric_.cancel_timer(mig.resend_timer);
  }
  auto* rec = find(ack.view);
  if (rec == nullptr) {  // unreachable (eviction aborts), but be safe
    note_migration_outcome(ack.view, ack.epoch, true);
    msg::ViewMoveDone done{ack.view, ack.epoch, true, generation_};
    fabric_.send(self_, mig.src, msg::kViewMoveDone, box(done),
                 msg::wire_size(done));
    fabric_.send(self_, mig.dest, msg::kViewMoveDone, box(done),
                 msg::wire_size(done));
    return;
  }
  // The atomic rebind: from this statement on, the view IS its
  // destination. The view id (and with it the monitor's ownership
  // bookkeeping) is unchanged; only the serving address moves.
  rec->cache_addr = mig.dest;
  rec->incarnation = 1;  // the destination starts a fresh life sequence
  rec->active = true;
  rec->last_sync = version_;
  rec->last_sync_at = fabric_.now();
  rec->last_seen_at = fabric_.now();
  wal_append(register_record(*rec));
  stats_.inc("migrate.done");
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMigrateDone,
                    obs::Role::kDirectory, obs::agent_key(self_), 0,
                    rec->name.c_str(), ack.view, ack.epoch);
  note_migration_outcome(ack.view, ack.epoch, false);
  msg::ViewMoveDone done{ack.view, ack.epoch, false, generation_};
  fabric_.send(self_, mig.src, msg::kViewMoveDone, box(done),
               msg::wire_size(done));
  if (cfg_.on_migrate_phase) cfg_.on_migrate_phase(ack.view, kMigrateDone);
  if (migrations_.empty() && !acquire_inflight_.has_value()) {
    start_next_acquire();
  }
}

// ---- durability & crash recovery ------------------------------------------

void DirectoryManager::wal_append(const WalRecord& rec) {
  if (cfg_.durability == nullptr) return;
  cfg_.durability->append(rec);
  if (cfg_.compact_threshold != 0 &&
      ++wal_appends_since_compact_ >= cfg_.compact_threshold) {
    compact_wal();
  }
}

WalRecord DirectoryManager::register_record(const ViewRecord& rec) const {
  WalRecord w;
  w.kind = WalKind::kRegister;
  w.view = rec.id;
  w.node = rec.cache_addr.node;
  w.port = rec.cache_addr.port;
  w.name = rec.name;
  w.properties = rec.properties;
  w.mode = rec.mode;
  w.validity = rec.validity_src;
  w.req = rec.incarnation;  // the req slot doubles as the life number
  return w;
}

void DirectoryManager::wal_deregister(ViewId v) {
  if (cfg_.durability == nullptr) return;
  WalRecord w;
  w.kind = WalKind::kDeregister;
  w.view = v;
  wal_append(w);
}

void DirectoryManager::note_round_merge(bool invalidate, std::uint64_t round,
                                        ViewId v) {
  if (cfg_.durability == nullptr) return;
  WalRecord w;
  w.kind = WalKind::kRoundMerge;
  w.view = v;
  w.ns = invalidate ? 1 : 0;
  w.round = round;
  wal_append(w);
}

void DirectoryManager::note_op_merged(const net::Address& from,
                                      std::uint64_t req) {
  if (req == 0) return;
  const MergedOpKey key{from.node, from.port, req};
  if (!merged_ops_.insert(key).second) return;
  merged_ops_order_.push_back(key);
  while (merged_ops_order_.size() > kMergedOpWindow) {
    merged_ops_.erase(merged_ops_order_.front());
    merged_ops_order_.pop_front();
  }
  if (cfg_.durability == nullptr) return;
  WalRecord w;
  w.kind = WalKind::kOpMerged;
  w.node = from.node;
  w.port = from.port;
  w.req = req;
  wal_append(w);
}

bool DirectoryManager::op_already_merged(const net::Address& from,
                                         std::uint64_t req) const {
  if (req == 0) return false;
  return merged_ops_.count(MergedOpKey{from.node, from.port, req}) != 0;
}

std::size_t DirectoryManager::replay_checkpoint(
    const std::vector<WalRecord>& records) {
  auto remember_round = [&](std::uint8_t ns, std::uint64_t round)
      -> SettledRound& {
    auto& rounds = ns == 1 ? settled_acquires_ : settled_pulls_;
    auto& order = ns == 1 ? settled_acquire_order_ : settled_pull_order_;
    auto [it, inserted] = rounds.try_emplace(round);
    if (inserted) {
      order.push_back(round);
      if (order.size() > kSettledRoundWindow && order.front() != round) {
        rounds.erase(order.front());
        order.pop_front();
      }
    }
    return it->second;
  };

  for (const auto& w : records) {
    switch (w.kind) {
      case WalKind::kRegister: {
        ViewRecord rec;
        rec.id = w.view;
        rec.cache_addr = net::Address{w.node, w.port};
        rec.name = w.name;
        rec.properties = w.properties;
        rec.mode = w.mode;
        rec.validity_src = w.validity;
        if (!w.validity.empty()) {
          try {
            rec.validity.emplace(w.validity);
          } catch (const trigger::ParseError&) {
            // Registration validated the source; a corrupt checkpoint
            // line degrades to "no validity trigger", not an abort.
          }
        }
        // Conservative restart state: nothing is active or exclusive
        // until the view re-announces (RebuildReply) or re-syncs.
        rec.active = false;
        rec.exclusive = false;
        rec.last_seen_at = fabric_.now();
        rec.incarnation = w.req == 0 ? 1 : w.req;
        next_view_id_ = std::max(next_view_id_, w.view + 1);
        if (auto* old = find(w.view); old != nullptr) unlink(*old);
        link(views_[w.view] = std::move(rec));
        break;
      }
      case WalKind::kDeregister:
        if (auto it = views_.find(w.view); it != views_.end()) drop_view(it);
        break;
      case WalKind::kModeChange:
        if (auto* rec = find(w.view); rec != nullptr) rec->mode = w.mode;
        break;
      case WalKind::kRoundOpen:
        remember_round(w.ns, w.round).target_props[w.view] = w.properties;
        break;
      case WalKind::kRoundMerge:
        // Creates the slot if kRoundOpen never made it to disk (revived
        // rounds): the exactly-once marker must survive regardless.
        remember_round(w.ns, w.round).merged.insert(w.view);
        break;
      case WalKind::kOpMerged: {
        const MergedOpKey key{w.node, w.port, w.req};
        if (merged_ops_.insert(key).second) {
          merged_ops_order_.push_back(key);
          while (merged_ops_order_.size() > kMergedOpWindow) {
            merged_ops_.erase(merged_ops_order_.front());
            merged_ops_order_.pop_front();
          }
        }
        break;
      }
      case WalKind::kCmBind:
      case WalKind::kCmWrite:
      case WalKind::kCmIntent:
      case WalKind::kCmFlush:
      case WalKind::kCmReq:
        // Cache-manager journal records: a directory pointed at a CM's
        // store (misconfiguration) skips them rather than aborting.
        break;
    }
  }
  return records.size();
}

void DirectoryManager::compact_wal() {
  if (cfg_.durability == nullptr) return;
  wal_appends_since_compact_ = 0;
  std::vector<WalRecord> snap;
  snap.reserve(views_.size() + merged_ops_order_.size());
  for (const auto& [id, rec] : views_) {
    (void)id;
    snap.push_back(register_record(rec));
  }
  // Settled-round archive in insertion order, so replay reconstructs
  // the same eviction order.
  auto dump_rounds = [&](const std::map<std::uint64_t, SettledRound>& rounds,
                         const std::deque<std::uint64_t>& order,
                         std::uint8_t ns) {
    for (const std::uint64_t round : order) {
      auto it = rounds.find(round);
      if (it == rounds.end()) continue;
      for (const auto& [view, props] : it->second.target_props) {
        WalRecord w;
        w.kind = WalKind::kRoundOpen;
        w.view = view;
        w.properties = props;
        w.ns = ns;
        w.round = round;
        snap.push_back(std::move(w));
      }
      for (const ViewId view : it->second.merged) {
        WalRecord w;
        w.kind = WalKind::kRoundMerge;
        w.view = view;
        w.ns = ns;
        w.round = round;
        snap.push_back(std::move(w));
      }
    }
  };
  dump_rounds(settled_pulls_, settled_pull_order_, 0);
  dump_rounds(settled_acquires_, settled_acquire_order_, 1);
  for (const MergedOpKey& key : merged_ops_order_) {
    WalRecord w;
    w.kind = WalKind::kOpMerged;
    w.node = std::get<0>(key);
    w.port = std::get<1>(key);
    w.req = std::get<2>(key);
    snap.push_back(std::move(w));
  }
  stats_.inc("recovery.compactions");
  cfg_.durability->compact(snap);
}

DirectoryManager::SettledRound& DirectoryManager::revive_settled(
    bool invalidate, std::uint64_t round) {
  auto& rounds = invalidate ? settled_acquires_ : settled_pulls_;
  auto& order = invalidate ? settled_acquire_order_ : settled_pull_order_;
  auto [it, inserted] = rounds.try_emplace(round);
  if (inserted) {
    stats_.inc("recovery.revived_round");
    order.push_back(round);
    if (order.size() > kSettledRoundWindow && order.front() != round) {
      rounds.erase(order.front());
      order.pop_front();
    }
  }
  return it->second;
}

void DirectoryManager::start_rebuild() {
  rebuilding_ = true;
  rebuild_awaiting_.clear();
  for (const auto& [id, rec] : views_) {
    (void)rec;
    rebuild_awaiting_.insert(id);
  }
  for (const auto& [id, rec] : views_) {
    stats_.inc("recovery.probe.sent");
    msg::DirectoryRebuild probe{id, generation_};
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgSent,
                      obs::Role::kDirectory, obs::agent_key(self_), 0,
                      msg::kDirectoryRebuild, generation_, id);
    send_to_view(rec, msg::kDirectoryRebuild, box(probe),
                 msg::wire_size(probe));
  }
  rebuild_resends_left_ = cfg_.command_retries;
  // A plain (non-daemon) timer: the rebuild window must hold the sim
  // open until it closes, even when no other work is scheduled yet.
  rebuild_timer_ =
      fabric_.schedule(self_, std::max<sim::Duration>(1, cfg_.rebuild_window),
                       [this] {
                         rebuild_timer_ = net::kInvalidTimerId;
                         finish_rebuild();
                       });
  arm_rebuild_resend();
}

void DirectoryManager::arm_rebuild_resend() {
  if (!rebuilding_ || rebuild_resends_left_ == 0) return;
  const sim::Duration interval = std::max<sim::Duration>(
      1, cfg_.rebuild_window /
             static_cast<sim::Duration>(cfg_.command_retries + 1));
  rebuild_resend_timer_ = fabric_.schedule(self_, interval, [this] {
    rebuild_resend_timer_ = net::kInvalidTimerId;
    if (!rebuilding_ || rebuild_resends_left_ == 0) return;
    --rebuild_resends_left_;
    for (const ViewId id : rebuild_awaiting_) {
      const auto* rec = find(id);
      if (rec == nullptr) continue;
      stats_.inc("recovery.probe.retry");
      msg::DirectoryRebuild probe{id, generation_};
      FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(),
                        obs::EventKind::kMsgRetransmitted,
                        obs::Role::kDirectory, obs::agent_key(self_), 0,
                        msg::kDirectoryRebuild, generation_, id);
      send_to_view(*rec, msg::kDirectoryRebuild, box(probe),
                   msg::wire_size(probe));
    }
    arm_rebuild_resend();
  });
}

void DirectoryManager::handle_rebuild_reply(const net::Message& m) {
  const auto& rep = net::payload_as<msg::RebuildReply>(m);
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgReceived,
                    obs::Role::kDirectory, obs::agent_key(self_), 0,
                    msg::kRebuildReply, rep.view);
  auto* rec = find(rep.view);
  if (rec == nullptr || rec->cache_addr != m.from) {
    // Not a view we probed (or the address moved): the echoes are still
    // self-contained extractions — merge them, drop the rest.
    stats_.inc("recovery.reply.unknown");
    process_echoes(rep.echoes);
    return;
  }
  touch(*rec);
  if (!rebuilding_ || rebuild_awaiting_.count(rep.view) == 0) {
    stats_.inc("recovery.reply.duplicate");
    process_echoes(rep.echoes);
    return;
  }
  // The cache manager is authoritative over the (possibly stale)
  // checkpoint: adopt its registration data and cached-copy state.
  unlink(*rec);
  rec->name = rep.view_name;
  rec->properties = rep.properties;
  link(*rec);
  rec->mode = rep.mode;
  rec->validity_src = rep.validity_trigger;
  rec->validity.reset();
  if (!rep.validity_trigger.empty()) {
    try {
      rec->validity.emplace(rep.validity_trigger);
    } catch (const trigger::ParseError&) {
      // Same degradation as replay_checkpoint.
    }
  }
  rec->active = rep.active;
  rec->exclusive = rep.exclusive;
  rec->last_sync = version_;
  rec->last_sync_at = fabric_.now();
  wal_append(register_record(*rec));  // fresh checkpoint entry
  ++reannounced_;
  stats_.inc("recovery.reannounced");
  process_echoes(rep.echoes);
  rebuild_awaiting_.erase(rep.view);
  if (rebuild_awaiting_.empty()) finish_rebuild();
}

void DirectoryManager::finish_rebuild() {
  if (!rebuilding_) return;
  rebuilding_ = false;
  if (rebuild_timer_ != net::kInvalidTimerId) {
    fabric_.cancel_timer(rebuild_timer_);
    rebuild_timer_ = net::kInvalidTimerId;
  }
  if (rebuild_resend_timer_ != net::kInvalidTimerId) {
    fabric_.cancel_timer(rebuild_resend_timer_);
    rebuild_resend_timer_ = net::kInvalidTimerId;
  }
  const std::vector<ViewId> silent(rebuild_awaiting_.begin(),
                                   rebuild_awaiting_.end());
  rebuild_awaiting_.clear();
  for (const ViewId v : silent) {
    // Checkpointed but never re-announced: treat as departed. A
    // survivor that merely lost every probe reconnects from scratch via
    // its heartbeat (known == false → re-register).
    stats_.inc("recovery.dropped");
    const auto it = views_.find(v);
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kViewEvicted,
                      obs::Role::kDirectory, obs::agent_key(self_), 0,
                      it->second.name.c_str(), v, generation_);
    drop_view(it);
    complete_fetch_or_acquire_for_dead_view(v);
  }
  stats_.inc("recovery.completed");
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kRecoveryEnd,
                    obs::Role::kDirectory, obs::agent_key(self_), 0,
                    "rebuilt", generation_, reannounced_);
  start_next_acquire();
}

}  // namespace flecc::core

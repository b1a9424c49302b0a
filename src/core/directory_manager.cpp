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

/// How long a restarted directory waits for RebuildReply
/// re-announcements before dropping checkpointed views that stayed
/// silent (they reconnect via heartbeat `known == false`).
constexpr sim::Duration kRebuildWindow = sim::msec(500);

/// Per-phase wait before retransmitting ViewMoveReq/ViewMoveInstall.
constexpr sim::Duration kMigrateTimeout = sim::msec(250);

/// Retransmissions per migration phase before the move aborts and the
/// view stays bound to its source.
constexpr std::size_t kMigrateResends = 4;

/// Parse a validity trigger that registration once accepted (a rebuild
/// re-announce or a checkpointed record). A source that no longer
/// parses leaves the view without a trigger rather than aborting.
std::optional<trigger::Trigger> reparse_validity(const std::string& src) {
  std::optional<trigger::Trigger> validity;
  if (src.empty()) return validity;
  try {
    validity.emplace(src);
  } catch (const trigger::ParseError&) {
  }
  return validity;
}

}  // namespace

DirectoryManager::DirectoryManager(net::Fabric& fabric, net::Address self,
                                   PrimaryAdapter& primary, Config cfg)
    : fabric_(fabric),
      self_(self),
      primary_(primary),
      cfg_(cfg),
      archives_{{SettledRounds(kSettledRoundWindow),
                 SettledRounds(kSettledRoundWindow)}},
      migration_outcomes_(kSettledRoundWindow),
      merged_ops_(kMergedOpWindow) {
  [[maybe_unused]] std::size_t replayed = 0;  // traced only
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
  // Every timer captures `this`: left armed, it would fire into the
  // destroyed directory (crash_directory() mid-round, say).
  cancel(liveness_timer_);
  for (auto& [view, mig] : migrations_) cancel(mig.resend_timer);
  cancel(rebuild_timer_);
  cancel(rebuild_resend_timer_);
  for (auto& [token, r] : fetch_rounds_) cancel_timers(r);
  if (invalidation_.has_value()) cancel_timers(*invalidation_);
  fabric_.set_clock(self_, nullptr);
  fabric_.unbind(self_);
}

void DirectoryManager::on_message(const net::Message& m) {
  // Generation fencing: a message stamped by a previous incarnation (or
  // addressed to one) is rejected before the dedup window can replay a
  // cached pre-crash reply. gen == 0 means unfenced (legacy senders and
  // first contact) and passes through.
  const msg::Header header = msg::header_of(m);
  if (header.gen != 0 && header.gen != generation_) {
    stats_.inc("recovery.fenced");
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgFenced,
                      obs::Role::kDirectory, obs::agent_key(self_),
                      obs::span_id(m.from, header.req), m.type.c_str(),
                      header.gen, generation_);
    if (m.type == msg::kHeartbeat) {
      // known == false drives the sender into its reconnect path, which
      // re-registers under the current generation.
      const auto& hb = net::payload_as<msg::Heartbeat>(m);
      send(m.from, msg::kHeartbeatAck,
           msg::HeartbeatAck{hb.view, hb.seq, false, generation_});
    } else if (header.req != 0) {
      // Framed request: nack (never cached) so the sender aborts the op
      // and re-issues it under the current generation.
      send_nack(m.from, kInvalidViewId, header.req, "stale generation");
    }
    return;
  }

  if (m.type == msg::kHeartbeat) return handle_heartbeat(m);

  // Idempotent replay: a framed request we have already seen is either
  // answered from the cached reply (completed) or dropped (a round for
  // it is still in flight; the eventual reply will reach the sender).
  if (header.req != 0) {
    if (DedupEntry* e = find_dedup(m.from, header.req); e != nullptr) {
      FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kDedupHit,
                        obs::Role::kDirectory, obs::agent_key(self_),
                        obs::span_id(m.from, header.req), m.type.c_str(),
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
                      obs::span_id(m.from, header.req), m.type.c_str());
  }

  if (m.type == msg::kRegisterReq) return handle_register(m);
  if (m.type == msg::kInitReq) return handle_init(m);
  if (m.type == msg::kPullReq) return handle_pull(m);
  if (m.type == msg::kPushUpdate) return handle_push(m);
  if (m.type == msg::kAcquireReq) return handle_acquire(m);
  if (m.type == msg::kInvalidateAck) {
    const auto& ack = net::payload_as<msg::InvalidateAck>(m);
    return handle_round_reply(RoundKind::kInvalidate, ack.epoch, ack.view,
                              ack.dirty, ack.image);
  }
  if (m.type == msg::kFetchReply) {
    const auto& rep = net::payload_as<msg::FetchReply>(m);
    return handle_round_reply(RoundKind::kFetch, rep.token, rep.view,
                              rep.dirty, rep.image);
  }
  if (m.type == msg::kModeChangeReq) return handle_mode_change(m);
  if (m.type == msg::kKillReq) return handle_kill(m);
  if (m.type == msg::kRebuildReply) return handle_rebuild_reply(m);
  if (m.type == msg::kHandoffState) return handle_handoff_state(m);
  if (m.type == msg::kViewMoveAck) return handle_view_move_ack(m);
  // Busy lands here too: fabrics synthesize it only for the four bulk
  // requests, which only cache managers send.
  stats_.inc("msg.unknown");
}

// ---- lookup helpers -----------------------------------------------------

DirectoryManager::ViewRecord* DirectoryManager::find(ViewId v) {
  return v < index_.size() ? index_[v].rec : nullptr;
}

const DirectoryManager::ViewRecord* DirectoryManager::find(ViewId v) const {
  return v < index_.size() ? index_[v].rec : nullptr;
}

DirectoryManager::ViewRecord* DirectoryManager::find_or_nack(
    const net::Address& from, ViewId v, std::uint64_t req) {
  ViewRecord* rec = find(v);
  if (rec == nullptr && req != 0) send_nack(from, v, req);
  return rec;
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

void DirectoryManager::cancel(net::TimerId& timer) {
  if (timer == net::kInvalidTimerId) return;
  fabric_.cancel_timer(timer);
  timer = net::kInvalidTimerId;
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
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgSent,
                    obs::Role::kDirectory, obs::agent_key(self_),
                    obs::span_id(to, req), msg::kOpNack, view);
  send(to, msg::kOpNack, msg::OpNack{view, reason, req, generation_});
}

void DirectoryManager::send_busy(const net::Address& to, ViewId view,
                                 std::uint64_t req, const char* reason) {
  stats_.inc("flow.busy.sent");
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kLoadShed,
                    obs::Role::kDirectory, obs::agent_key(self_),
                    obs::span_id(to, req), reason, view);
  send(to, msg::kBusy,
       msg::Busy{view, reason, cfg_.busy_retry_after, req, generation_});
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
    // Settling the dead view's rounds and migration restarts the FIFO
    // acquire queue, so a dead STRONG holder's token is released in this
    // sweep (PROTOCOL.md, "Arbitration invariant"). Traffic from the
    // dead incarnation is fenced at re-registration.
    complete_fetch_or_acquire_for_dead_view(id);
    if (held_token) stats_.inc("view.evicted.strong_reclaim");
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
  send(m.from, msg::kHeartbeatAck,
       msg::HeartbeatAck{hb.view, hb.seq, known, generation_});
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

  auto reject = [&](std::string why) {
    stats_.inc("op.register.rejected");
    reply(m.from, req.req, msg::kRegisterAck,
          msg::RegisterAck{kInvalidViewId, false, std::move(why), req.req,
                           generation_});
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
  ViewRecord* rec = nullptr;
  if (req.resume_view != kInvalidViewId) {
    rec = find(req.resume_view);
    if (rec != nullptr && rec->cache_addr != m.from) {
      // The record moved while this manager was dead: a live migration
      // rebound the view to another address (and reset its incarnation
      // sequence), so an incarnation comparison alone would let the
      // restarted source steal the view back from its new server. A
      // resume is only honored from the record's current home; everyone
      // else falls through to a fresh registration — their replayed
      // pushes still merge exactly once (merged_ops_ is keyed by
      // address, not view).
      stats_.inc("register.fenced.moved");
      rec = nullptr;
    } else if (rec != nullptr) {
      if (req.incarnation <= rec->incarnation) {
        stats_.inc("register.fenced.incarnation");
        return reject("stale incarnation");
      }
      if (migrating(rec->id)) abort_migration(rec->id, "source resumed");
      stats_.inc("view.resumed");
    } else {
      // Record gone (evicted, killed, or dropped by a directory
      // rebuild): fall through to a fresh registration. The replayed
      // pushes still merge exactly once — merged_ops_ is keyed by
      // address, not view.
      stats_.inc("view.resume_missed");
    }
  }

  if (rec != nullptr) {
    rec->incarnation = req.incarnation;
    // Conservative until the resumed manager re-syncs (Init/Pull).
    rec->active = false;
    rec->exclusive = false;
  } else {
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
    // Filed before its append: a compaction that the append triggers
    // snapshots views_, which must already hold the new view.
    const ViewId id = next_view_id_++;
    rec = &views_[id];
    rec->id = id;
  }
  rec->cache_addr = m.from;
  rec->last_seen_at = fabric_.now();
  describe(*rec, req.view_name, req.properties, req.mode,
           req.validity_trigger, std::move(validity));
  wal_append(register_record(*rec));
  reply(m.from, req.req, msg::kRegisterAck,
        msg::RegisterAck{rec->id, true, {}, req.req, generation_});
}

void DirectoryManager::describe(ViewRecord& rec, const std::string& name,
                                const props::PropertySet& properties,
                                Mode mode, const std::string& validity_src,
                                std::optional<trigger::Trigger> validity) {
  if (find(rec.id) != nullptr) unlink(rec);
  rec.name = name;
  rec.properties = properties;
  rec.mode = mode;
  rec.validity_src = validity_src;
  rec.validity = std::move(validity);
  link(rec);
}

// ---- init ---------------------------------------------------------------

void DirectoryManager::handle_init(const net::Message& m) {
  const auto& req = net::payload_as<msg::InitReq>(m);
  stats_.inc("op.init");
  auto* rec = find_or_nack(m.from, req.view, req.req);
  if (rec == nullptr) return;
  touch(*rec);
  note_in_progress(m.from, req.req);
  msg::InitReply out;
  out.image = primary_.extract_from_object(rec->properties);
  out.image.set_version(version_);
  out.req = req.req;
  out.gen = generation_;
  rec->active = true;
  rec->last_sync = version_;
  reply(rec->cache_addr, req.req, msg::kInitReply, std::move(out));
}

// ---- weak-mode pull (with validity-triggered demand fetch) ---------------

void DirectoryManager::handle_pull(const net::Message& m) {
  const auto& req = net::payload_as<msg::PullReq>(m);
  stats_.inc("op.pull");
  auto* rec = find_or_nack(m.from, req.view, req.req);
  if (rec == nullptr) return;
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

  Round r;
  r.requester = req.view;
  r.req = req.req;
  r.unseen_before = unseen;
  if (need_fetch) {
    for (const ViewId id : conflicting_views(req.view)) {
      // A migrating view is sealed: it cannot answer a FetchReq, and
      // its dirty state reaches the primary through the handoff anyway.
      if (find(id)->active && !migrating(id)) r.outstanding.insert(id);
    }
  }
  if (r.outstanding.empty()) return answer_requester(r);

  // Admission control: opening yet another demand-fetch round past the
  // configured budget is refused with Busy — fetch rounds are the
  // invalidation/fetch fan-out amplifier, so this is where overload is
  // cut off. Cheap pulls (no round needed) are always served above.
  // The in-progress dedup slot noted earlier must be forgotten, or the
  // post-Busy retry would be dropped as a duplicate of a round that
  // never opened.
  if (cfg_.max_fetch_rounds != 0 &&
      fetch_rounds_.size() >= cfg_.max_fetch_rounds) {
    stats_.inc("shed.pull");
    stats_.inc("shed.pull.global");
    forget_in_progress(m.from, req.req);
    send_busy(m.from, req.view, req.req, "fetch rounds saturated");
    return;
  }

  stats_.inc("op.pull.fetch_round");
  r.id = next_token_++;
  FLECC_TRACE_ONLY(r.span = obs::span_id(m.from, req.req);)
  open_round(std::move(r));
}

// ---- push ---------------------------------------------------------------

void DirectoryManager::handle_push(const net::Message& m) {
  const auto& req = net::payload_as<msg::PushUpdate>(m);
  stats_.inc("op.push");
  auto* rec = find_or_nack(m.from, req.view, req.req);
  if (rec == nullptr) return;
  touch(*rec);
  note_in_progress(m.from, req.req);
  process_echoes(req.echoes);
  merge_op(m.from, req.req, *rec, req.image, "push", "op.push.replayed_merge");
  rec->active = true;
  reply(rec->cache_addr, req.req, msg::kPushAck,
        msg::PushAck{version_, req.req, generation_});
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
      FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgSent,
                        obs::Role::kDirectory, obs::agent_key(self_), 0,
                        msg::kUpdateNotify, version_, id);
      send(other.cache_addr, msg::kUpdateNotify,
           msg::UpdateNotify{version_, generation_});
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
  auto* rec = find_or_nack(m.from, req.view, req.req);
  if (rec == nullptr) return;
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
  start_next_acquire();
}

void DirectoryManager::start_next_acquire() {
  // One invalidation round at a time: completing it drains the queue.
  if (invalidation_.has_value()) return;
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

    Round r;
    r.kind = RoundKind::kInvalidate;
    r.id = next_epoch_++;
    r.requester = req.view;
    r.req = req.req;
    FLECC_TRACE_ONLY(r.span = obs::span_id(rec->cache_addr, req.req);)

    // Read-only acquires under the read/write-semantics extension can
    // share: they do not invalidate other read-only holders. A plain
    // Flecc acquire invalidates every conflicting active view (paper
    // Fig. 2, steps 12-14).
    const bool ro_share =
        cfg_.use_rw_semantics && req.intent == AccessIntent::kReadOnly;
    for (const ViewId id : conflicting_views(req.view)) {
      const ViewRecord& other = *find(id);
      if (!other.active) continue;
      if (ro_share && !other.exclusive) continue;  // RO can coexist
      r.outstanding.insert(id);
    }
    if (r.outstanding.empty()) {
      answer_requester(r);
      continue;  // no round opened; serve the next
    }
    open_round(std::move(r));
    return;
  }
}

// ---- rounds: demand fetches and invalidations -----------------------------
//
// Paper Figure 2 runs the same step for a validity-triggered fetch and a
// strong-mode invalidation: ask each active conflicting view to extract
// its updates, then merge them into the primary. Both kinds take one
// path per step; kind_info() holds what differs.

const DirectoryManager::RoundKindInfo& DirectoryManager::kind_info(
    RoundKind kind) {
  static constexpr RoundKindInfo kKinds[] = {
      {msg::kFetchReq, msg::kFetchReply, "op.fetch.sent", "op.fetch.retry",
       "op.fetch.timeout", "op.fetch.late", "op.fetch.late.merged", "fetch",
       "late_fetch", "echo.fetch", 0},
      {msg::kInvalidateReq, msg::kInvalidateAck, "op.acquire.invalidations",
       "op.invalidate.retry", "op.acquire.timeout", "op.invalidate.stale_ack",
       "op.invalidate.late.merged", "invalidate", "late_invalidate",
       "echo.invalidate", 1},
  };
  return kKinds[static_cast<std::size_t>(kind)];
}

void DirectoryManager::open_round(Round r) {
  const RoundKindInfo& k = kind_info(r.kind);
  for (const ViewId id : r.outstanding) {
    r.ledger.target_props.emplace(id, find(id)->properties);
  }
  r.resends_left = cfg_.command_retries;
  // Filed before its appends: a compaction that one of them triggers
  // snapshots the open rounds, which must already hold this one.
  Round& open = r.kind == RoundKind::kFetch
                    ? fetch_rounds_.emplace(r.id, std::move(r)).first->second
                    : invalidation_.emplace(std::move(r));
  if (cfg_.durability != nullptr) {
    // Checkpoint the round opening per target so a straggler reply or
    // echo arriving after a crash can still merge from the archive.
    for (const auto& [id, props] : open.ledger.target_props) {
      wal_append(
          round_record(WalKind::kRoundOpen, open.kind, open.id, id, props));
    }
  }
  for (const ViewId id : open.outstanding) {
    stats_.inc(k.sent);
    send_command(open, *find(id), obs::EventKind::kMsgSent);
  }
  arm_round_timer(open, /*resend=*/false);
  arm_round_timer(open, /*resend=*/true);
}

DirectoryManager::Round* DirectoryManager::find_round(RoundKind kind,
                                                      std::uint64_t id) {
  if (kind == RoundKind::kInvalidate) {
    return invalidation_.has_value() && invalidation_->id == id
               ? &*invalidation_
               : nullptr;
  }
  auto it = fetch_rounds_.find(id);
  return it == fetch_rounds_.end() ? nullptr : &it->second;
}

void DirectoryManager::send_command(const Round& r, const ViewRecord& target,
                                    [[maybe_unused]] obs::EventKind event) {
  const char* type = kind_info(r.kind).command;
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), event, obs::Role::kDirectory,
                    obs::agent_key(self_), r.span, type, r.id, target.id);
  if (r.kind == RoundKind::kFetch) {
    send(target.cache_addr, type, msg::FetchReq{r.id, generation_});
  } else {
    send(target.cache_addr, type, msg::InvalidateReq{r.id, generation_});
  }
}

void DirectoryManager::arm_round_timer(Round& r, bool resend) {
  sim::Duration delay = cfg_.fetch_timeout;
  if (resend) {
    // The resends spread across fetch_timeout, before the timeout.
    if (r.resends_left == 0) return;
    delay = std::max<sim::Duration>(
        1, delay / static_cast<sim::Duration>(cfg_.command_retries + 1));
  }
  // Each callback captures only (this, id), which std::function stores
  // inline: arming a round timer never allocates.
  const std::uint64_t id = r.id;
  std::function<void()> fire;
  if (r.kind == RoundKind::kFetch && resend) {
    fire = [this, id] { on_round_timer(RoundKind::kFetch, id, true); };
  } else if (r.kind == RoundKind::kFetch) {
    fire = [this, id] { on_round_timer(RoundKind::kFetch, id, false); };
  } else if (resend) {
    fire = [this, id] { on_round_timer(RoundKind::kInvalidate, id, true); };
  } else {
    fire = [this, id] { on_round_timer(RoundKind::kInvalidate, id, false); };
  }
  (resend ? r.resend_timer : r.timeout) =
      fabric_.schedule(self_, delay, std::move(fire));
}

void DirectoryManager::on_round_timer(RoundKind kind, std::uint64_t id,
                                      bool resend) {
  Round* r = find_round(kind, id);
  if (r == nullptr) return;
  const RoundKindInfo& k = kind_info(kind);
  if (!resend) {
    // Straggler protection: a target that never answers (crash) holds
    // the requester for fetch_timeout at most.
    stats_.inc(k.timeout);
    complete_round(*r);
    return;
  }
  r->resend_timer = net::kInvalidTimerId;
  if (r->resends_left == 0) return;
  --r->resends_left;
  for (const ViewId target : r->outstanding) {
    const ViewRecord* rec = find(target);
    if (rec == nullptr) continue;
    stats_.inc(k.retry);
    send_command(*r, *rec, obs::EventKind::kMsgRetransmitted);
  }
  arm_round_timer(*r, /*resend=*/true);
}

void DirectoryManager::handle_round_reply(RoundKind kind, std::uint64_t id,
                                          ViewId view, bool dirty,
                                          const ObjectImage& image) {
  const RoundKindInfo& k = kind_info(kind);
  if (auto* src = find(view); src != nullptr) touch(*src);
  Round* r = find_round(kind, id);
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgReceived,
                    obs::Role::kDirectory, obs::agent_key(self_),
                    r != nullptr ? r->span : 0, k.reply, id, view);
  if (r == nullptr) {
    // The round already settled (timeout, or everyone else answered).
    // A dirty straggler carries the only copy of its extraction: merge
    // it via the settled-round archive, once.
    stats_.inc(k.late);
    RoundLedger* settled = archive(kind).find(id);
    if (settled == nullptr && dirty && pre_crash_round(id)) {
      // A gen == 0 straggler from a round the checkpoint lost (stamped
      // replies from the old incarnation are fenced before this point):
      // revive its archive slot.
      stats_.inc("recovery.revived_round");
      settled = &archive(kind).file(id);
    }
    if (settled != nullptr && dirty && settled->merged.count(view) == 0 &&
        merge_round_image(kind, id, *settled, view, image, k.late_path, 0)) {
      stats_.inc(k.late_merged);
    }
    return;
  }
  if (r->outstanding.count(view) == 0) {
    // Duplicate delivery (command resend + original both answered): the
    // first copy already merged; merging again would double-count.
    stats_.inc("msg.duplicate.dropped");
    return;
  }
  if (dirty && r->ledger.merged.count(view) == 0) {
    merge_round_image(kind, id, r->ledger, view, image, k.path, r->span);
  }
  if (kind == RoundKind::kInvalidate) release_target(view);
  r->outstanding.erase(view);
  if (r->outstanding.empty()) complete_round(*r);
}

void DirectoryManager::process_echoes(
    const std::vector<msg::DeltaEcho>& echoes) {
  for (const auto& e : echoes) {
    const RoundKind kind =
        e.invalidate ? RoundKind::kInvalidate : RoundKind::kFetch;
    const char* path = kind_info(kind).echo_path;
    if (Round* r = find_round(kind, e.round); r != nullptr) {
      // The echo beat (or replaced) the reply of a live round.
      if (r->ledger.merged.count(e.view) != 0) {
        stats_.inc("echo.duplicate");
        continue;
      }
      if (merge_round_image(kind, e.round, r->ledger, e.view, e.image, path,
                            r->span)) {
        stats_.inc("echo.merged");
      }
      if (kind == RoundKind::kInvalidate) release_target(e.view);
      if (r->outstanding.erase(e.view) != 0 && r->outstanding.empty()) {
        complete_round(*r);
      }
      continue;
    }
    RoundLedger* settled = archive(kind).find(e.round);
    // A round a previous incarnation opened and the checkpoint lost: the
    // echoed extraction may exist nowhere else, so revive an archive
    // slot and merge it exactly once per epoch.
    const bool revived = settled == nullptr && pre_crash_round(e.round);
    if (revived) {
      stats_.inc("recovery.revived_round");
      settled = &archive(kind).file(e.round);
    }
    if (settled == nullptr) {
      // Evicted from the window: the reply must have merged long ago.
      stats_.inc("echo.unknown");
    } else if (settled->merged.count(e.view) != 0) {
      stats_.inc("echo.duplicate");
    } else if (merge_round_image(kind, e.round, *settled, e.view, e.image,
                                 path, 0)) {
      stats_.inc(revived ? "echo.revived" : "echo.merged");
    }
  }
}

bool DirectoryManager::merge_round_image(RoundKind kind, std::uint64_t id,
                                         RoundLedger& ledger, ViewId view,
                                         const ObjectImage& image,
                                         const char* path,
                                         std::uint64_t span) {
  // The live record's properties if any, else the round's snapshot (the
  // source was liveness-evicted while its reply was in flight).
  const props::PropertySet* ps = nullptr;
  if (const auto* rec = find(view); rec != nullptr) {
    ps = &rec->properties;
  } else if (auto it = ledger.target_props.find(view);
             it != ledger.target_props.end()) {
    ps = &it->second;
  }
  if (ps == nullptr) return false;
  merge_update(image, view, *ps, path, id, span);
  ledger.merged.insert(view);
  if (cfg_.durability != nullptr) {
    wal_append(round_record(WalKind::kRoundMerge, kind, id, view));
  }
  return true;
}

void DirectoryManager::release_target(ViewId v) {
  if (auto* rec = find(v); rec != nullptr) {
    rec->active = false;  // the extraction invalidated the copy
    rec->exclusive = false;
  }
}

void DirectoryManager::complete_round(Round& open) {
  const Round r = close_round(open);
  answer_requester(r);
  if (r.kind == RoundKind::kInvalidate) start_next_acquire();
}

DirectoryManager::Round DirectoryManager::close_round(Round& open) {
  Round r = std::move(open);
  if (r.kind == RoundKind::kFetch) {
    fetch_rounds_.erase(r.id);
  } else {
    invalidation_.reset();
  }
  cancel_timers(r);
  archive(r.kind).file(r.id) = std::move(r.ledger);
  return r;
}

void DirectoryManager::cancel_timers(Round& r) {
  cancel(r.timeout);
  cancel(r.resend_timer);
}

void DirectoryManager::answer_requester(const Round& r) {
  ViewRecord* rec = find(r.requester);
  if (rec == nullptr) return;  // the requester died while the round ran
  ObjectImage image = primary_.extract_from_object(rec->properties);
  image.set_version(version_);
  rec->active = true;
  if (r.kind == RoundKind::kInvalidate) rec->exclusive = true;
  rec->last_sync = version_;
  if (r.kind == RoundKind::kFetch) {
    reply(rec->cache_addr, r.req, msg::kPullReply,
          msg::PullReply{std::move(image), r.unseen_before, r.req,
                         generation_});
  } else {
    reply(rec->cache_addr, r.req, msg::kAcquireGrant,
          msg::AcquireGrant{std::move(image), r.req, generation_});
  }
}

// ---- mode change ----------------------------------------------------------

void DirectoryManager::handle_mode_change(const net::Message& m) {
  const auto& req = net::payload_as<msg::ModeChangeReq>(m);
  stats_.inc("op.mode_change");
  auto* rec = find_or_nack(m.from, req.view, req.req);
  if (rec == nullptr) return;
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
  reply(rec->cache_addr, req.req, msg::kModeChangeAck,
        msg::ModeChangeAck{req.mode, req.req, generation_});
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
      reply(m.from, req.req, msg::kKillAck, msg::KillAck{req.req, generation_});
    }
    return;
  }
  touch(*rec);
  note_in_progress(m.from, req.req);
  if (req.dirty) {
    merge_op(m.from, req.req, *rec, req.final_image, "kill",
             "op.kill.replayed_merge");
  }
  const net::Address addr = rec->cache_addr;
  drop_view(views_.find(req.view));
  complete_fetch_or_acquire_for_dead_view(req.view);
  reply(addr, req.req, msg::kKillAck, msg::KillAck{req.req, generation_});
}

void DirectoryManager::complete_fetch_or_acquire_for_dead_view(ViewId v) {
  // Every deregistration path (kill, supersede, liveness eviction,
  // rebuild drop) funnels through here right after drop_view():
  // checkpoint the departure, abort the view's migration (so a
  // migration's view record always exists), and release any rebuild
  // wait on the view.
  if (cfg_.durability != nullptr) {
    WalRecord w;
    w.kind = WalKind::kDeregister;
    w.view = v;
    wal_append(w);
  }
  if (migrating(v)) abort_migration(v, "view departed");
  if (rebuilding_) {
    rebuild_awaiting_.erase(v);
    if (rebuild_awaiting_.empty()) finish_rebuild();
  }

  // A dead view can no longer answer a command: settle every round
  // waiting on it, fetch rounds in token order, then the invalidation.
  for (auto it = fetch_rounds_.begin(); it != fetch_rounds_.end();) {
    Round& r = (it++)->second;  // completing r erases its node
    r.outstanding.erase(v);
    if (r.outstanding.empty()) complete_round(r);
  }
  if (!invalidation_.has_value()) return;
  if (invalidation_->requester == v) {
    // The requester died, but invalidated views may already have
    // extracted: archive the round so their echoes still merge.
    close_round(*invalidation_);
    start_next_acquire();
  } else {
    invalidation_->outstanding.erase(v);
    if (invalidation_->outstanding.empty()) complete_round(*invalidation_);
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
  mig.resends_left = kMigrateResends;
  stats_.inc("migrate.begin");
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMigrateBegin,
                    obs::Role::kDirectory, obs::agent_key(self_), 0,
                    rec->name.c_str(), v, mig.epoch);
  send_phase(migrations_.emplace(v, std::move(mig)).first->second);
  if (cfg_.on_migrate_phase) cfg_.on_migrate_phase(v, kMigrateQuiesce);
  return true;
}

void DirectoryManager::send_phase(PendingMigration& mig) {
  if (mig.phase == kMigrateQuiesce) {
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgSent,
                      obs::Role::kDirectory, obs::agent_key(self_), 0,
                      msg::kViewMoveReq, mig.epoch, mig.view);
    send(mig.src, msg::kViewMoveReq,
         msg::ViewMoveReq{mig.view, mig.epoch, generation_});
  } else if (const ViewRecord* rec = find(mig.view); rec != nullptr) {
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
    stats_.inc("migrate.install.sent");
    FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMsgSent,
                      obs::Role::kDirectory, obs::agent_key(self_), 0,
                      msg::kViewMoveInstall, mig.epoch, mig.view);
    send(mig.dest, msg::kViewMoveInstall, std::move(inst));
  }
  const ViewId v = mig.view;
  mig.resend_timer = fabric_.schedule(self_, kMigrateTimeout,
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
  send_phase(it->second);
}

void DirectoryManager::abort_migration(ViewId v,
                                       [[maybe_unused]] const char* why) {
  auto it = migrations_.find(v);
  if (it == migrations_.end()) return;
  stats_.inc("migrate.aborted");
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMigrateAborted,
                    obs::Role::kDirectory, obs::agent_key(self_), 0, why, v,
                    it->second.epoch);
  settle_migration(it, /*aborted=*/true);
}

void DirectoryManager::settle_migration(MigrationMap::iterator it,
                                        bool aborted) {
  PendingMigration mig = std::move(it->second);
  migrations_.erase(it);
  cancel(mig.resend_timer);
  migration_outcomes_.file(mig.view) = MigrationOutcome{mig.epoch, aborted};
  const msg::ViewMoveDone done{mig.view, mig.epoch, aborted, generation_};
  send(mig.src, msg::kViewMoveDone, done);
  if (aborted && mig.phase == kMigrateHandoff) {
    // The install may already have landed at the destination whose ack
    // we never saw: uninstall it, or the view would be served twice.
    send(mig.dest, msg::kViewMoveDone, done);
  }
  if (cfg_.on_migrate_phase) {
    cfg_.on_migrate_phase(mig.view, aborted ? kMigrateAborted : kMigrateDone);
  }
  start_next_acquire();
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
    if (const MigrationOutcome* o = migration_outcomes_.find(hs.view);
        o != nullptr && o->epoch == hs.epoch) {
      stats_.inc("migrate.handoff.replayed");
      send(m.from, msg::kViewMoveDone,
           msg::ViewMoveDone{hs.view, hs.epoch, o->aborted, generation_});
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
  ViewRecord& rec = *find(hs.view);  // a departed view's move was aborted
  touch(rec);
  // Merge the sealed write-buffer delta exactly once under the source's
  // (address, req) key — the same key absorbs a journal-replayed push of
  // this delta after an abort or a source crash, so no path double-merges.
  if (hs.dirty) {
    merge_op(m.from, hs.req, rec, hs.delta, "migrate",
             "migrate.handoff.replayed_merge");
  }
  rec.mode = hs.mode;
  mig.phase = kMigrateHandoff;
  mig.resends_left = kMigrateResends;
  cancel(mig.resend_timer);
  send_phase(mig);
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
  ViewRecord& rec = *find(ack.view);  // a departed view's move was aborted
  // The atomic rebind: from this statement on, the view IS its
  // destination. The view id (and with it the monitor's ownership
  // bookkeeping) is unchanged; only the serving address moves.
  rec.cache_addr = it->second.dest;
  rec.incarnation = 1;  // the destination starts a fresh life sequence
  rec.active = true;
  rec.last_sync = version_;
  rec.last_seen_at = fabric_.now();
  wal_append(register_record(rec));
  stats_.inc("migrate.done");
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), obs::EventKind::kMigrateDone,
                    obs::Role::kDirectory, obs::agent_key(self_), 0,
                    rec.name.c_str(), ack.view, ack.epoch);
  settle_migration(it, /*aborted=*/false);
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

WalRecord DirectoryManager::round_record(WalKind wal, RoundKind kind,
                                         std::uint64_t round, ViewId v,
                                         const props::PropertySet& props) {
  WalRecord w;
  w.kind = wal;
  w.view = v;
  w.properties = props;
  w.ns = kind_info(kind).ns;
  w.round = round;
  return w;
}

WalRecord DirectoryManager::op_record(const MergedOpKey& key) {
  WalRecord w;
  w.kind = WalKind::kOpMerged;
  w.node = std::get<0>(key);
  w.port = std::get<1>(key);
  w.req = std::get<2>(key);
  return w;
}

void DirectoryManager::merge_op(const net::Address& from, std::uint64_t req,
                                const ViewRecord& rec,
                                const ObjectImage& image, const char* path,
                                const char* replayed) {
  const MergedOpKey key{from.node, from.port, req};
  if (req != 0 && merged_ops_.find(key) != nullptr) {
    // A previous incarnation merged it; the ack was lost to the crash.
    // Ack without re-merging (the within-incarnation equivalent is the
    // dedup window, which did not survive the restart).
    stats_.inc(replayed);
    return;
  }
  merge_update(image, rec.id, rec.properties, path, 0,
               obs::span_id(from, req));
  if (req == 0) return;
  merged_ops_.file(key);
  if (cfg_.durability != nullptr) wal_append(op_record(key));
}

std::size_t DirectoryManager::replay_checkpoint(
    const std::vector<WalRecord>& records) {
  auto kind_of = [](std::uint8_t ns) {
    return ns == 1 ? RoundKind::kInvalidate : RoundKind::kFetch;
  };

  for (const auto& w : records) {
    switch (w.kind) {
      case WalKind::kRegister: {
        ViewRecord& rec = views_[w.view];
        rec.id = w.view;
        rec.cache_addr = net::Address{w.node, w.port};
        describe(rec, w.name, w.properties, w.mode, w.validity,
                 reparse_validity(w.validity));
        // Conservative restart state: nothing is active or exclusive
        // until the view re-announces (RebuildReply) or re-syncs.
        rec.active = false;
        rec.exclusive = false;
        rec.last_seen_at = fabric_.now();
        rec.incarnation = w.req == 0 ? 1 : w.req;
        next_view_id_ = std::max(next_view_id_, w.view + 1);
        break;
      }
      case WalKind::kDeregister:
        if (auto it = views_.find(w.view); it != views_.end()) drop_view(it);
        break;
      case WalKind::kModeChange:
        if (auto* rec = find(w.view); rec != nullptr) rec->mode = w.mode;
        break;
      case WalKind::kRoundOpen:
        archive(kind_of(w.ns)).file(w.round).target_props[w.view] =
            w.properties;
        break;
      case WalKind::kRoundMerge:
        // Creates the slot if kRoundOpen never made it to disk (revived
        // rounds): the exactly-once marker must survive regardless.
        archive(kind_of(w.ns)).file(w.round).merged.insert(w.view);
        break;
      case WalKind::kOpMerged:
        merged_ops_.file(MergedOpKey{w.node, w.port, w.req});
        break;
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
  snap.reserve(views_.size() + merged_ops_.size());
  for (const auto& [id, rec] : views_) {
    (void)id;
    snap.push_back(register_record(rec));
  }
  // Every round ledger: the settled-round archive in insertion order,
  // so replay reconstructs the same eviction order, then the open
  // rounds, which replay files in the archive as a log that was never
  // compacted would (fetch rounds by token, then the invalidation).
  auto snap_ledger = [&](RoundKind kind, std::uint64_t round,
                         const RoundLedger& ledger) {
    for (const auto& [view, props] : ledger.target_props) {
      snap.push_back(
          round_record(WalKind::kRoundOpen, kind, round, view, props));
    }
    for (const ViewId view : ledger.merged) {
      snap.push_back(round_record(WalKind::kRoundMerge, kind, round, view));
    }
  };
  for (const RoundKind kind : {RoundKind::kFetch, RoundKind::kInvalidate}) {
    archive(kind).for_each(
        [&](std::uint64_t round, const RoundLedger& ledger) {
          snap_ledger(kind, round, ledger);
        });
  }
  for (const auto& [token, r] : fetch_rounds_) {
    snap_ledger(RoundKind::kFetch, token, r.ledger);
  }
  if (invalidation_.has_value()) {
    snap_ledger(RoundKind::kInvalidate, invalidation_->id,
                invalidation_->ledger);
  }
  merged_ops_.for_each([&](const MergedOpKey& key, std::monostate) {
    snap.push_back(op_record(key));
  });
  stats_.inc("recovery.compactions");
  cfg_.durability->compact(snap);
}

void DirectoryManager::start_rebuild() {
  rebuilding_ = true;
  rebuild_awaiting_.clear();
  for (const auto& [id, rec] : views_) {
    rebuild_awaiting_.insert(id);
    stats_.inc("recovery.probe.sent");
    send_probe(rec, obs::EventKind::kMsgSent);
  }
  rebuild_resends_left_ = cfg_.command_retries;
  // A plain (non-daemon) timer: the rebuild window must hold the sim
  // open until it closes, even when no other work is scheduled yet.
  rebuild_timer_ = fabric_.schedule(self_, kRebuildWindow, [this] {
    rebuild_timer_ = net::kInvalidTimerId;
    finish_rebuild();
  });
  arm_rebuild_resend();
}

void DirectoryManager::arm_rebuild_resend() {
  if (!rebuilding_ || rebuild_resends_left_ == 0) return;
  const sim::Duration interval = std::max<sim::Duration>(
      1, kRebuildWindow /
             static_cast<sim::Duration>(cfg_.command_retries + 1));
  rebuild_resend_timer_ = fabric_.schedule(self_, interval, [this] {
    rebuild_resend_timer_ = net::kInvalidTimerId;
    if (!rebuilding_ || rebuild_resends_left_ == 0) return;
    --rebuild_resends_left_;
    for (const ViewId id : rebuild_awaiting_) {
      const auto* rec = find(id);
      if (rec == nullptr) continue;
      stats_.inc("recovery.probe.retry");
      send_probe(*rec, obs::EventKind::kMsgRetransmitted);
    }
    arm_rebuild_resend();
  });
}

void DirectoryManager::send_probe(const ViewRecord& rec,
                                  [[maybe_unused]] obs::EventKind event) {
  FLECC_TRACE_EVENT(cfg_.trace, fabric_.now(), event, obs::Role::kDirectory,
                    obs::agent_key(self_), 0, msg::kDirectoryRebuild,
                    generation_, rec.id);
  send(rec.cache_addr, msg::kDirectoryRebuild,
       msg::DirectoryRebuild{rec.id, generation_});
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
  describe(*rec, rep.view_name, rep.properties, rep.mode,
           rep.validity_trigger, reparse_validity(rep.validity_trigger));
  rec->active = rep.active;
  rec->exclusive = rep.exclusive;
  rec->last_sync = version_;
  wal_append(register_record(*rec));  // fresh checkpoint entry
  stats_.inc("recovery.reannounced");
  process_echoes(rep.echoes);
  rebuild_awaiting_.erase(rep.view);
  if (rebuild_awaiting_.empty()) finish_rebuild();
}

void DirectoryManager::finish_rebuild() {
  if (!rebuilding_) return;
  rebuilding_ = false;
  cancel(rebuild_timer_);
  cancel(rebuild_resend_timer_);
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
                    "rebuilt", generation_,
                    stats_.get("recovery.reannounced"));
  start_next_acquire();
}

}  // namespace flecc::core

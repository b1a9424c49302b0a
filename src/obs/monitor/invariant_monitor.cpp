#include "obs/monitor/invariant_monitor.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace flecc::obs::monitor {

namespace {

// Wire-type labels carried by msg_sent/msg_received events. Literal
// mirrors of core/messages.hpp — the monitor stays below the core
// layer on purpose (flecc_check links only flecc_obs), and the strings
// are part of the stable trace format; monitor_protocol_test pins them
// against the real protocol.
constexpr const char* kPushUpdate = "flecc.push_update";
constexpr const char* kKillReq = "flecc.kill_req";
constexpr const char* kRegisterReq = "flecc.register_req";
constexpr const char* kInvalidateAck = "flecc.invalidate_ack";
constexpr const char* kFetchReply = "flecc.fetch_reply";
constexpr const char* kInvalidateReq = "flecc.invalidate_req";
constexpr const char* kAcquireGrant = "flecc.acquire_grant";

bool is(const char* label, const char* name) {
  return std::strcmp(label, name) == 0;
}

/// How often the op-age watchdog sweeps the pending-op table; a sweep
/// is O(pending), so amortize it instead of paying it per event.
constexpr std::uint64_t kAgeSweepPeriod = 1024;

/// Warn when a cache manager's unacked-heartbeat streak reaches this.
constexpr std::uint64_t kHeartbeatWarnStreak = 3;

/// The monitor's own findings: not protocol facts, but a replayed trace
/// may carry them and the summary counts them.
bool is_finding(EventKind kind) noexcept {
  return kind == EventKind::kInvariantViolation ||
         kind == EventKind::kMonitorWarning;
}

constexpr std::size_t idx(Invariant inv) noexcept {
  return static_cast<std::size_t>(inv);
}

const char* metric_slug(Invariant inv) noexcept {
  switch (inv) {
    case Invariant::kExclusivity: return "i1";
    case Invariant::kExactlyOnceMerge: return "i2";
    case Invariant::kNoLostUpdate: return "i3";
    case Invariant::kModeQuiescence: return "i4";
    case Invariant::kCausality: return "causality";
  }
  return "unknown";
}

}  // namespace

const char* to_string(Invariant inv) noexcept {
  switch (inv) {
    case Invariant::kExclusivity: return "I1.exclusivity";
    case Invariant::kExactlyOnceMerge: return "I2.exactly_once_merge";
    case Invariant::kNoLostUpdate: return "I3.no_lost_update";
    case Invariant::kModeQuiescence: return "I4.mode_quiescence";
    case Invariant::kCausality: return "causality";
  }
  return "unknown";
}

InvariantMonitor::InvariantMonitor(Config cfg) : cfg_(cfg) {}

void InvariantMonitor::on_event(const TraceEvent& e) {
  // Feedback prevention: the monitor's own findings (possibly emitted
  // into a buffer this monitor is attached to) are not protocol facts.
  // Checked before the lock so a same-thread feedback emit cannot
  // deadlock either.
  if (is_finding(e.kind)) return;
  std::lock_guard<std::mutex> lock(mu_);
  process(e);
}

void InvariantMonitor::run(const std::vector<TraceEvent>& events) {
  for (const auto& e : events) {
    std::lock_guard<std::mutex> lock(mu_);
    process(e);
  }
  finalize();
}

void InvariantMonitor::process(const TraceEvent& e) {
  tally(e);
  if (is_finding(e.kind)) return;
  ++events_seen_;
  if (e.at > last_at_) last_at_ = e.at;

  // Causality: a Lamport stamp never moves backwards within one agent
  // (each agent is the single writer of its buffer, so its events
  // reach the sink in emission order). Stamp 0 means "no clock"
  // (fabric drop events, FLECC_TRACE=OFF senders, old traces) — skip.
  if (e.clock != 0) {
    AgentState& st = agent(e.agent);
    ++checks_[idx(Invariant::kCausality)];
    if (e.clock < st.last_clock) {
      std::ostringstream d;
      d << "Lamport clock regressed at agent " << e.agent << ": "
        << e.clock << " after " << st.last_clock;
      violation(Invariant::kCausality, e, e.span, d.str());
    } else {
      st.last_clock = e.clock;
    }
  }

  // Crash-recovery bookkeeping is role-independent: msg_fenced is
  // emitted by both endpoints, and the recovery_begin/end pair frames
  // an epoch all shadow state must respect.
  switch (e.kind) {
    case EventKind::kRecoveryBegin:
      begin_recovery(e);
      break;
    case EventKind::kRecoveryEnd:
      end_recovery(e);
      break;
    default:
      break;
  }

  switch (e.role) {
    case Role::kCacheManager:
      on_cm_event(e);
      break;
    case Role::kDirectory:
      on_dm_event(e);
      break;
    case Role::kFabric:
    case Role::kOther:
      break;
  }

  // Liveness watchdog: ops pending too long (amortized sweep).
  if (cfg_.max_op_age > 0 && (events_seen_ % kAgeSweepPeriod) == 0) {
    for (auto& [span, op] : pending_) {
      if (!op.age_warned && last_at_ - op.started_at > cfg_.max_op_age) {
        op.age_warned = true;
        std::ostringstream d;
        d << "op '" << op.label << "' pending for "
          << (last_at_ - op.started_at) << " us";
        Finding f{Invariant::kCausality, last_at_, op.agent, span, d.str()};
        warnings_.push_back(f);
        emit_finding(EventKind::kMonitorWarning, f);
      }
    }
  }
}

void InvariantMonitor::tally(const TraceEvent& e) {
  TraceSummary& s = summary_;
  if (s.total_events == 0 || e.at < s.first_at) s.first_at = e.at;
  if (s.total_events == 0 || e.at > s.last_at) s.last_at = e.at;
  ++s.total_events;
  switch (e.kind) {
    case EventKind::kOpEnqueued: ++s.ops_enqueued; break;
    case EventKind::kOpStarted: ++s.ops_started; break;
    case EventKind::kOpCompleted: ++s.ops_completed; break;
    case EventKind::kMsgSent: ++s.msgs_sent; break;
    case EventKind::kMsgReceived: ++s.msgs_received; break;
    case EventKind::kMsgDropped:
      ++s.drops;
      ++s.drops_by_reason[drop_reason_name(e.a)];
      break;
    case EventKind::kMsgRetransmitted: ++s.retransmits; break;
    case EventKind::kDedupHit: ++s.dedup_hits; break;
    case EventKind::kHeartbeatMiss: ++s.heartbeat_misses; break;
    case EventKind::kViewEvicted: ++s.evictions; break;
    case EventKind::kTriggerFired: ++s.trigger_fires[e.label]; break;
    case EventKind::kMergeApplied: ++s.merges; break;
    case EventKind::kModeSwitch: ++s.mode_switches; break;
    case EventKind::kInvariantViolation: ++s.invariant_violations; break;
    case EventKind::kMonitorWarning: ++s.monitor_warnings; break;
    case EventKind::kMsgFenced: ++s.fenced_messages; break;
    case EventKind::kLoadShed: ++s.load_sheds; break;
    case EventKind::kBreakerTransition: ++s.breaker_transitions; break;
    case EventKind::kRetryExhausted: ++s.retries_exhausted; break;
    case EventKind::kAlertRaised: ++s.alerts_raised; break;
    case EventKind::kAlertCleared: ++s.alerts_cleared; break;
    default: break;  // epochs and replays: counted where they are paired
  }
}

void InvariantMonitor::on_cm_event(const TraceEvent& e) {
  AgentState& st = agent(e.agent);
  switch (e.kind) {
    case EventKind::kOpEnqueued: {
      // A pull requested while the view is still (observably) weak may
      // legitimately drain after the strong switch ack — FIFO order.
      if (is(e.label, "pull") && !st.strong) ++st.weak_pull_credits;
      break;
    }

    case EventKind::kOpStarted: {
      if (e.a != 0) {
        st.view = e.a;
        view_agent_[e.a] = e.agent;
      }
      PendingOp& op = pending_[e.span];
      op.label = e.label;
      op.started_at = e.at;
      op.agent = e.agent;
      break;
    }

    case EventKind::kMsgSent:
    case EventKind::kMsgRetransmitted: {
      if (e.span != 0) {
        auto it = pending_.find(e.span);
        if (it != pending_.end() && it->second.first_send_clock == 0 &&
            e.clock != 0) {
          it->second.first_send_clock = e.clock;
        }
      }
      if ((is(e.label, kPushUpdate) || is(e.label, kKillReq)) && e.b == 1 &&
          e.span != 0) {
        // b=1: the op carries an extracted dirty image, keyed by span.
        record_extraction(kNsSpan, 0, e.span, e);
      } else if (is(e.label, kInvalidateAck)) {
        // Acking an invalidation surrenders the copy — the view is no
        // longer an exclusive holder whatever the ack carries.
        if (st.view != 0) holders_.erase(st.view);
        if (e.b == 1 && st.view != 0) {
          record_extraction(kNsInvalidate, e.a, st.view, e);
        }
      } else if (is(e.label, kFetchReply) && e.b == 1 && st.view != 0) {
        record_extraction(kNsFetch, e.a, st.view, e);
      } else if (is(e.label, kRegisterReq)) {
        // (Re)registration invalidates the previous incarnation's copy.
        if (st.view != 0) holders_.erase(st.view);
      }
      break;
    }

    case EventKind::kOpCompleted: {
      auto it = pending_.find(e.span);
      const bool known = it != pending_.end();
      if (known) {
        summary_.op_latency_us[it->second.label].add(
            static_cast<double>(e.at - it->second.started_at));
        // Causality: the completion observes the directory's reply, so
        // its stamp must be past the directory's first span event.
        if (e.clock != 0 && it->second.first_dm_clock != 0) {
          ++checks_[idx(Invariant::kCausality)];
          if (e.clock <= it->second.first_dm_clock) {
            std::ostringstream d;
            d << "op '" << it->second.label << "' completed at clock "
              << e.clock << ", not after the directory's span clock "
              << it->second.first_dm_clock;
            violation(Invariant::kCausality, e, e.span, d.str());
          }
        }
      }
      const char* label = known ? it->second.label.c_str() : e.label;

      // I4: a completed pull is a weak-mode grant; it must not be
      // REQUESTED while the view is in STRONG mode (reads there
      // require an acquire — a pull delivers data without
      // exclusivity). Pulls already queued when the switch ack landed
      // drain legitimately (weak_pull_credits); a pull with no
      // weak-mode enqueue on record was issued after the switch.
      if (is(label, "pull")) {
        ++checks_[idx(Invariant::kModeQuiescence)];
        if (st.weak_pull_credits > 0) {
          --st.weak_pull_credits;
        } else if (st.strong) {
          std::ostringstream d;
          d << "weak-mode pull for view " << st.view
            << " issued while in STRONG mode (causally after the switch ack)";
          violation(Invariant::kModeQuiescence, e, e.span, d.str());
        }
      }

      // I3: a completed push/kill confirmed the unconfirmed-echo
      // snapshot taken when the op was issued — every dirty extraction
      // this agent made before that point must have merged by now.
      if ((is(label, "push") || is(label, "kill")) && known) {
        const sim::Time issued = it->second.started_at;
        for (auto& [key, ex] : extractions_) {
          if (ex.agent != e.agent || ex.merges != 0 || ex.reported) continue;
          if (ex.at >= issued) continue;  // made after the echo snapshot
          // A pre-restart extraction's echo may still be settling
          // through the directory's revive path; only finalize() can
          // judge it. Same-epoch extractions get the strict check.
          if (ex.epoch != epoch_) continue;
          // A push/kill image whose own op is still pending is not
          // lost — the op carries it and is still retrying (ops can
          // reorder across a directory-restart reconnect, so a later
          // op may complete first). finalize() judges abandoned ones.
          if (std::get<0>(key) == kNsSpan &&
              pending_.count(std::get<2>(key)) != 0) {
            continue;
          }
          ex.reported = true;
          std::ostringstream d;
          d << "dirty extraction from view " << ex.view << " ("
            << (std::get<0>(key) == kNsFetch
                    ? "fetch round "
                    : std::get<0>(key) == kNsInvalidate ? "invalidate epoch "
                                                        : "op span ")
            << (std::get<0>(key) == kNsSpan ? std::get<2>(key)
                                            : std::get<1>(key))
            << ") never merged, though a later " << label
            << " completed and should have carried its echo";
          if (evicted_views_.count(ex.view) != 0) {
            warning(e, e.span, d.str() + " (view evicted — discarded)");
          } else {
            violation(Invariant::kNoLostUpdate, e, e.span, d.str());
          }
        }
      }

      if (is(label, "init") || is(label, "pull") || is(label, "acquire") ||
          is(label, "push")) {
        st.last_sync_at = e.at;
      }
      if (known) pending_.erase(it);
      break;
    }

    case EventKind::kModeSwitch: {
      // Entering strong invalidates the copy; leaving strong
      // surrenders exclusivity. Either way the view stops holding.
      st.strong = is(e.label, "strong");
      if (st.view != 0) holders_.erase(st.view);
      break;
    }

    case EventKind::kJournalReplay: {
      // A cache manager restarted and replayed its write-ahead journal
      // (a = view, b = replayed strong intents). Its re-issued pushes
      // reuse the pre-crash (address, req) spans, so the extraction
      // ledger and the directory's merged-ops dedup line up — nothing
      // to reset here, just account for it.
      ++summary_.journal_replays;
      summary_.journal_replayed += e.b;
      if (e.a != 0) {
        st.view = e.a;
        view_agent_[e.a] = e.agent;
      }
      break;
    }

    case EventKind::kHeartbeatMiss: {
      const std::uint64_t streak = e.a;
      if (streak >= kHeartbeatWarnStreak &&
          st.hb_streak < kHeartbeatWarnStreak) {
        std::ostringstream d;
        d << "view " << st.view << ": " << streak
          << " consecutive unacked heartbeats";
        warning(e, 0, d.str());
      }
      st.hb_streak = streak;
      break;
    }

    default:
      break;
  }
}

void InvariantMonitor::on_dm_event(const TraceEvent& e) {
  if (e.span != 0) check_span_causality(e);

  switch (e.kind) {
    case EventKind::kMsgSent:
    case EventKind::kMsgRetransmitted: {
      if (is(e.label, kInvalidateReq)) {
        // b = target view: the directory is doing its invalidation
        // duty for this holder before the next grant.
        auto it = holders_.find(e.b);
        if (it != holders_.end()) it->second.invalidated_since_grant = true;
      } else if (is(e.label, kAcquireGrant)) {
        auto pit = pending_.find(e.span);
        const std::uint64_t requester =
            pit != pending_.end() ? agent(pit->second.agent).view : 0;
        if (requester != 0) {
          ++checks_[idx(Invariant::kExclusivity)];
          for (const auto& [view, holder] : holders_) {
            if (view == requester || holder.invalidated_since_grant) {
              continue;
            }
            std::ostringstream d;
            d << "grant to view " << requester << " while view " << view
              << " (granted at " << holder.granted_at
              << " us) still holds a copy the directory never asked to"
              << " invalidate";
            violation(Invariant::kExclusivity, e, e.span, d.str());
          }
          // The grant settles the round: previous holders either acked,
          // were evicted, or timed out (presumed crashed).
          holders_.clear();
          holders_[requester] = Holder{false, e.at};
        }
      }
      break;
    }

    case EventKind::kMergeApplied: {
      ++checks_[idx(Invariant::kExactlyOnceMerge)];
      ExtractKey key{};
      bool keyed = true;
      if (is(e.label, "push") || is(e.label, "kill")) {
        if (e.span == 0) keyed = false;  // unframed op: no identity
        key = {kNsSpan, 0, e.span};
      } else if (is(e.label, "migrate")) {
        // Handoff delta merged at the directory under the source's
        // (address, handoff req) span — the same span a journal-replayed
        // push of that delta uses, so the ledger dedups the two paths.
        if (e.span == 0) keyed = false;
        key = {kNsSpan, 0, e.span};
      } else if (is(e.label, "fetch") || is(e.label, "late_fetch") ||
                 is(e.label, "echo.fetch")) {
        key = {kNsFetch, e.a, e.b};
      } else if (is(e.label, "invalidate") || is(e.label, "late_invalidate") ||
                 is(e.label, "echo.invalidate")) {
        key = {kNsInvalidate, e.a, e.b};
      } else {
        keyed = false;  // pre-monitor trace without merge-path labels
      }
      if (!keyed) break;

      auto [it, inserted] = extractions_.try_emplace(key);
      Extraction& ex = it->second;
      if (inserted) {
        // Merge whose extraction event we never saw (ring-truncated or
        // partial trace): track it so a second merge still trips I2,
        // but it cannot support an I3/causality verdict.
        ex.at = e.at;
        ex.view = e.b;
        ex.reported = true;
        ex.merges = 1;
        ex.epoch = epoch_;
        break;
      }
      if (ex.merges >= 1) {
        std::ostringstream d;
        d << "extraction from view " << ex.view << " (path '" << e.label
          << "', round " << e.a << ", span " << e.span << ") merged "
          << (ex.merges + 1) << " times";
        violation(Invariant::kExactlyOnceMerge, e, e.span, d.str());
      } else if (ex.clock != 0 && e.clock != 0) {
        ++checks_[idx(Invariant::kCausality)];
        if (e.clock <= ex.clock) {
          std::ostringstream d;
          d << "merge (path '" << e.label << "') at clock " << e.clock
            << " not causally after its extraction at clock " << ex.clock;
          violation(Invariant::kCausality, e, e.span, d.str());
        }
      }
      ++ex.merges;
      break;
    }

    case EventKind::kViewEvicted: {
      evicted_views_.insert(e.a);
      holders_.erase(e.a);
      break;
    }

    case EventKind::kMigrateBegin: {
      begin_migration(e);
      break;
    }

    case EventKind::kMigrateDone: {
      end_migration(e, /*aborted=*/false);
      break;
    }

    case EventKind::kMigrateAborted: {
      end_migration(e, /*aborted=*/true);
      break;
    }

    case EventKind::kModeSwitch: {
      // b = view. Leaving strong surrenders exclusivity directory-side.
      if (is(e.label, "weak")) holders_.erase(e.b);
      break;
    }

    default:
      break;
  }
}

void InvariantMonitor::record_extraction(std::uint8_t ns, std::uint64_t round,
                                         std::uint64_t id,
                                         const TraceEvent& e) {
  auto [it, inserted] =
      extractions_.try_emplace(ExtractKey{ns, round, id});
  if (!inserted) return;  // retransmission re-sends the same extraction
  ++checks_[idx(Invariant::kNoLostUpdate)];
  Extraction& ex = it->second;
  ex.at = e.at;
  ex.agent = e.agent;
  ex.view = agent(e.agent).view;
  ex.clock = e.clock;
  ex.epoch = epoch_;
}

void InvariantMonitor::begin_recovery(const TraceEvent& e) {
  // a = generation, b = checkpoint entries replayed.
  ++epoch_;
  ++summary_.recovery_epochs;
  summary_.wal_replayed += e.b;
  last_recovery_at_ = std::max(last_recovery_at_, e.at);
  open_recoveries_[e.a] = e.at;
  summary_.recovery_unresolved = open_recoveries_.size();
  // The restarted directory holds no grant state; exclusivity is
  // re-established by the rebuild round, so pre-crash holders cannot
  // support an I1 verdict against post-restart grants.
  holders_.clear();
  // An extraction that merged pre-crash may legally merge once more:
  // if the crash ate the WAL record of the merge (checkpoint lag), the
  // revived round replays the echo and the directory re-applies it.
  // Grant one re-merge per epoch — a second merge within the new epoch
  // still trips I2. reported=true exempts it from I3/finalize (it
  // already merged; a replay is optional).
  for (auto& [key, ex] : extractions_) {
    if (ex.merges >= 1) {
      ex.merges = 0;
      ex.reported = true;
    }
  }
}

void InvariantMonitor::end_recovery(const TraceEvent& e) {
  // a = generation, b = views re-announced.
  summary_.reannouncements += e.b;
  auto it = open_recoveries_.find(e.a);
  if (it == open_recoveries_.end()) return;
  summary_.rebuild_duration_us.add(static_cast<double>(e.at - it->second));
  open_recoveries_.erase(it);
  summary_.recovery_unresolved = open_recoveries_.size();
}

void InvariantMonitor::begin_migration(const TraceEvent& e) {
  // a = view, b = migration epoch.
  ++summary_.migration_epochs;
  open_migrations_[e.b] = OpenMigration{e.a, e.at};
  summary_.migration_unresolved = open_migrations_.size();
}

void InvariantMonitor::end_migration(const TraceEvent& e, bool aborted) {
  // a = view, b = migration epoch. One legal ownership transfer per
  // epoch: a migrate_done for an epoch that already settled — whether
  // it completed or aborted — means the directory rebound the same
  // view twice under one epoch, i.e. two components both believe they
  // own the view.
  const std::uint64_t epoch = e.b;
  auto closed = closed_migrations_.find(epoch);
  if (closed != closed_migrations_.end()) {
    if (!aborted) {
      std::ostringstream d;
      d << "second ownership transfer for migration epoch " << epoch
        << " (view " << e.a << "): epoch already settled as "
        << (closed->second ? "aborted" : "done");
      violation(Invariant::kExclusivity, e, 0, d.str());
    }
    return;  // duplicate abort is harmless (resent Done{aborted})
  }
  auto it = open_migrations_.find(epoch);
  if (it != open_migrations_.end()) {
    summary_.migration_duration_us.add(
        static_cast<double>(e.at - it->second.began));
    open_migrations_.erase(it);
    summary_.migration_unresolved = open_migrations_.size();
  }
  closed_migrations_[epoch] = aborted;
  if (aborted) {
    ++summary_.migrations_aborted;
  } else {
    ++checks_[idx(Invariant::kExclusivity)];
    // Ownership moved: the source surrendered its copy with the
    // handoff, so it can no longer support an I1 verdict as a holder.
    // The destination re-establishes holding via its own grants.
    holders_.erase(e.a);
  }
}

void InvariantMonitor::check_span_causality(const TraceEvent& e) {
  auto it = pending_.find(e.span);
  if (it == pending_.end()) return;
  PendingOp& op = it->second;
  if (e.clock == 0) return;
  if (op.first_dm_clock == 0) op.first_dm_clock = e.clock;
  if (op.first_send_clock != 0) {
    ++checks_[idx(Invariant::kCausality)];
    if (e.clock <= op.first_send_clock) {
      std::ostringstream d;
      d << "directory event for span " << e.span << " at clock " << e.clock
        << " not causally after the requester's first send at clock "
        << op.first_send_clock;
      violation(Invariant::kCausality, e, e.span, d.str());
    }
  }
}

void InvariantMonitor::violation(Invariant inv, const TraceEvent& e,
                                 std::uint64_t span, std::string detail) {
  ++fails_[idx(inv)];
  Finding f{inv, e.at, e.agent, span, std::move(detail)};
  violations_.push_back(f);
  emit_finding(EventKind::kInvariantViolation, f);
}

void InvariantMonitor::warning(const TraceEvent& e, std::uint64_t span,
                               std::string detail) {
  Finding f{Invariant::kCausality, e.at, e.agent, span, std::move(detail)};
  warnings_.push_back(f);
  emit_finding(EventKind::kMonitorWarning, f);
}

void InvariantMonitor::emit_finding(EventKind kind, const Finding& f) {
  if (cfg_.out == nullptr) return;
  cfg_.out->emit(make_event(f.at, kind, Role::kOther, f.agent, f.span,
                            kind == EventKind::kInvariantViolation
                                ? to_string(f.invariant)
                                : "monitor",
                            static_cast<std::uint64_t>(f.invariant)));
}

void InvariantMonitor::finalize() {
  std::lock_guard<std::mutex> lock(mu_);
  if (finalized_) return;
  finalized_ = true;

  for (auto& [key, ex] : extractions_) {
    if (ex.merges != 0 || ex.reported) continue;
    ex.reported = true;
    std::ostringstream d;
    d << "dirty extraction from view " << ex.view
      << " unmerged at end of trace";
    if (evicted_views_.count(ex.view) != 0) d << " (view evicted)";
    Finding f{Invariant::kNoLostUpdate, last_at_, ex.agent, 0, d.str()};
    warnings_.push_back(f);
    emit_finding(EventKind::kMonitorWarning, f);
  }

  for (const auto& [gen, began] : open_recoveries_) {
    std::ostringstream d;
    d << "directory recovery (generation " << gen << ", began at " << began
      << " us) never completed — trace ends mid-rebuild";
    Finding f{Invariant::kCausality, last_at_, 0, 0, d.str()};
    warnings_.push_back(f);
    emit_finding(EventKind::kMonitorWarning, f);
  }

  for (const auto& [epoch, mig] : open_migrations_) {
    std::ostringstream d;
    d << "migration epoch " << epoch << " (view " << mig.view
      << ", began at " << mig.began
      << " us) never settled — trace ends mid-handoff";
    Finding f{Invariant::kCausality, last_at_, 0, 0, d.str()};
    warnings_.push_back(f);
    emit_finding(EventKind::kMonitorWarning, f);
  }

  for (auto& [span, op] : pending_) {
    // Ops open across a directory restart were re-issued under the new
    // generation (a fresh span): casualties of the restart, not lost.
    if (summary_.recovery_epochs != 0 && op.started_at <= last_recovery_at_) {
      ++summary_.ops_unfinished_recovery;
    } else {
      ++summary_.ops_unfinished;
    }
    if (cfg_.max_op_age > 0 && !op.age_warned &&
        last_at_ - op.started_at > cfg_.max_op_age) {
      op.age_warned = true;
      std::ostringstream d;
      d << "op '" << op.label << "' still pending after "
        << (last_at_ - op.started_at) << " us at end of trace";
      Finding f{Invariant::kCausality, last_at_, op.agent, span, d.str()};
      warnings_.push_back(f);
      emit_finding(EventKind::kMonitorWarning, f);
    }
  }
}

std::uint64_t InvariantMonitor::unresolved_recovery_epochs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return summary_.recovery_unresolved;
}

std::uint64_t InvariantMonitor::unresolved_migration_epochs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return summary_.migration_unresolved;
}

std::uint64_t InvariantMonitor::violation_count(Invariant inv) const {
  std::lock_guard<std::mutex> lock(mu_);
  return fails_[idx(inv)];
}

std::uint64_t InvariantMonitor::check_count(Invariant inv) const {
  std::lock_guard<std::mutex> lock(mu_);
  return checks_[idx(inv)];
}

std::string InvariantMonitor::health_report() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "invariant monitor: " << events_seen_ << " events, "
      << agents_.size() << " agents\n";
  constexpr Invariant kAll[] = {
      Invariant::kExclusivity, Invariant::kExactlyOnceMerge,
      Invariant::kNoLostUpdate, Invariant::kModeQuiescence,
      Invariant::kCausality};
  for (const Invariant inv : kAll) {
    char row[96];
    std::snprintf(row, sizeof(row), "  %-24s checks=%-8llu violations=%llu\n",
                  to_string(inv),
                  static_cast<unsigned long long>(checks_[idx(inv)]),
                  static_cast<unsigned long long>(fails_[idx(inv)]));
    out << row;
  }
  out << "  warnings: " << warnings_.size() << "\n";
  const TraceSummary& s = summary_;
  if (s.recovery_epochs != 0 || s.fenced_messages != 0) {
    out << "  recovery: epochs=" << s.recovery_epochs
        << " unresolved=" << s.recovery_unresolved
        << " fenced=" << s.fenced_messages << "\n";
  }
  if (s.migration_epochs != 0 || s.journal_replays != 0) {
    out << "  migration: epochs=" << s.migration_epochs
        << " aborted=" << s.migrations_aborted
        << " unresolved=" << s.migration_unresolved
        << " journal_replays=" << s.journal_replays << "\n";
  }
  const std::size_t kShow = 5;
  for (std::size_t i = 0; i < violations_.size() && i < kShow; ++i) {
    const Finding& f = violations_[i];
    out << "  VIOLATION [" << to_string(f.invariant) << "] t=" << f.at
        << " span=" << f.span << ": " << f.detail << "\n";
  }
  if (violations_.size() > kShow) {
    out << "  ... " << (violations_.size() - kShow) << " more\n";
  }
  for (std::size_t i = 0; i < warnings_.size() && i < 3; ++i) {
    const Finding& f = warnings_[i];
    out << "  warning t=" << f.at << ": " << f.detail << "\n";
  }
  if (warnings_.size() > 3) {
    out << "  ... " << (warnings_.size() - 3) << " more warnings\n";
  }
  out << (violations_.empty()
              ? "monitor: PASS"
              : "monitor: " + std::to_string(violations_.size()) +
                    " violation(s)")
      << "\n";
  return out.str();
}

void InvariantMonitor::export_metrics(MetricsRegistry& reg) const {
  std::lock_guard<std::mutex> lock(mu_);
  reg.inc("monitor.events", events_seen_);
  reg.inc("monitor.agents", agents_.size());
  constexpr Invariant kAll[] = {
      Invariant::kExclusivity, Invariant::kExactlyOnceMerge,
      Invariant::kNoLostUpdate, Invariant::kModeQuiescence,
      Invariant::kCausality};
  for (const Invariant inv : kAll) {
    const std::string base = std::string("monitor.") + metric_slug(inv);
    reg.inc(base + ".checks", checks_[idx(inv)]);
    reg.inc(base + ".violations", fails_[idx(inv)]);
  }
  reg.inc("monitor.violations", violations_.size());
  reg.inc("monitor.warnings", warnings_.size());
  const TraceSummary& s = summary_;
  reg.inc("monitor.recovery.epochs", s.recovery_epochs);
  reg.inc("monitor.recovery.unresolved", s.recovery_unresolved);
  reg.inc("monitor.recovery.fenced", s.fenced_messages);
  for (const double v : s.rebuild_duration_us.samples()) {
    reg.observe("monitor.recovery.rebuild_us", v);
  }
  reg.inc("monitor.migration.epochs", s.migration_epochs);
  reg.inc("monitor.migration.aborted", s.migrations_aborted);
  reg.inc("monitor.migration.unresolved", s.migration_unresolved);
  reg.inc("monitor.journal.replays", s.journal_replays);
  reg.inc("monitor.journal.replayed_intents", s.journal_replayed);
  for (const double v : s.migration_duration_us.samples()) {
    reg.observe("monitor.migration.duration_us", v);
  }
  for (const auto& [label, lat] : s.op_latency_us) {
    for (const double v : lat.samples()) {
      reg.observe("monitor.op.latency_us." + label, v);
    }
  }
  // Per-view staleness gauge: time since the view's copy last synced
  // with the primary (init/pull/acquire completion or acked push),
  // measured against the newest event in the trace.
  for (const auto& [key, st] : agents_) {
    if (st.last_sync_at == 0) continue;
    reg.observe("monitor.view.staleness_us",
                static_cast<double>(last_at_ - st.last_sync_at));
  }
  reg.inc("monitor.views.tracked", view_agent_.size());
}

}  // namespace flecc::obs::monitor

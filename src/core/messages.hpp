// The Flecc wire protocol between cache managers and the directory
// manager (paper §4.2, Figure 2).
//
// Each payload struct travels as a net::Message whose `type` is the
// matching tag below; tags are what the traffic counters aggregate by.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/object_image.hpp"
#include "core/types.hpp"
#include "net/message.hpp"
#include "props/property.hpp"
#include "sim/time.hpp"

namespace flecc::core::msg {

// ---- type tags --------------------------------------------------------
inline constexpr const char* kRegisterReq = "flecc.register_req";
inline constexpr const char* kRegisterAck = "flecc.register_ack";
inline constexpr const char* kInitReq = "flecc.init_req";
inline constexpr const char* kInitReply = "flecc.init_reply";
inline constexpr const char* kPullReq = "flecc.pull_req";
inline constexpr const char* kPullReply = "flecc.pull_reply";
inline constexpr const char* kPushUpdate = "flecc.push_update";
inline constexpr const char* kPushAck = "flecc.push_ack";
inline constexpr const char* kAcquireReq = "flecc.acquire_req";
inline constexpr const char* kAcquireGrant = "flecc.acquire_grant";
inline constexpr const char* kInvalidateReq = "flecc.invalidate_req";
inline constexpr const char* kInvalidateAck = "flecc.invalidate_ack";
inline constexpr const char* kFetchReq = "flecc.fetch_req";
inline constexpr const char* kFetchReply = "flecc.fetch_reply";
inline constexpr const char* kModeChangeReq = "flecc.mode_change_req";
inline constexpr const char* kModeChangeAck = "flecc.mode_change_ack";
inline constexpr const char* kKillReq = "flecc.kill_req";
inline constexpr const char* kKillAck = "flecc.kill_ack";
inline constexpr const char* kUpdateNotify = "flecc.update_notify";
inline constexpr const char* kHeartbeat = "flecc.heartbeat";
inline constexpr const char* kHeartbeatAck = "flecc.heartbeat_ack";
inline constexpr const char* kOpNack = "flecc.op_nack";
inline constexpr const char* kBusy = "flecc.busy";
inline constexpr const char* kDirectoryRebuild = "flecc.rebuild_probe";
inline constexpr const char* kRebuildReply = "flecc.rebuild_reply";
inline constexpr const char* kViewMoveReq = "flecc.view_move_req";
inline constexpr const char* kHandoffState = "flecc.handoff_state";
inline constexpr const char* kViewMoveInstall = "flecc.view_move_install";
inline constexpr const char* kViewMoveAck = "flecc.view_move_ack";
inline constexpr const char* kViewMoveDone = "flecc.view_move_done";

// ---- request-id framing ------------------------------------------------
//
// Every cache-manager request carries a per-manager monotonically
// increasing request id `req`, echoed verbatim in the reply. The id is
// the idempotency key of the reliability layer (PROTOCOL.md, "Fault
// model"): the cache manager retransmits a timed-out request with the
// same id, and the directory's per-address dedup window replays the
// original reply instead of re-executing. `req == 0` means "unframed"
// (legacy senders / hand-forged test messages) and bypasses both the
// dedup window and reply matching. The id travels inside the 32-byte
// message header (kHeaderBytes), so framing adds no wire bytes.
//
// ---- generation fencing ------------------------------------------------
//
// Every payload also carries `gen`, the directory incarnation number
// (PROTOCOL.md, "Directory crash-recovery"). The directory bumps its
// generation on every restart (persisted through the DurabilityStore);
// cache managers learn the current value from any directory message and
// stamp it on everything they send. A message whose non-zero `gen`
// differs from the receiver's current generation is *stale* — sent
// before a crash (or to a pre-crash incarnation) — and is fenced:
// rejected and counted rather than applied to the rebuilt state.
// `gen == 0` means "unknown" (first contact, legacy traffic) and is
// never fenced. Like `req`, the generation travels inside the header.

// ---- payloads ---------------------------------------------------------

/// View registration (Figure 2, step 2). Carries all the
/// application-specific information of §4.1: the property list, the
/// mode, and the three trigger sources (empty string = absent).
struct RegisterReq {
  std::string view_name;  // component type, e.g. "air.TravelAgent"
  props::PropertySet properties;
  Mode mode = Mode::kWeak;
  std::string push_trigger;
  std::string pull_trigger;
  std::string validity_trigger;
  /// Non-zero = this is a journal-replaying restart of an earlier view:
  /// the directory rebinds the surviving record (same view id) instead
  /// of minting a fresh one (PROTOCOL.md, "View migration & CM
  /// journaling"). 0 = fresh registration.
  ViewId resume_view = kInvalidViewId;
  /// Monotonic per-view life number. A resume whose incarnation is not
  /// strictly greater than the recorded one is a stale retransmit from
  /// a dead life and is fenced.
  std::uint64_t incarnation = 1;
  std::uint64_t req = 0;
  std::uint64_t gen = 0;
};

/// Registration outcome: the assigned view id, or a rejection reason.
struct RegisterAck {
  ViewId view = kInvalidViewId;
  bool accepted = false;
  std::string reason;  // on rejection: why
  std::uint64_t req = 0;
  std::uint64_t gen = 0;
};

/// Initial data request (Figure 2, steps 3-5).
struct InitReq {
  ViewId view = kInvalidViewId;
  std::uint64_t req = 0;
  std::uint64_t gen = 0;
};
/// The view's first image, scoped to its registered properties.
struct InitReply {
  ObjectImage image;
  std::uint64_t req = 0;
  std::uint64_t gen = 0;
};

/// Weak-mode refresh. `intent` supports the read/write-semantics
/// extension (§6): read-only pulls never trigger demand fetches.
struct PullReq {
  ViewId view = kInvalidViewId;
  AccessIntent intent = AccessIntent::kReadWrite;
  std::uint64_t req = 0;
  std::uint64_t gen = 0;
};
/// Fresh image for a pull, after any validity-triggered demand fetches.
struct PullReply {
  ObjectImage image;
  /// Remote updates the view had not seen before this pull (quality).
  std::uint64_t unseen_before = 0;
  std::uint64_t req = 0;
  std::uint64_t gen = 0;
};

/// A dirty image extracted for a FetchReply or InvalidateAck whose
/// delivery was never confirmed (those replies are fire-and-forget).
/// The cache manager echoes it on its next reliable message
/// (PushUpdate/KillReq) until acked; the directory merges each echo at
/// most once, keyed by the originating round.
struct DeltaEcho {
  std::uint64_t round = 0;   // fetch token or invalidate epoch
  bool invalidate = false;   // selects the round-id namespace
  ViewId view = kInvalidViewId;
  ObjectImage image;
};

/// Update propagation view → primary.
struct PushUpdate {
  ViewId view = kInvalidViewId;
  ObjectImage image;
  std::uint64_t req = 0;
  std::uint64_t gen = 0;
  /// Unconfirmed fetch/invalidate images riding along (empty when the
  /// network has been lossless).
  std::vector<DeltaEcho> echoes;
};
/// Confirms a PushUpdate (and its echoes) merged at the primary.
struct PushAck {
  Version version = 0;
  std::uint64_t req = 0;
  std::uint64_t gen = 0;
};

/// Strong-mode activation (the directory serializes conflicting views).
struct AcquireReq {
  ViewId view = kInvalidViewId;
  AccessIntent intent = AccessIntent::kReadWrite;
  std::uint64_t req = 0;
  std::uint64_t gen = 0;
};
/// Grants strong-mode use: conflicting views have been invalidated and
/// their dirty state merged into the carried image.
struct AcquireGrant {
  ObjectImage image;
  std::uint64_t req = 0;
  std::uint64_t gen = 0;
};

/// Directory → cache: stop working, surrender updates (Fig. 2 step 12).
struct InvalidateReq {
  std::uint64_t epoch = 0;
  std::uint64_t gen = 0;
};
/// Surrender for an InvalidateReq: the view's final state for this
/// epoch (fire-and-forget; recovered via DeltaEcho if lost).
struct InvalidateAck {
  ViewId view = kInvalidViewId;
  std::uint64_t epoch = 0;
  ObjectImage image;  // final extracted state (empty if clean)
  bool dirty = false;
  std::uint64_t gen = 0;
};

/// Directory → cache: demand fetch for a validity-triggered pull.
struct FetchReq {
  std::uint64_t token = 0;
  std::uint64_t gen = 0;
};
/// Extraction for a FetchReq round (fire-and-forget; recovered via
/// DeltaEcho if lost).
struct FetchReply {
  ViewId view = kInvalidViewId;
  std::uint64_t token = 0;
  ObjectImage image;
  bool dirty = false;
  std::uint64_t gen = 0;
};

/// Run-time consistency-level change (§4, "Flecc allows views to ...
/// switch between the strong and weak modes of operation").
struct ModeChangeReq {
  ViewId view = kInvalidViewId;
  Mode mode = Mode::kWeak;
  std::uint64_t req = 0;
  std::uint64_t gen = 0;
};
/// Confirms the directory now treats the view under the new mode.
struct ModeChangeAck {
  Mode mode = Mode::kWeak;
  std::uint64_t req = 0;
  std::uint64_t gen = 0;
};

/// Teardown (Figure 2, steps 20-21). Carries the final update image so
/// no separate push round trip is needed.
struct KillReq {
  ViewId view = kInvalidViewId;
  ObjectImage final_image;
  bool dirty = false;
  std::uint64_t req = 0;
  std::uint64_t gen = 0;
  /// As in PushUpdate: last chance to land unconfirmed reply images.
  std::vector<DeltaEcho> echoes;
};
/// Confirms teardown: the view is deregistered and its image merged.
struct KillAck {
  std::uint64_t req = 0;
  std::uint64_t gen = 0;
};

/// Optional notification to conflicting views that the primary advanced
/// (off by default; enabled for the notification ablation).
struct UpdateNotify {
  Version version = 0;
  std::uint64_t gen = 0;
};

/// Liveness ping, cache manager -> directory, on a daemon timer.
struct Heartbeat {
  ViewId view = kInvalidViewId;
  std::uint64_t seq = 0;
  std::uint64_t gen = 0;
};
/// `known == false` tells the sender its registration is gone (evicted
/// or the directory restarted): reconnect immediately.
struct HeartbeatAck {
  ViewId view = kInvalidViewId;
  std::uint64_t seq = 0;
  bool known = true;
  std::uint64_t gen = 0;
};

/// Directory -> cache: the request referenced an unknown view (stale
/// registration). Never cached in the dedup window - re-executing after
/// the cache manager reconnects is the intended recovery.
struct OpNack {
  ViewId view = kInvalidViewId;
  std::string reason;
  std::uint64_t req = 0;
  std::uint64_t gen = 0;
};

/// Overload shed (PROTOCOL.md "Flow control & overload"): the request
/// was refused by directory admission control or a bounded fabric
/// queue — retry no earlier than `retry_after`. Sent by the directory
/// (gen == its generation) or synthesized by a fabric on behalf of an
/// overloaded destination (gen == 0, never fenced). Never cached in
/// the dedup window: by definition the request did not execute, and
/// re-executing it later is the intended recovery. Unlike OpNack, a
/// Busy does NOT mean the registration is stale — the receiver backs
/// off instead of reconnecting.
struct Busy {
  ViewId view = kInvalidViewId;
  std::string reason;
  sim::Duration retry_after = 0;
  std::uint64_t req = 0;
  std::uint64_t gen = 0;
};

/// Directory -> cache, after a restart: "I am generation `gen`, my
/// checkpoint says you are view `view` — re-announce yourself."
/// Retransmitted within the rebuild window until answered; cache
/// managers that never answer are dropped when the window closes (they
/// reconnect through the heartbeat `known == false` path).
struct DirectoryRebuild {
  ViewId view = kInvalidViewId;
  std::uint64_t gen = 0;
};

/// A surviving cache manager's re-announcement: everything the rebuilt
/// directory needs to restore the view's record without consensus —
/// registration data, current mode, cache flags, and any unconfirmed
/// extraction images (echoes) from before the crash. Idempotent at the
/// directory; the probe's retransmissions cover reply loss.
struct RebuildReply {
  ViewId view = kInvalidViewId;
  std::string view_name;
  props::PropertySet properties;
  Mode mode = Mode::kWeak;
  std::string push_trigger;
  std::string pull_trigger;
  std::string validity_trigger;
  bool active = false;     // currently using the image (strong grant)
  bool exclusive = false;
  bool dirty = false;      // unpushed local updates exist
  std::vector<DeltaEcho> echoes;
  std::uint64_t gen = 0;
};

/// Directory -> source cache, opening a live view migration (PROTOCOL.md
/// "View migration & CM journaling"): quiesce the view and hand its
/// state off under migration epoch `epoch`. Retransmitted until the
/// HandoffState arrives or the migration aborts.
struct ViewMoveReq {
  ViewId view = kInvalidViewId;
  std::uint64_t epoch = 0;
  std::uint64_t gen = 0;
};

/// Source cache -> directory: the sealed view's serialized state. The
/// dirty write-buffer delta travels as `delta` under the source's own
/// request id, so the directory merges it exactly once (the same
/// `(address, req)` key guards a journal-replayed push after an abort
/// or a source crash). Unconfirmed extraction images ride along as
/// echoes, exactly as on PushUpdate/KillReq. Retransmitted until a
/// ViewMoveDone settles the outcome.
struct HandoffState {
  ViewId view = kInvalidViewId;
  std::uint64_t epoch = 0;
  Mode mode = Mode::kWeak;
  bool exclusive = false;
  bool dirty = false;
  ObjectImage delta;  // unmerged write-buffer state (empty if clean)
  std::vector<DeltaEcho> echoes;
  std::uint64_t req = 0;
  std::uint64_t gen = 0;
};

/// Directory -> destination cache: adopt the migrating view. Carries the
/// registration identity plus a fresh primary extraction, so the
/// destination starts valid without a separate pull. Retransmitted
/// until acked; the destination replays the ack idempotently per epoch.
struct ViewMoveInstall {
  ViewId view = kInvalidViewId;
  std::uint64_t epoch = 0;
  std::string view_name;
  props::PropertySet properties;
  Mode mode = Mode::kWeak;
  std::string validity_trigger;
  bool exclusive = false;
  ObjectImage image;  // fresh primary extraction, versioned
  std::uint64_t gen = 0;
};

/// Destination cache -> directory: the view is installed and serving;
/// rebind the directory record atomically.
struct ViewMoveAck {
  ViewId view = kInvalidViewId;
  std::uint64_t epoch = 0;
  std::uint64_t gen = 0;
};

/// Directory -> source (and, on abort, destination): the migration's
/// outcome. `aborted == false` releases the source (its state now lives
/// at the destination); `aborted == true` tells the source to resume —
/// re-pushing its handoff delta is safe because the directory's
/// exactly-once key absorbs the duplicate if the handoff already
/// merged. Sent to the destination only on abort, to uninstall a view
/// whose ack never arrived.
struct ViewMoveDone {
  ViewId view = kInvalidViewId;
  std::uint64_t epoch = 0;
  bool aborted = false;
  std::uint64_t gen = 0;
};

// ---- header reader -----------------------------------------------------

/// The fields both state machines read before dispatching a message:
/// the generation stamp, the request id of a framed cache-manager
/// request, and the view the payload names.
struct Header {
  /// kInvalidViewId for payloads that name no view.
  ViewId view = kInvalidViewId;
  /// Non-zero only for the seven framed cache-manager requests
  /// (RegisterReq, InitReq, PullReq, PushUpdate, AcquireReq,
  /// ModeChangeReq, KillReq). Replies, commands and HandoffState read
  /// as 0; the directory keys a handoff's merge by its own `req`.
  std::uint64_t req = 0;
  /// 0 for unstamped payloads and for non-Flecc messages.
  std::uint64_t gen = 0;
};

/// Read the header of any message. Tags are compared in traffic order,
/// demand fetches and pulls first, so the commonest messages cost the
/// fewest string compares.
Header header_of(const net::Message& m);

// ---- wire-size estimation ---------------------------------------------

/// Simulated serialized size of a property set.
std::size_t wire_size(const props::PropertySet& ps);

inline constexpr std::size_t kHeaderBytes = 32;  // ids, type tag, framing

inline std::size_t wire_size(const RegisterReq& m) {
  return kHeaderBytes + m.view_name.size() + wire_size(m.properties) +
         m.push_trigger.size() + m.pull_trigger.size() +
         m.validity_trigger.size();
}
inline std::size_t wire_size(const RegisterAck& m) {
  return kHeaderBytes + m.reason.size();
}
inline std::size_t wire_size(const InitReq&) { return kHeaderBytes; }
inline std::size_t wire_size(const InitReply& m) {
  return kHeaderBytes + m.image.wire_size();
}
inline std::size_t wire_size(const PullReq&) { return kHeaderBytes; }
inline std::size_t wire_size(const PullReply& m) {
  return kHeaderBytes + m.image.wire_size();
}
inline std::size_t wire_size(const DeltaEcho& e) {
  return 16 + e.image.wire_size();  // round id + flags + view id
}
inline std::size_t echoes_wire_size(const std::vector<DeltaEcho>& es) {
  std::size_t total = 0;
  for (const auto& e : es) total += wire_size(e);
  return total;
}
inline std::size_t wire_size(const PushUpdate& m) {
  return kHeaderBytes + m.image.wire_size() + echoes_wire_size(m.echoes);
}
inline std::size_t wire_size(const PushAck&) { return kHeaderBytes; }
inline std::size_t wire_size(const AcquireReq&) { return kHeaderBytes; }
inline std::size_t wire_size(const AcquireGrant& m) {
  return kHeaderBytes + m.image.wire_size();
}
inline std::size_t wire_size(const InvalidateReq&) { return kHeaderBytes; }
inline std::size_t wire_size(const InvalidateAck& m) {
  return kHeaderBytes + m.image.wire_size();
}
inline std::size_t wire_size(const FetchReq&) { return kHeaderBytes; }
inline std::size_t wire_size(const FetchReply& m) {
  return kHeaderBytes + m.image.wire_size();
}
inline std::size_t wire_size(const ModeChangeReq&) { return kHeaderBytes; }
inline std::size_t wire_size(const ModeChangeAck&) { return kHeaderBytes; }
inline std::size_t wire_size(const KillReq& m) {
  return kHeaderBytes + m.final_image.wire_size() +
         echoes_wire_size(m.echoes);
}
inline std::size_t wire_size(const KillAck&) { return kHeaderBytes; }
inline std::size_t wire_size(const UpdateNotify&) { return kHeaderBytes; }
inline std::size_t wire_size(const Heartbeat&) { return kHeaderBytes; }
inline std::size_t wire_size(const HeartbeatAck&) { return kHeaderBytes; }
inline std::size_t wire_size(const OpNack& m) {
  return kHeaderBytes + m.reason.size();
}
inline std::size_t wire_size(const Busy& m) {
  return kHeaderBytes + m.reason.size();
}
inline std::size_t wire_size(const DirectoryRebuild&) { return kHeaderBytes; }
inline std::size_t wire_size(const RebuildReply& m) {
  return kHeaderBytes + m.view_name.size() + wire_size(m.properties) +
         m.push_trigger.size() + m.pull_trigger.size() +
         m.validity_trigger.size() + echoes_wire_size(m.echoes);
}
inline std::size_t wire_size(const ViewMoveReq&) { return kHeaderBytes; }
inline std::size_t wire_size(const HandoffState& m) {
  return kHeaderBytes + m.delta.wire_size() + echoes_wire_size(m.echoes);
}
inline std::size_t wire_size(const ViewMoveInstall& m) {
  return kHeaderBytes + m.view_name.size() + wire_size(m.properties) +
         m.validity_trigger.size() + m.image.wire_size();
}
inline std::size_t wire_size(const ViewMoveAck&) { return kHeaderBytes; }
inline std::size_t wire_size(const ViewMoveDone&) { return kHeaderBytes; }

}  // namespace flecc::core::msg

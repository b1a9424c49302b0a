#include "core/messages.hpp"

namespace flecc::core::msg {

namespace {

/// The header of payload T; `req` only when T is a framed request.
template <typename T, bool kFramed = false>
Header read(const net::Message& m) {
  const T& p = net::payload_as<T>(m);
  Header h;
  h.gen = p.gen;
  if constexpr (requires { p.view; }) h.view = p.view;
  if constexpr (kFramed) h.req = p.req;
  return h;
}

/// Marks a framed cache-manager request.
constexpr bool kRequest = true;

}  // namespace

Header header_of(const net::Message& m) {
  const std::string& t = m.type;
  if (t == kFetchReq) return read<FetchReq>(m);
  if (t == kFetchReply) return read<FetchReply>(m);
  if (t == kPullReq) return read<PullReq, kRequest>(m);
  if (t == kPullReply) return read<PullReply>(m);
  if (t == kPushUpdate) return read<PushUpdate, kRequest>(m);
  if (t == kPushAck) return read<PushAck>(m);
  if (t == kInvalidateReq) return read<InvalidateReq>(m);
  if (t == kInvalidateAck) return read<InvalidateAck>(m);
  if (t == kAcquireReq) return read<AcquireReq, kRequest>(m);
  if (t == kAcquireGrant) return read<AcquireGrant>(m);
  if (t == kHeartbeat) return read<Heartbeat>(m);
  if (t == kHeartbeatAck) return read<HeartbeatAck>(m);
  if (t == kInitReq) return read<InitReq, kRequest>(m);
  if (t == kInitReply) return read<InitReply>(m);
  if (t == kModeChangeReq) return read<ModeChangeReq, kRequest>(m);
  if (t == kModeChangeAck) return read<ModeChangeAck>(m);
  if (t == kKillReq) return read<KillReq, kRequest>(m);
  if (t == kKillAck) return read<KillAck>(m);
  if (t == kRegisterReq) return read<RegisterReq, kRequest>(m);
  if (t == kRegisterAck) return read<RegisterAck>(m);
  if (t == kUpdateNotify) return read<UpdateNotify>(m);
  if (t == kOpNack) return read<OpNack>(m);
  if (t == kBusy) return read<Busy>(m);
  if (t == kDirectoryRebuild) return read<DirectoryRebuild>(m);
  if (t == kRebuildReply) return read<RebuildReply>(m);
  if (t == kViewMoveReq) return read<ViewMoveReq>(m);
  if (t == kHandoffState) return read<HandoffState>(m);
  if (t == kViewMoveInstall) return read<ViewMoveInstall>(m);
  if (t == kViewMoveAck) return read<ViewMoveAck>(m);
  if (t == kViewMoveDone) return read<ViewMoveDone>(m);
  return {};
}

std::size_t wire_size(const props::PropertySet& ps) {
  std::size_t bytes = 4;  // count
  for (const auto& [name, dom] : ps) {
    bytes += name.size() + 2;
    if (dom.is_interval()) {
      bytes += 16;
    } else {
      bytes += 2;
      for (const auto& v : dom.as_discrete()) {
        if (const auto* s = std::get_if<std::string>(&v)) {
          bytes += s->size() + 2;
        } else {
          bytes += 8;
        }
      }
    }
  }
  return bytes;
}

}  // namespace flecc::core::msg

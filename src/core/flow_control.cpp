#include "core/flow_control.hpp"

#include <utility>

#include "core/messages.hpp"
#include "net/message.hpp"

namespace flecc::core::flow {

bool is_control_lane(std::string_view type) noexcept {
  // Bulk = the four load-generating requests; everything else (acks,
  // replies, grants, heartbeats, invalidations, fetches, recovery,
  // nacks, Busy, mode changes, registration, non-Flecc frames) rides
  // the control lane and is never shed.
  return !(type == msg::kInitReq || type == msg::kPullReq ||
           type == msg::kPushUpdate || type == msg::kAcquireReq);
}

namespace {

net::BusyReply make_busy(const net::Message& shed, sim::Duration retry_after) {
  // Only a bulk request can be answered: its (view, req) lets the
  // sender match the Busy against its in-flight op. Anything else is
  // shed silently (counted).
  if (is_control_lane(shed.type)) return {};
  const msg::Header h = msg::header_of(shed);
  msg::Busy busy;
  busy.view = h.view;
  busy.req = h.req;
  busy.reason = "queue overflow";
  busy.retry_after = retry_after;
  busy.gen = 0;  // fabric-synthesized: no incarnation claim, never fenced

  net::BusyReply reply;
  reply.type = msg::kBusy;
  reply.bytes = msg::wire_size(busy);
  reply.payload = std::move(busy);
  return reply;
}

}  // namespace

net::FlowControl make_fabric_flow(net::FlowControl bounds) {
  bounds.is_control = [](std::string_view type) {
    return is_control_lane(type);
  };
  bounds.make_busy = [](const net::Message& shed, sim::Duration retry_after) {
    return make_busy(shed, retry_after);
  };
  return bounds;
}

}  // namespace flecc::core::flow

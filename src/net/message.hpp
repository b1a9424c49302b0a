// Typed, size-annotated messages.
//
// Payloads are type-erased (`std::any`); receivers cast to the concrete
// protocol struct. `type` is a dotted tag ("flecc.pull_req") used for
// counting and tracing; `bytes` is the simulated wire size used for
// transmission-delay modeling.
#pragma once

#include <any>
#include <cstdint>
#include <string>

#include "net/address.hpp"
#include "net/pool.hpp"

namespace flecc::net {

struct Message {
  std::uint64_t id = 0;
  Address from;
  Address to;
  std::string type;
  std::any payload;
  std::size_t bytes = 0;
  /// Sender's Lamport clock at send time (obs causal tracing); 0 when
  /// the sender has no clock registered (an untraced endpoint).
  /// Metadata only — protocol FSMs never read it.
  std::uint64_t clock = 0;
};

/// Cast a message payload to its concrete protocol struct. Senders may
/// box the struct by value or hand over a pooled PoolPtr<T> handle
/// (message pooling, see net/pool.hpp) — receivers see the same const
/// reference either way. Throws std::bad_any_cast on a genuine type
/// mismatch (a protocol bug).
template <typename T>
const T& payload_as(const Message& m) {
  if (const auto* pooled = std::any_cast<PoolPtr<T>>(&m.payload)) {
    return **pooled;
  }
  return std::any_cast<const T&>(m.payload);
}

}  // namespace flecc::net

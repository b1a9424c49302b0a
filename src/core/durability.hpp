// Durable checkpoint/WAL for the directory manager's recoverable state
// (PROTOCOL.md, "Directory crash-recovery").
//
// The directory appends one WalRecord per state transition it must
// survive a crash with: view registrations and deregistrations, mode
// changes, fetch/invalidate round openings and merges (the settled-round
// archive), and merged push/kill request ids (the idempotency markers).
// On restart it replays load() into a fresh in-memory state, bumps the
// generation, and runs the CM-assisted rebuild round on top.
//
// The store also owns the directory *generation* — the incarnation
// counter behind generation fencing. set_generation() is durable
// immediately (a tiny superblock write), so even a store whose WAL tail
// was lost to a crash remembers which incarnations existed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/object_image.hpp"
#include "core/types.hpp"
#include "props/property.hpp"

namespace flecc::core {

/// What a WAL record describes.
enum class WalKind : std::uint8_t {
  kRegister,    // view registered / re-announced: full registration data
  kDeregister,  // view killed, superseded, or liveness-evicted
  kModeChange,  // view switched consistency mode
  kRoundOpen,   // fetch/invalidate round opened against one target view
  kRoundMerge,  // that target's extraction merged (exactly-once marker)
  kOpMerged,    // a dirty push/kill request merged (idempotency marker)
  // Cache-manager journal kinds (PROTOCOL.md, "View migration & CM
  // journaling"): the same store interface, written by a CacheManager.
  kCmBind,      // registered/installed under view + incarnation (req)
  kCmWrite,     // cumulative write-buffer snapshot after an absorb
  kCmIntent,    // a dirty push/kill/handoff issued under request id req
  kCmFlush,     // that request id was acked: the intent is durable
  kCmReq,       // request-id ceiling promise: ids below req may be used
};

/// One append-only log entry. Which fields are meaningful depends on
/// `kind`; unused fields keep their defaults.
struct WalRecord {
  WalKind kind = WalKind::kRegister;
  ViewId view = kInvalidViewId;
  /// Cache-manager address (kRegister, kOpMerged).
  std::uint32_t node = 0;
  std::uint32_t port = 0;
  /// View name (kRegister).
  std::string name;
  /// Registered properties (kRegister) or the round's property snapshot
  /// for the target view (kRoundOpen): the view's shared, immutable set.
  props::SharedPropertySet properties;
  Mode mode = Mode::kWeak;  // kRegister, kModeChange
  /// Validity-trigger source (kRegister; empty = none).
  std::string validity;
  /// Round namespace: 0 = fetch token, 1 = invalidate epoch.
  std::uint8_t ns = 0;
  std::uint64_t round = 0;  // kRoundOpen, kRoundMerge
  std::uint64_t req = 0;    // kOpMerged: the merged request id
  /// Journaled delta (kCmWrite: cumulative pending snapshot; kCmIntent:
  /// the extracted op image). Empty for directory-side kinds.
  ObjectImage image;
};

/// Where the directory persists its recoverable state. Implementations
/// must keep append order; load() returns records in that order.
class DurabilityStore {
 public:
  virtual ~DurabilityStore() = default;

  /// Append one record. May buffer; only flush() makes it crash-proof.
  virtual void append(const WalRecord& rec) = 0;
  /// Make all buffered appends durable.
  virtual void flush() = 0;
  /// All durable records, oldest first. Opening the store for replay —
  /// a clean (non-crash) restart sees buffered appends too.
  [[nodiscard]] virtual std::vector<WalRecord> load() = 0;
  /// Replace the whole log with a compacted snapshot (durable at once).
  virtual void compact(const std::vector<WalRecord>& snapshot) = 0;

  /// Durably record the directory incarnation (independent of the WAL
  /// tail: survives even when buffered appends are lost).
  virtual void set_generation(std::uint64_t gen) = 0;
  [[nodiscard]] virtual std::uint64_t generation() const = 0;

  /// Records currently in the log (durable + buffered).
  [[nodiscard]] virtual std::size_t entry_count() const = 0;
};

/// In-memory store for tests and deterministic chaos runs. Checkpoint
/// lag is modeled in appends: records become durable every
/// `flush_every` appends (1 = every append, i.e. no lag), and crash()
/// drops whatever was still buffered.
class MemoryDurabilityStore final : public DurabilityStore {
 public:
  explicit MemoryDurabilityStore(std::size_t flush_every = 1)
      : flush_every_(flush_every == 0 ? 1 : flush_every) {}

  void append(const WalRecord& rec) override;
  void flush() override;
  [[nodiscard]] std::vector<WalRecord> load() override;
  void compact(const std::vector<WalRecord>& snapshot) override;
  void set_generation(std::uint64_t gen) override { generation_ = gen; }
  [[nodiscard]] std::uint64_t generation() const override {
    return generation_;
  }
  [[nodiscard]] std::size_t entry_count() const override {
    return durable_.size() + buffered_.size();
  }

  /// Simulate the host crashing: buffered (unflushed) appends are lost.
  void crash() { buffered_.clear(); }
  /// Simulate checkpoint loss: every record is gone but the generation
  /// superblock survives (the pure CM-assisted-rebuild scenario).
  void drop_all() {
    durable_.clear();
    buffered_.clear();
  }

  [[nodiscard]] std::size_t compactions() const noexcept {
    return compactions_;
  }

 private:
  std::size_t flush_every_;
  std::vector<WalRecord> durable_;
  std::vector<WalRecord> buffered_;
  std::uint64_t generation_ = 0;
  std::size_t compactions_ = 0;
};

}  // namespace flecc::core

#include "core/durability.hpp"

namespace flecc::core {

void MemoryDurabilityStore::append(const WalRecord& rec) {
  buffered_.push_back(rec);
  if (buffered_.size() >= flush_every_) flush();
}

void MemoryDurabilityStore::flush() {
  durable_.insert(durable_.end(), buffered_.begin(), buffered_.end());
  buffered_.clear();
}

std::vector<WalRecord> MemoryDurabilityStore::load() {
  flush();  // a clean (non-crash) reopen sees buffered appends
  return durable_;
}

void MemoryDurabilityStore::compact(const std::vector<WalRecord>& snapshot) {
  durable_ = snapshot;
  buffered_.clear();
  ++compactions_;
}

}  // namespace flecc::core

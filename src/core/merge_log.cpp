#include "core/merge_log.hpp"

#include <algorithm>

namespace flecc::core {

void MergeLog::VersionList::compact() {
  v_.erase(v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(head_));
  head_ = 0;
}

void MergeLog::VersionList::pop_front() {
  if (++head_ * 2 >= v_.size()) compact();
}

void MergeLog::VersionList::merge_in(const VersionList& other) {
  compact();
  const std::size_t mine = v_.size();
  v_.resize(mine + static_cast<std::size_t>(other.end() - other.begin()));
  // Merge from the back, so the output never overtakes unread input.
  Version* out = v_.data() + v_.size();
  Version* a = v_.data() + mine;
  const Version* b = other.end();
  while (b != other.begin()) {
    *--out = (a != v_.data() && *(a - 1) > *(b - 1)) ? *--a : *--b;
  }
}

const Version* MergeLog::VersionList::after(Version since) const {
  return std::upper_bound(begin(), end(), since);
}

void MergeLog::record(MergeRecord r) {
  by_source_[r.source].push_back(r.version);
  records_.push_back(std::move(r));
}

void MergeLog::retire(ViewId source) {
  auto it = by_source_.find(source);
  if (it == by_source_.end()) return;
  departed_.merge_in(it->second);
  by_source_.erase(it);
}

std::uint64_t MergeLog::unseen_from(ViewId source, Version since) const {
  auto it = by_source_.find(source);
  if (it == by_source_.end()) return 0;
  return static_cast<std::uint64_t>(it->second.end() -
                                    it->second.after(since));
}

std::uint64_t MergeLog::unseen_departed(const props::PropertySet& viewer_props,
                                        Version since) const {
  std::uint64_t n = 0;
  auto rec = records_.begin();
  for (const Version* v = departed_.after(since); v != departed_.end(); ++v) {
    rec = std::lower_bound(
        rec, records_.end(), *v,
        [](const MergeRecord& r, Version x) { return r.version < x; });
    if (rec->touched->conflicts_with(viewer_props)) ++n;
  }
  return n;
}

std::size_t MergeLog::prune_below(Version floor) {
  std::size_t pruned = 0;
  while (!records_.empty() && records_.front().version <= floor) {
    const MergeRecord& r = records_.front();
    // Every record sits in exactly one index, at its front.
    auto it = by_source_.find(r.source);
    if (it != by_source_.end() && !it->second.empty() &&
        it->second.front() == r.version) {
      it->second.pop_front();
    } else {
      departed_.pop_front();
    }
    records_.pop_front();
    ++pruned;
  }
  return pruned;
}

}  // namespace flecc::core

// The directory's record of merges into the primary copy, from which
// the data-quality metric of the paper's evaluation is computed:
// quality(v) = number of *remote unseen updates* — merges newer than
// v's last sync, originating from a different view whose data actually
// conflicts with v's (paper §5.2, Figures 5 and 6).
//
// Besides the version-ordered records, the log keeps a per-source
// version index, so the directory counts one conflicting source's
// unseen merges by binary search instead of walking the log. Records
// whose source has left (retire()) move to one departed index and are
// judged by the property set they carry, the one their source was
// registered with (shared, not copied).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/types.hpp"
#include "props/property.hpp"

namespace flecc::core {

struct MergeRecord {
  Version version = 0;
  ViewId source = kInvalidViewId;  // kInvalidViewId = direct primary write
  props::SharedPropertySet touched;  // properties covered by the merge
};

class MergeLog {
 public:
  /// Append a record (versions strictly increasing), indexed under its
  /// source.
  void record(MergeRecord r);

  /// `source` is not (or no longer) a registered view: its records move
  /// to the departed index, where unseen_departed() counts them.
  void retire(ViewId source);

  /// Records from the non-retired `source` newer than `since`.
  [[nodiscard]] std::uint64_t unseen_from(ViewId source, Version since) const;

  /// Records of retired sources newer than `since` whose touched
  /// properties conflict with `viewer_props`.
  [[nodiscard]] std::uint64_t unseen_departed(
      const props::PropertySet& viewer_props, Version since) const;

  /// Drop records with version <= floor (they are seen by every live
  /// view), from the log and its indexes. Returns the number pruned.
  std::size_t prune_below(Version floor);

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }
  [[nodiscard]] const std::deque<MergeRecord>& records() const noexcept {
    return records_;
  }

 private:
  /// Ascending versions with amortised O(1) pop_front. Compaction keeps
  /// the vector's capacity, so a list pruned as fast as it grows stops
  /// allocating (a std::deque would free and allocate a block every 64).
  class VersionList {
   public:
    void push_back(Version v) { v_.push_back(v); }
    void pop_front();
    /// Merge another ascending list in, keeping the order.
    void merge_in(const VersionList& other);
    [[nodiscard]] bool empty() const noexcept { return head_ == v_.size(); }
    [[nodiscard]] Version front() const { return v_[head_]; }
    [[nodiscard]] const Version* begin() const { return v_.data() + head_; }
    [[nodiscard]] const Version* end() const { return v_.data() + v_.size(); }
    /// First version newer than `since`.
    [[nodiscard]] const Version* after(Version since) const;

   private:
    void compact();

    std::vector<Version> v_;
    std::size_t head_ = 0;
  };

  std::deque<MergeRecord> records_;  // version-ordered (append-only)
  std::unordered_map<ViewId, VersionList> by_source_;
  VersionList departed_;
};

}  // namespace flecc::core

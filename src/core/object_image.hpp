// ObjectImage — the application-neutral unit of state transfer.
//
// Flecc never interprets application data; extract/merge functions map
// between the application's objects and this keyed integer container
// (paper §4.1, "Merge/Extract methods"); every adapter's state is
// counts. Images also serve as *deltas*: an application may extract
// only changed keys and merge them key-wise.
//
// Storage is a flat key-sorted vector rather than a node-based map: a
// whole image lives in one buffer (typical field keys fit the string
// SSO), so copying an image costs one allocation, copy-assigning into a
// pooled message slot reuses the slot's capacity (zero allocations in
// steady state — see net/pool.hpp), and iteration is cache-friendly.
// The trade is O(n) inserts for out-of-order keys; extract paths emit
// keys in sorted order, so building an image stays linear.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace flecc::core {

class ObjectImage {
 public:
  using Field = std::pair<std::string, std::int64_t>;

  ObjectImage() = default;

  void set_int(const std::string& key, std::int64_t v);

  [[nodiscard]] bool has(const std::string& key) const {
    return get_int(key).has_value();
  }
  [[nodiscard]] std::optional<std::int64_t> get_int(
      const std::string& key) const;

  bool erase(const std::string& key);

  [[nodiscard]] bool empty() const noexcept { return fields_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return fields_.size(); }

  /// Drop every field and the version, KEEPING the buffer capacity —
  /// pooled-slot reuse depends on this (never use to "free" an image).
  void clear() noexcept {
    fields_.clear();
    version_ = 0;
  }
  /// Pre-size the field buffer (extract paths that know their count).
  void reserve(std::size_t n) { fields_.reserve(n); }

  /// Key-wise overwrite: every field of `delta` replaces/creates the
  /// same field here. Returns the number of fields applied.
  std::size_t overlay(const ObjectImage& delta);

  /// The primary-assigned version this image reflects (0 = unversioned).
  [[nodiscard]] Version version() const noexcept { return version_; }
  void set_version(Version v) noexcept { version_ = v; }

  /// Simulated wire size: a 16-byte header plus, per field, the key,
  /// two length bytes and the 8-byte value.
  [[nodiscard]] std::size_t wire_size() const;

  [[nodiscard]] std::string to_string() const;

  /// Deterministic (key-sorted) iteration over Field pairs.
  [[nodiscard]] auto begin() const { return fields_.begin(); }
  [[nodiscard]] auto end() const { return fields_.end(); }

  friend bool operator==(const ObjectImage&, const ObjectImage&) = default;

 private:
  /// Sorted by key; invariant maintained by set_int()/erase().
  std::vector<Field> fields_;
  Version version_ = 0;
};

}  // namespace flecc::core

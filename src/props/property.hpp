// Properties and property sets (paper §4.1, Definitions 1–3).
//
// A property is a (name, domain) tuple. A PropertySet holds at most one
// property per name (the paper's uniqueness assumption). Two views
// conflict — dynConfl = 1 — iff the intersection of their property sets
// is non-empty, where set intersection collects all non-empty pairwise
// property intersections.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "props/domain.hpp"

namespace flecc::props {

/// A named domain: p = (name_p, D_p).
struct Property {
  std::string name;
  Domain domain;

  /// Definition 3: non-empty only when names match and domains overlap.
  [[nodiscard]] std::optional<Property> intersect(const Property& q) const;

  [[nodiscard]] std::string to_string() const {
    return name + "=" + domain.to_string();
  }
  friend bool operator==(const Property&, const Property&) = default;
};

/// A set of uniquely-named properties describing a view's shared data.
class PropertySet {
 public:
  PropertySet() = default;
  PropertySet(std::initializer_list<Property> props);

  /// Insert or replace the property with this name.
  void set(Property p);
  void set(std::string name, Domain d) { set(Property{std::move(name), std::move(d)}); }

  /// Remove a property; returns true if it existed.
  bool erase(const std::string& name);

  [[nodiscard]] bool has(const std::string& name) const {
    return by_name_.count(name) != 0;
  }
  /// Look up a property's domain; nullptr if absent.
  [[nodiscard]] const Domain* find(const std::string& name) const;

  [[nodiscard]] bool empty() const noexcept { return by_name_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return by_name_.size(); }

  /// Definition 2: all non-empty pairwise property intersections.
  [[nodiscard]] PropertySet intersect(const PropertySet& other) const;

  /// Definition 1: dynConfl — do the two sets share any data?
  /// Equivalent to !intersect(other).empty() but avoids building the
  /// intersection set.
  [[nodiscard]] bool conflicts_with(const PropertySet& other) const;

  /// True if every value of every property here is also covered by
  /// `other` (used to validate that a view's data is a subset of the
  /// original component's data, V_v ⊆ V_c).
  [[nodiscard]] bool subset_of(const PropertySet& other) const;

  [[nodiscard]] std::string to_string() const;

  /// Iteration (name-ordered, deterministic).
  [[nodiscard]] auto begin() const { return by_name_.begin(); }
  [[nodiscard]] auto end() const { return by_name_.end(); }

  friend bool operator==(const PropertySet&, const PropertySet&) = default;

 private:
  std::map<std::string, Domain> by_name_;
};

/// A registered view's property set: fixed for the life of the
/// registration, so every record that keeps it (merge records, round
/// snapshots, checkpoint records) holds this one immutable value instead
/// of a copy.
using SharedPropertySet = std::shared_ptr<const PropertySet>;

}  // namespace flecc::props

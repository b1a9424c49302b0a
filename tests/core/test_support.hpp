// Shared fixtures for protocol tests: a minimal cell-array application
// (primary + views) and a LAN harness wiring a directory manager with
// any number of cache managers over a deterministic SimFabric.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cache_manager.hpp"
#include "core/directory_manager.hpp"
#include "net/sim_fabric.hpp"
#include "sim/simulator.hpp"

namespace flecc::core::testing {

inline constexpr const char* kCellsProperty = "Cells";

inline std::string cell_key(std::int64_t i) {
  return "cell." + std::to_string(i);
}
inline std::string inc_key(std::int64_t i) {
  return "inc." + std::to_string(i);
}

inline props::PropertySet cells(std::int64_t lo, std::int64_t hi) {
  props::PropertySet ps;
  ps.set(kCellsProperty, props::Domain::interval(lo, hi));
  return ps;
}

/// The original component: an array of integer cells supporting
/// increments (deltas) and absolute writes.
class KvPrimary : public PrimaryAdapter {
 public:
  explicit KvPrimary(std::int64_t n) : n_(n) {
    for (std::int64_t i = 0; i < n; ++i) cells_[i] = 0;
  }

  [[nodiscard]] ObjectImage extract_from_object(
      const props::PropertySet& vpl) const override {
    ObjectImage img;
    const props::Domain* scope = vpl.find(kCellsProperty);
    for (const auto& [i, v] : cells_) {
      if (scope != nullptr && !scope->contains(props::Value{i})) continue;
      img.set_int(cell_key(i), v);
    }
    return img;
  }

  void merge_into_object(const ObjectImage& image,
                         const props::PropertySet& vpl) override {
    (void)vpl;
    ++merges_;
    for (const auto& [key, value] : image) {
      if (key.rfind("inc.", 0) == 0) {
        cells_[std::stoll(key.substr(4))] += value;
      } else if (key.rfind("cell.", 0) == 0) {
        // Monotone (max) state merge, mirroring the airline database's
        // raise_reserved: makes state-based gossip convergent.
        auto& cell = cells_[std::stoll(key.substr(5))];
        cell = std::max(cell, value);
      }
    }
  }

  [[nodiscard]] props::PropertySet data_properties() const override {
    return cells(0, n_ - 1);
  }

  [[nodiscard]] std::int64_t cell(std::int64_t i) const {
    auto it = cells_.find(i);
    return it == cells_.end() ? 0 : it->second;
  }
  [[nodiscard]] std::int64_t total() const {
    std::int64_t t = 0;
    for (const auto& [i, v] : cells_) {
      (void)i;
      t += v;
    }
    return t;
  }
  [[nodiscard]] std::size_t merges() const noexcept { return merges_; }

 private:
  std::int64_t n_;
  std::map<std::int64_t, std::int64_t> cells_;
  std::size_t merges_ = 0;
};

/// A view over a cell range: local base + pending increments.
class KvView : public ViewAdapter {
 public:
  KvView(std::int64_t lo, std::int64_t hi) : lo_(lo), hi_(hi) {}

  void increment(std::int64_t i, std::int64_t by = 1) {
    pending_[i] += by;
    vars_.set("pendingOps",
              vars_.lookup("pendingOps").value_or(0.0) + 1.0);
  }

  [[nodiscard]] std::int64_t base(std::int64_t i) const {
    auto it = base_.find(i);
    return it == base_.end() ? 0 : it->second;
  }
  [[nodiscard]] std::int64_t value(std::int64_t i) const {
    auto it = pending_.find(i);
    return base(i) + (it == pending_.end() ? 0 : it->second);
  }

  [[nodiscard]] props::PropertySet properties() const {
    return cells(lo_, hi_);
  }

  [[nodiscard]] ObjectImage extract_from_view(
      const props::PropertySet& vpl) override {
    (void)vpl;
    ++extracts_;
    ObjectImage img;
    for (const auto& [i, d] : pending_) {
      if (d != 0) img.set_int(inc_key(i), d);
    }
    pending_.clear();
    vars_.set("pendingOps", 0.0);
    return img;
  }

  void merge_into_view(const ObjectImage& image,
                       const props::PropertySet& vpl) override {
    (void)vpl;
    ++merges_;
    for (const auto& [key, value] : image) {
      if (key.rfind("cell.", 0) == 0) base_[std::stoll(key.substr(5))] = value;
    }
  }

  /// Non-destructive snapshot of the pending increments, so write-
  /// buffer absorbs can journal the buffered set (CM journaling).
  [[nodiscard]] ObjectImage peek_from_view(
      const props::PropertySet& vpl) const override {
    (void)vpl;
    ObjectImage img;
    for (const auto& [i, d] : pending_) {
      if (d != 0) img.set_int(inc_key(i), d);
    }
    return img;
  }

  [[nodiscard]] const trigger::Env& variables() const override {
    return vars_;
  }

  trigger::VariableStore& vars() { return vars_; }
  [[nodiscard]] std::size_t extracts() const noexcept { return extracts_; }
  [[nodiscard]] std::size_t merges() const noexcept { return merges_; }

 private:
  std::int64_t lo_, hi_;
  std::map<std::int64_t, std::int64_t> base_;
  std::map<std::int64_t, std::int64_t> pending_;
  trigger::VariableStore vars_;
  std::size_t extracts_ = 0;
  std::size_t merges_ = 0;
};

/// LAN harness: directory on the last host, views on the others.
class Harness {
 public:
  static net::SimFabric::Config default_fabric_config() {
    net::SimFabric::Config cfg;
    cfg.per_message_overhead = sim::usec(10);
    return cfg;
  }

  explicit Harness(std::size_t max_views, std::int64_t n_cells = 100,
                   DirectoryManager::Config dir_cfg = {},
                   net::SimFabric::Config fab_cfg = default_fabric_config())
      : primary_(n_cells) {
    std::vector<net::NodeId> hosts;
    net::LinkSpec link;
    link.latency = sim::usec(200);
    auto topo = net::Topology::lan(max_views + 1, link, &hosts);
    fabric_ = std::make_unique<net::SimFabric>(sim_, std::move(topo), fab_cfg);
    dir_addr_ = net::Address{hosts.back(), 1};
    hosts_ = hosts;
    directory_ = std::make_unique<DirectoryManager>(*fabric_, dir_addr_,
                                                    primary_, dir_cfg);
  }

  /// Create a view + cache manager pair over cells [lo, hi].
  struct Member {
    std::unique_ptr<KvView> view;
    std::unique_ptr<CacheManager> cm;
  };

  Member make_member(std::int64_t lo, std::int64_t hi,
                     CacheManager::Config cfg = {}) {
    auto view = std::make_unique<KvView>(lo, hi);
    if (cfg.view_name == "view") {
      cfg.view_name = "kv.View";
    }
    cfg.properties = view->properties();
    const net::Address addr{hosts_.at(next_host_++), 1};
    auto cm = std::make_unique<CacheManager>(*fabric_, addr, dir_addr_,
                                             *view, std::move(cfg));
    return Member{std::move(view), std::move(cm)};
  }

  void run() { sim_.run(); }
  void run_until(sim::Time t) { sim_.run_until(t); }

  sim::Simulator sim_;
  std::unique_ptr<net::SimFabric> fabric_;
  KvPrimary primary_;
  std::unique_ptr<DirectoryManager> directory_;
  net::Address dir_addr_;
  std::vector<net::NodeId> hosts_;
  std::size_t next_host_ = 0;
};

}  // namespace flecc::core::testing

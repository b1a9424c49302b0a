// Variable environments for trigger evaluation.
//
// The paper's prototype read view variables via Java reflection. Our
// substitution is an explicit per-view VariableStore that the view (or
// its driver) keeps up to date; the cache manager snapshots it whenever
// it evaluates a trigger. This preserves application-neutrality: Flecc
// never interprets the variables, it just reads numbers by name.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace flecc::trigger {

/// Read-only variable lookup used by the evaluator.
class Env {
 public:
  virtual ~Env() = default;
  /// The value of `name`, or nullopt if undefined.
  [[nodiscard]] virtual std::optional<double> lookup(
      const std::string& name) const = 0;
};

/// A mutable name→value map implementing Env.
class VariableStore : public Env {
 public:
  VariableStore() = default;
  VariableStore(std::initializer_list<std::pair<const std::string, double>> init)
      : vars_(init) {}

  void set(const std::string& name, double value) { vars_[name] = value; }
  bool erase(const std::string& name) { return vars_.erase(name) != 0; }
  [[nodiscard]] bool has(const std::string& name) const {
    return vars_.count(name) != 0;
  }
  [[nodiscard]] std::optional<double> lookup(
      const std::string& name) const override;
  [[nodiscard]] std::size_t size() const noexcept { return vars_.size(); }
  [[nodiscard]] const std::map<std::string, double>& all() const noexcept {
    return vars_;
  }
  void clear() { vars_.clear(); }

 private:
  std::map<std::string, double> vars_;
};

/// A few named values held inline, read before an optional base Env.
/// It puts the builtin time variable `t` (and directory metadata such as
/// `_age`) over the view's own variables without copying them, and
/// without allocating.
class OverlayEnv final : public Env {
 public:
  struct Var {
    std::string_view name;  // not owned: must outlive the env
    double value = 0.0;
  };
  static constexpr std::size_t kMaxVars = 3;

  /// `vars` shadow `base` (nullptr: no base); of two equal names the
  /// first wins. Throws std::length_error past kMaxVars.
  OverlayEnv(std::initializer_list<Var> vars, const Env* base);
  [[nodiscard]] std::optional<double> lookup(
      const std::string& name) const override;

 private:
  std::array<Var, kMaxVars> vars_{};
  std::size_t size_ = 0;
  const Env* base_;
};

}  // namespace flecc::trigger

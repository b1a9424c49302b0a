// Variable environments for trigger evaluation.
//
// The paper's prototype read view variables via Java reflection. Our
// substitution is an explicit per-view VariableStore that the view (or
// its driver) keeps up to date; the cache manager snapshots it whenever
// it evaluates a trigger. This preserves application-neutrality: Flecc
// never interprets the variables, it just reads numbers by name.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

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

/// An Env overlay: reads `front` first, then `back`. Used to layer the
/// builtin time variable `t` (and directory metadata such as `_age`)
/// over the view's own variables without copying.
class LayeredEnv : public Env {
 public:
  LayeredEnv(const Env& front, const Env& back) : front_(front), back_(back) {}
  [[nodiscard]] std::optional<double> lookup(
      const std::string& name) const override {
    if (auto v = front_.lookup(name)) return v;
    return back_.lookup(name);
  }

 private:
  const Env& front_;
  const Env& back_;
};

}  // namespace flecc::trigger

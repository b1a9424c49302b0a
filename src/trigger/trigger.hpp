// Compiled quality triggers (paper §4.1, Definition 4).
//
//   T_v(t, x1, x2, ...) : T × V_v* → {true, false}
//
// A Trigger wraps a parsed boolean expression. Evaluation takes an Env
// supplying the view variables; the builtin `t` (current discrete time,
// in simulation ticks) is layered on top by `evaluate(t, env)`.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trigger/ast.hpp"
#include "trigger/env.hpp"

namespace flecc::trigger {

/// Evaluate an AST against an environment. Booleans are doubles with
/// C semantics (0 = false). Throws EvalError on unknown variables,
/// division/modulo by zero.
double eval(const Node& root, const Env& env);

/// A parsed, reusable trigger expression.
class Trigger {
 public:
  /// Compile from source. Throws ParseError on malformed input.
  explicit Trigger(std::string_view source);

  Trigger(Trigger&&) noexcept = default;
  Trigger& operator=(Trigger&&) noexcept = default;
  Trigger(const Trigger& other);
  Trigger& operator=(const Trigger& other);

  /// Evaluate with explicit time `t` layered over `env`.
  [[nodiscard]] bool evaluate(double t, const Env& env) const;

  /// Evaluate against env only (env must define `t` if referenced).
  [[nodiscard]] bool evaluate(const Env& env) const;

  /// The original source text.
  [[nodiscard]] const std::string& source() const noexcept { return source_; }

  /// Distinct variable names referenced (sorted), including `t`.
  [[nodiscard]] const std::vector<std::string>& variables() const noexcept {
    return variables_;
  }

 private:
  std::string source_;
  NodePtr root_;
  std::vector<std::string> variables_;
};

}  // namespace flecc::trigger

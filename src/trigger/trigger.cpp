#include "trigger/trigger.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "trigger/errors.hpp"
#include "trigger/parser.hpp"

namespace flecc::trigger {

double eval(const Node& n, const Env& env) {
  switch (n.kind) {
    case Node::Kind::kNumber:
      return n.number;
    case Node::Kind::kVariable: {
      const auto v = env.lookup(n.name);
      if (!v) throw EvalError("undefined variable '" + n.name + "'");
      return *v;
    }
    case Node::Kind::kUnary: {
      const double x = eval(*n.lhs, env);
      switch (n.uop) {
        case UnaryOp::kNeg: return -x;
        case UnaryOp::kNot: return x == 0.0 ? 1.0 : 0.0;
      }
      break;
    }
    case Node::Kind::kCall: {
      std::vector<double> args;
      args.reserve(n.args.size());
      for (const auto& a : n.args) args.push_back(eval(*a, env));
      if (n.name == "min") {
        double m = args[0];
        for (const double x : args) m = std::min(m, x);
        return m;
      }
      if (n.name == "max") {
        double m = args[0];
        for (const double x : args) m = std::max(m, x);
        return m;
      }
      if (n.name == "abs") return std::fabs(args[0]);
      if (n.name == "floor") return std::floor(args[0]);
      if (n.name == "ceil") return std::ceil(args[0]);
      if (n.name == "clamp") {
        return std::min(std::max(args[0], args[1]), args[2]);
      }
      throw EvalError("unknown function '" + n.name + "'");
    }
    case Node::Kind::kBinary: {
      // Short-circuit logical operators.
      if (n.bop == BinaryOp::kAnd) {
        if (eval(*n.lhs, env) == 0.0) return 0.0;
        return eval(*n.rhs, env) != 0.0 ? 1.0 : 0.0;
      }
      if (n.bop == BinaryOp::kOr) {
        if (eval(*n.lhs, env) != 0.0) return 1.0;
        return eval(*n.rhs, env) != 0.0 ? 1.0 : 0.0;
      }
      const double a = eval(*n.lhs, env);
      const double b = eval(*n.rhs, env);
      switch (n.bop) {
        case BinaryOp::kAdd: return a + b;
        case BinaryOp::kSub: return a - b;
        case BinaryOp::kMul: return a * b;
        case BinaryOp::kDiv:
          if (b == 0.0) throw EvalError("division by zero");
          return a / b;
        case BinaryOp::kMod:
          if (b == 0.0) throw EvalError("modulo by zero");
          return std::fmod(a, b);
        case BinaryOp::kLt: return a < b ? 1.0 : 0.0;
        case BinaryOp::kLe: return a <= b ? 1.0 : 0.0;
        case BinaryOp::kGt: return a > b ? 1.0 : 0.0;
        case BinaryOp::kGe: return a >= b ? 1.0 : 0.0;
        case BinaryOp::kEq: return a == b ? 1.0 : 0.0;
        case BinaryOp::kNe: return a != b ? 1.0 : 0.0;
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          break;  // handled above
      }
      break;
    }
  }
  throw EvalError("corrupt expression tree");
}

Trigger::Trigger(std::string_view source)
    : source_(source), root_(parse(source)) {
  variables_ = collect_variables(*root_);
}

Trigger::Trigger(const Trigger& other) : Trigger(other.source_) {}

Trigger& Trigger::operator=(const Trigger& other) {
  if (this != &other) *this = Trigger(other.source_);
  return *this;
}

bool Trigger::evaluate(double t, const Env& env) const {
  VariableStore time_env;
  time_env.set("t", t);
  LayeredEnv layered(time_env, env);
  return eval(*root_, layered) != 0.0;
}

bool Trigger::evaluate(const Env& env) const {
  return eval(*root_, env) != 0.0;
}

bool Trigger::references_time() const noexcept {
  for (const auto& v : variables_) {
    if (v == "t") return true;
  }
  return false;
}

}  // namespace flecc::trigger

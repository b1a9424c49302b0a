#include "trigger/trigger.hpp"

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
  const OverlayEnv timed({{"t", t}}, &env);
  return eval(*root_, timed) != 0.0;
}

bool Trigger::evaluate(const Env& env) const {
  return eval(*root_, env) != 0.0;
}

}  // namespace flecc::trigger

// Abstract syntax tree for trigger expressions.
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace flecc::trigger {

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kLt, kLe, kGt, kGe, kEq, kNe,
  kAnd, kOr,
};

enum class UnaryOp { kNeg, kNot };

const char* to_string(BinaryOp op) noexcept;
const char* to_string(UnaryOp op) noexcept;

struct Node;
using NodePtr = std::unique_ptr<Node>;

struct Node {
  enum class Kind { kNumber, kVariable, kUnary, kBinary } kind;

  // kNumber
  double number = 0.0;
  // kVariable
  std::string name;
  // kUnary / kBinary
  UnaryOp uop = UnaryOp::kNeg;
  BinaryOp bop = BinaryOp::kAdd;
  NodePtr lhs;  // also the sole child of a unary node
  NodePtr rhs;

  static NodePtr make_number(double v);
  static NodePtr make_variable(std::string name);
  static NodePtr make_unary(UnaryOp op, NodePtr child);
  static NodePtr make_binary(BinaryOp op, NodePtr lhs, NodePtr rhs);
};

/// Collect the distinct variable names referenced by the tree (sorted).
std::vector<std::string> collect_variables(const Node& root);

/// Round-trip rendering with full parenthesization (for diagnostics).
std::string to_string(const Node& root);

}  // namespace flecc::trigger

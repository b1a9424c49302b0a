#include "trigger/parser.hpp"

#include <set>
#include <sstream>
#include <utility>

#include "trigger/lexer.hpp"

namespace flecc::trigger {

const char* to_string(BinaryOp op) noexcept {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kAnd: return "&&";
    case BinaryOp::kOr: return "||";
  }
  return "?";
}

const char* to_string(UnaryOp op) noexcept {
  switch (op) {
    case UnaryOp::kNeg: return "-";
    case UnaryOp::kNot: return "!";
  }
  return "?";
}

NodePtr Node::make_number(double v) {
  auto n = std::make_unique<Node>();
  n->kind = Kind::kNumber;
  n->number = v;
  return n;
}

NodePtr Node::make_variable(std::string name) {
  auto n = std::make_unique<Node>();
  n->kind = Kind::kVariable;
  n->name = std::move(name);
  return n;
}

NodePtr Node::make_unary(UnaryOp op, NodePtr child) {
  auto n = std::make_unique<Node>();
  n->kind = Kind::kUnary;
  n->uop = op;
  n->lhs = std::move(child);
  return n;
}

NodePtr Node::make_binary(BinaryOp op, NodePtr lhs, NodePtr rhs) {
  auto n = std::make_unique<Node>();
  n->kind = Kind::kBinary;
  n->bop = op;
  n->lhs = std::move(lhs);
  n->rhs = std::move(rhs);
  return n;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view src) : tokens_(tokenize(src)) {}

  NodePtr parse_all() {
    NodePtr root = parse_or();
    if (peek().kind != TokenKind::kEnd) {
      throw ParseError(std::string("unexpected ") + to_string(peek().kind) +
                           " after expression",
                       peek().pos);
    }
    return root;
  }

 private:
  const Token& peek() const { return tokens_[pos_]; }
  Token take() { return tokens_[pos_++]; }
  bool accept(TokenKind k) {
    if (peek().kind == k) {
      ++pos_;
      return true;
    }
    return false;
  }

  NodePtr parse_or() {
    NodePtr lhs = parse_and();
    while (accept(TokenKind::kOrOr)) {
      lhs = Node::make_binary(BinaryOp::kOr, std::move(lhs), parse_and());
    }
    return lhs;
  }

  NodePtr parse_and() {
    NodePtr lhs = parse_equality();
    while (accept(TokenKind::kAndAnd)) {
      lhs = Node::make_binary(BinaryOp::kAnd, std::move(lhs),
                              parse_equality());
    }
    return lhs;
  }

  NodePtr parse_equality() {
    NodePtr lhs = parse_relational();
    for (;;) {
      if (accept(TokenKind::kEqEq)) {
        lhs = Node::make_binary(BinaryOp::kEq, std::move(lhs),
                                parse_relational());
      } else if (accept(TokenKind::kNotEq)) {
        lhs = Node::make_binary(BinaryOp::kNe, std::move(lhs),
                                parse_relational());
      } else {
        return lhs;
      }
    }
  }

  NodePtr parse_relational() {
    NodePtr lhs = parse_additive();
    for (;;) {
      BinaryOp op;
      if (accept(TokenKind::kLt)) op = BinaryOp::kLt;
      else if (accept(TokenKind::kLe)) op = BinaryOp::kLe;
      else if (accept(TokenKind::kGt)) op = BinaryOp::kGt;
      else if (accept(TokenKind::kGe)) op = BinaryOp::kGe;
      else return lhs;
      lhs = Node::make_binary(op, std::move(lhs), parse_additive());
    }
  }

  NodePtr parse_additive() {
    NodePtr lhs = parse_multiplicative();
    for (;;) {
      if (accept(TokenKind::kPlus)) {
        lhs = Node::make_binary(BinaryOp::kAdd, std::move(lhs),
                                parse_multiplicative());
      } else if (accept(TokenKind::kMinus)) {
        lhs = Node::make_binary(BinaryOp::kSub, std::move(lhs),
                                parse_multiplicative());
      } else {
        return lhs;
      }
    }
  }

  NodePtr parse_multiplicative() {
    NodePtr lhs = parse_unary();
    for (;;) {
      BinaryOp op;
      if (accept(TokenKind::kStar)) op = BinaryOp::kMul;
      else if (accept(TokenKind::kSlash)) op = BinaryOp::kDiv;
      else if (accept(TokenKind::kPercent)) op = BinaryOp::kMod;
      else return lhs;
      lhs = Node::make_binary(op, std::move(lhs), parse_unary());
    }
  }

  NodePtr parse_unary() {
    if (accept(TokenKind::kNot)) {
      return Node::make_unary(UnaryOp::kNot, parse_unary());
    }
    if (accept(TokenKind::kMinus)) {
      return Node::make_unary(UnaryOp::kNeg, parse_unary());
    }
    return parse_primary();
  }

  NodePtr parse_primary() {
    const Token& tok = peek();
    switch (tok.kind) {
      case TokenKind::kNumber: {
        const double v = tok.number;
        take();
        return Node::make_number(v);
      }
      case TokenKind::kTrue:
        take();
        return Node::make_number(1.0);
      case TokenKind::kFalse:
        take();
        return Node::make_number(0.0);
      case TokenKind::kIdentifier:
        return Node::make_variable(take().text);
      case TokenKind::kLParen: {
        take();
        NodePtr inner = parse_or();
        if (!accept(TokenKind::kRParen)) {
          throw ParseError("expected ')'", peek().pos);
        }
        return inner;
      }
      default:
        throw ParseError(std::string("unexpected ") + to_string(tok.kind),
                         tok.pos);
    }
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

void collect(const Node& n, std::set<std::string>& out) {
  switch (n.kind) {
    case Node::Kind::kVariable:
      out.insert(n.name);
      break;
    case Node::Kind::kUnary:
      collect(*n.lhs, out);
      break;
    case Node::Kind::kBinary:
      collect(*n.lhs, out);
      collect(*n.rhs, out);
      break;
    case Node::Kind::kNumber:
      break;
  }
}

void render(const Node& n, std::ostringstream& os) {
  switch (n.kind) {
    case Node::Kind::kNumber:
      os << n.number;
      break;
    case Node::Kind::kVariable:
      os << n.name;
      break;
    case Node::Kind::kUnary:
      os << to_string(n.uop) << "(";
      render(*n.lhs, os);
      os << ")";
      break;
    case Node::Kind::kBinary:
      os << "(";
      render(*n.lhs, os);
      os << " " << to_string(n.bop) << " ";
      render(*n.rhs, os);
      os << ")";
      break;
  }
}

}  // namespace

NodePtr parse(std::string_view source) {
  return Parser(source).parse_all();
}

std::vector<std::string> collect_variables(const Node& root) {
  std::set<std::string> names;
  collect(root, names);
  return {names.begin(), names.end()};
}

std::string to_string(const Node& root) {
  std::ostringstream os;
  render(root, os);
  return os.str();
}

}  // namespace flecc::trigger

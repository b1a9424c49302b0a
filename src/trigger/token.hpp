// Tokens of the quality-trigger expression language (paper §4.1).
//
// Triggers are boolean expressions over discrete time `t` and view
// variables, e.g. "(t > 1500) && (pendingSales >= 3)".
#pragma once

#include <string>

namespace flecc::trigger {

enum class TokenKind {
  kNumber,      // integer or floating literal
  kIdentifier,  // variable name (including the builtin `t`)
  kLParen,
  kRParen,
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kPercent,
  kLt,
  kLe,
  kGt,
  kGe,
  kEqEq,
  kNotEq,
  kAndAnd,
  kOrOr,
  kNot,
  kTrue,   // literal `true`
  kFalse,  // literal `false`
  kEnd,
};

/// Human-readable name of a token kind, for diagnostics.
const char* to_string(TokenKind kind) noexcept;

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;    // identifier name or literal spelling
  double number = 0.0; // valid when kind == kNumber
  std::size_t pos = 0; // byte offset into the source expression
};

}  // namespace flecc::trigger

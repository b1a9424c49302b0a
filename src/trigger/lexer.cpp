#include "trigger/lexer.hpp"

#include <cctype>
#include <cstdlib>

namespace flecc::trigger {

const char* to_string(TokenKind kind) noexcept {
  switch (kind) {
    case TokenKind::kNumber: return "number";
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kSlash: return "'/'";
    case TokenKind::kPercent: return "'%'";
    case TokenKind::kLt: return "'<'";
    case TokenKind::kLe: return "'<='";
    case TokenKind::kGt: return "'>'";
    case TokenKind::kGe: return "'>='";
    case TokenKind::kEqEq: return "'=='";
    case TokenKind::kNotEq: return "'!='";
    case TokenKind::kAndAnd: return "'&&'";
    case TokenKind::kOrOr: return "'||'";
    case TokenKind::kNot: return "'!'";
    case TokenKind::kTrue: return "'true'";
    case TokenKind::kFalse: return "'false'";
    case TokenKind::kEnd: return "end of expression";
  }
  return "?";
}

namespace {

bool is_ident_start(char c) noexcept {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool is_ident_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == '.';
}

}  // namespace

std::vector<Token> tokenize(std::string_view src) {
  std::vector<Token> out;
  std::size_t i = 0;
  const std::size_t n = src.size();

  auto push = [&](TokenKind k, std::size_t pos, std::string text = {}) {
    out.push_back(Token{k, std::move(text), 0.0, pos});
  };

  while (i < n) {
    const char c = src[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])) != 0)) {
      std::size_t j = i;
      while (j < n && (std::isdigit(static_cast<unsigned char>(src[j])) != 0 ||
                       src[j] == '.')) {
        ++j;
      }
      const std::string text(src.substr(i, j - i));
      char* endp = nullptr;
      const double value = std::strtod(text.c_str(), &endp);
      if (endp == nullptr || *endp != '\0') {
        throw ParseError("malformed number '" + text + "'", start);
      }
      Token t{TokenKind::kNumber, text, value, start};
      out.push_back(std::move(t));
      i = j;
      continue;
    }
    if (is_ident_start(c)) {
      std::size_t j = i;
      while (j < n && is_ident_char(src[j])) ++j;
      std::string text(src.substr(i, j - i));
      if (text == "true") {
        push(TokenKind::kTrue, start, std::move(text));
      } else if (text == "false") {
        push(TokenKind::kFalse, start, std::move(text));
      } else {
        push(TokenKind::kIdentifier, start, std::move(text));
      }
      i = j;
      continue;
    }
    auto two = [&](char second) {
      return i + 1 < n && src[i + 1] == second;
    };
    switch (c) {
      case '(': push(TokenKind::kLParen, start); ++i; break;
      case ')': push(TokenKind::kRParen, start); ++i; break;
      case '+': push(TokenKind::kPlus, start); ++i; break;
      case '-': push(TokenKind::kMinus, start); ++i; break;
      case '*': push(TokenKind::kStar, start); ++i; break;
      case '/': push(TokenKind::kSlash, start); ++i; break;
      case '%': push(TokenKind::kPercent, start); ++i; break;
      case '<':
        if (two('=')) { push(TokenKind::kLe, start); i += 2; }
        else { push(TokenKind::kLt, start); ++i; }
        break;
      case '>':
        if (two('=')) { push(TokenKind::kGe, start); i += 2; }
        else { push(TokenKind::kGt, start); ++i; }
        break;
      case '=':
        if (two('=')) { push(TokenKind::kEqEq, start); i += 2; }
        else throw ParseError("unexpected '='; did you mean '=='?", start);
        break;
      case '!':
        if (two('=')) { push(TokenKind::kNotEq, start); i += 2; }
        else { push(TokenKind::kNot, start); ++i; }
        break;
      case '&':
        if (two('&')) { push(TokenKind::kAndAnd, start); i += 2; }
        else throw ParseError("unexpected '&'; did you mean '&&'?", start);
        break;
      case '|':
        if (two('|')) { push(TokenKind::kOrOr, start); i += 2; }
        else throw ParseError("unexpected '|'; did you mean '||'?", start);
        break;
      default:
        throw ParseError(std::string("unexpected character '") + c + "'",
                         start);
    }
  }
  push(TokenKind::kEnd, n);
  return out;
}

}  // namespace flecc::trigger

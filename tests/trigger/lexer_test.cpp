#include "trigger/lexer.hpp"

#include <gtest/gtest.h>

namespace flecc::trigger {
namespace {

std::vector<TokenKind> kinds(std::string_view src) {
  std::vector<TokenKind> out;
  for (const auto& t : tokenize(src)) out.push_back(t.kind);
  return out;
}

TEST(LexerTest, EmptyYieldsEnd) {
  EXPECT_EQ(kinds(""), (std::vector<TokenKind>{TokenKind::kEnd}));
  EXPECT_EQ(kinds("   \t\n "), (std::vector<TokenKind>{TokenKind::kEnd}));
}

TEST(LexerTest, PaperExampleTokenizes) {
  // The trigger string from Figure 3: "(t > 1500)".
  const auto toks = tokenize("(t > 1500)");
  ASSERT_EQ(toks.size(), 6u);
  EXPECT_EQ(toks[0].kind, TokenKind::kLParen);
  EXPECT_EQ(toks[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(toks[1].text, "t");
  EXPECT_EQ(toks[2].kind, TokenKind::kGt);
  EXPECT_EQ(toks[3].kind, TokenKind::kNumber);
  EXPECT_DOUBLE_EQ(toks[3].number, 1500.0);
  EXPECT_EQ(toks[4].kind, TokenKind::kRParen);
  EXPECT_EQ(toks[5].kind, TokenKind::kEnd);
}

TEST(LexerTest, Numbers) {
  EXPECT_DOUBLE_EQ(tokenize("3.25")[0].number, 3.25);
  EXPECT_DOUBLE_EQ(tokenize(".5")[0].number, 0.5);
  EXPECT_DOUBLE_EQ(tokenize("0")[0].number, 0.0);
}

TEST(LexerTest, IdentifiersWithDotsAndUnderscores) {
  const auto toks = tokenize("_age avail.123 pendingSales");
  EXPECT_EQ(toks[0].text, "_age");
  EXPECT_EQ(toks[1].text, "avail.123");
  EXPECT_EQ(toks[2].text, "pendingSales");
}

TEST(LexerTest, AllOperators) {
  EXPECT_EQ(kinds("+ - * / % < <= > >= == != && || ! ( )"),
            (std::vector<TokenKind>{
                TokenKind::kPlus, TokenKind::kMinus, TokenKind::kStar,
                TokenKind::kSlash, TokenKind::kPercent, TokenKind::kLt,
                TokenKind::kLe, TokenKind::kGt, TokenKind::kGe,
                TokenKind::kEqEq, TokenKind::kNotEq, TokenKind::kAndAnd,
                TokenKind::kOrOr, TokenKind::kNot, TokenKind::kLParen,
                TokenKind::kRParen, TokenKind::kEnd}));
}

// Operators have one spelling each: the words lex as identifiers, and a
// number ends before an exponent's letter.
TEST(LexerTest, WordOperatorsAndLiterals) {
  EXPECT_EQ(kinds("true and false or not x"),
            (std::vector<TokenKind>{
                TokenKind::kTrue, TokenKind::kIdentifier, TokenKind::kFalse,
                TokenKind::kIdentifier, TokenKind::kIdentifier,
                TokenKind::kIdentifier, TokenKind::kEnd}));
  EXPECT_EQ(kinds("1e3"),
            (std::vector<TokenKind>{TokenKind::kNumber,
                                    TokenKind::kIdentifier, TokenKind::kEnd}));
}

TEST(LexerTest, NoSpacesNeeded) {
  EXPECT_EQ(kinds("(t>1500)&&(x<=2)"),
            (std::vector<TokenKind>{
                TokenKind::kLParen, TokenKind::kIdentifier, TokenKind::kGt,
                TokenKind::kNumber, TokenKind::kRParen, TokenKind::kAndAnd,
                TokenKind::kLParen, TokenKind::kIdentifier, TokenKind::kLe,
                TokenKind::kNumber, TokenKind::kRParen, TokenKind::kEnd}));
}

TEST(LexerTest, PositionsRecorded) {
  const auto toks = tokenize("a  <= 12");
  EXPECT_EQ(toks[0].pos, 0u);
  EXPECT_EQ(toks[1].pos, 3u);
  EXPECT_EQ(toks[2].pos, 6u);
}

TEST(LexerTest, SingleAmpersandRejected) {
  EXPECT_THROW(tokenize("a & b"), ParseError);
}

TEST(LexerTest, SinglePipeRejected) {
  EXPECT_THROW(tokenize("a | b"), ParseError);
}

TEST(LexerTest, SingleEqualsRejected) {
  EXPECT_THROW(tokenize("a = b"), ParseError);
}

TEST(LexerTest, UnknownCharacterRejected) {
  EXPECT_THROW(tokenize("a # b"), ParseError);
  try {
    tokenize("ab @");
  } catch (const ParseError& e) {
    EXPECT_EQ(e.pos(), 3u);
  }
}

TEST(LexerTest, BangAloneIsNot) {
  const auto toks = tokenize("!x");
  EXPECT_EQ(toks[0].kind, TokenKind::kNot);
  EXPECT_EQ(toks[1].kind, TokenKind::kIdentifier);
}

}  // namespace
}  // namespace flecc::trigger

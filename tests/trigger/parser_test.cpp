#include "trigger/parser.hpp"

#include <gtest/gtest.h>

namespace flecc::trigger {
namespace {

std::string parsed(std::string_view src) { return to_string(*parse(src)); }

TEST(ParserTest, Primary) {
  EXPECT_EQ(parsed("42"), "42");
  EXPECT_EQ(parsed("x"), "x");
  EXPECT_EQ(parsed("true"), "1");
  EXPECT_EQ(parsed("false"), "0");
  EXPECT_EQ(parsed("(x)"), "x");
}

TEST(ParserTest, PrecedenceMulOverAdd) {
  EXPECT_EQ(parsed("1 + 2 * 3"), "(1 + (2 * 3))");
  EXPECT_EQ(parsed("(1 + 2) * 3"), "((1 + 2) * 3)");
}

TEST(ParserTest, PrecedenceRelationalOverLogical) {
  EXPECT_EQ(parsed("a < b && c > d"), "((a < b) && (c > d))");
}

TEST(ParserTest, PrecedenceAndOverOr) {
  EXPECT_EQ(parsed("a || b && c"), "(a || (b && c))");
}

TEST(ParserTest, PrecedenceEqualityBelowRelational) {
  EXPECT_EQ(parsed("a == b < c"), "(a == (b < c))");
}

TEST(ParserTest, LeftAssociativity) {
  EXPECT_EQ(parsed("1 - 2 - 3"), "((1 - 2) - 3)");
  EXPECT_EQ(parsed("8 / 4 / 2"), "((8 / 4) / 2)");
}

TEST(ParserTest, UnaryOperators) {
  EXPECT_EQ(parsed("-x"), "-(x)");
  EXPECT_EQ(parsed("!x"), "!(x)");
  EXPECT_EQ(parsed("!!x"), "!(!(x))");
  EXPECT_EQ(parsed("--3"), "-(-(3))");
}

TEST(ParserTest, UnaryBindsTighterThanBinary) {
  EXPECT_EQ(parsed("-a + b"), "(-(a) + b)");
  EXPECT_EQ(parsed("!a && b"), "(!(a) && b)");
}

TEST(ParserTest, PaperTrigger) {
  EXPECT_EQ(parsed("(t > 1500)"), "(t > 1500)");
}

TEST(ParserTest, ComplexExpression) {
  EXPECT_EQ(parsed("(t > 1500) && (pendingSales >= 3 || !urgent)"),
            "((t > 1500) && ((pendingSales >= 3) || !(urgent)))");
}

TEST(ParserTest, CollectVariablesSortedUnique) {
  const auto node = parse("b + a * b - t / a");
  EXPECT_EQ(collect_variables(*node),
            (std::vector<std::string>{"a", "b", "t"}));
}

TEST(ParserTest, CollectVariablesNoneForConstants) {
  EXPECT_TRUE(collect_variables(*parse("1 + 2 * 3")).empty());
}

TEST(ParserTest, ErrorOnTrailingTokens) {
  EXPECT_THROW(parse("1 + 2 3"), ParseError);
  EXPECT_THROW(parse("x y"), ParseError);
  // Operators have one spelling, and numbers no exponent: the words and
  // the exponent's letter are identifiers.
  EXPECT_THROW(parse("true and false"), ParseError);
  EXPECT_THROW(parse("not x"), ParseError);
  EXPECT_THROW(parse("1e3"), ParseError);
}

TEST(ParserTest, ErrorOnUnbalancedParens) {
  EXPECT_THROW(parse("(1 + 2"), ParseError);
  EXPECT_THROW(parse("1 + 2)"), ParseError);
  EXPECT_THROW(parse(")("), ParseError);
}

TEST(ParserTest, ErrorOnMissingOperand) {
  EXPECT_THROW(parse("1 +"), ParseError);
  EXPECT_THROW(parse("&& 1"), ParseError);
  EXPECT_THROW(parse(""), ParseError);
  EXPECT_THROW(parse("()"), ParseError);
}

// The grammar has no function calls: every call is rejected at parse.
TEST(FunctionsTest, UnknownFunctionRejectedAtParse) {
  EXPECT_THROW(parse("teleport(1)"), ParseError);
  EXPECT_THROW(parse("min(1, 2)"), ParseError);
}

TEST(FunctionsTest, MalformedCallsRejected) {
  EXPECT_THROW(parse("min(1, 2"), ParseError);
  EXPECT_THROW(parse("min(1,, 2)"), ParseError);
  EXPECT_THROW(parse("min 1, 2)"), ParseError);
}

TEST(ParserTest, ErrorPositionsAreUseful) {
  try {
    parse("1 + )");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.pos(), 4u);
  }
}

}  // namespace
}  // namespace flecc::trigger

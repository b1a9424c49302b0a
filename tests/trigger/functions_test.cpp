// Builtin functions in the trigger language.
#include <gtest/gtest.h>

#include "trigger/errors.hpp"
#include "trigger/parser.hpp"
#include "trigger/trigger.hpp"

namespace flecc::trigger {
namespace {

double eval_src(std::string_view src, const Env& env = VariableStore{}) {
  return eval(*parse(src), env);
}

TEST(FunctionsTest, MinMax) {
  EXPECT_DOUBLE_EQ(eval_src("min(3, 7)"), 3.0);
  EXPECT_DOUBLE_EQ(eval_src("max(3, 7)"), 7.0);
  EXPECT_DOUBLE_EQ(eval_src("min(5, 2, 8, 1)"), 1.0);
  EXPECT_DOUBLE_EQ(eval_src("max(5, 2, 8, 1)"), 8.0);
}

TEST(FunctionsTest, AbsFloorCeil) {
  EXPECT_DOUBLE_EQ(eval_src("abs(-4.5)"), 4.5);
  EXPECT_DOUBLE_EQ(eval_src("abs(4.5)"), 4.5);
  EXPECT_DOUBLE_EQ(eval_src("floor(2.7)"), 2.0);
  EXPECT_DOUBLE_EQ(eval_src("ceil(2.1)"), 3.0);
  EXPECT_DOUBLE_EQ(eval_src("floor(-2.1)"), -3.0);
}

TEST(FunctionsTest, Clamp) {
  EXPECT_DOUBLE_EQ(eval_src("clamp(5, 0, 10)"), 5.0);
  EXPECT_DOUBLE_EQ(eval_src("clamp(-5, 0, 10)"), 0.0);
  EXPECT_DOUBLE_EQ(eval_src("clamp(15, 0, 10)"), 10.0);
}

TEST(FunctionsTest, NestedAndMixed) {
  VariableStore env{{"x", 4.0}, {"y", -9.0}};
  EXPECT_DOUBLE_EQ(eval_src("max(x, abs(y)) + min(x, 1)", env), 10.0);
  EXPECT_DOUBLE_EQ(eval_src("clamp(x * y, -10, 10)", env), -10.0);
}

TEST(FunctionsTest, FunctionsInTriggerConditions) {
  const Trigger t("max(pendingA, pendingB) >= 5");
  VariableStore env{{"pendingA", 2.0}, {"pendingB", 7.0}};
  EXPECT_TRUE(t.evaluate(0.0, env));
  env.set("pendingB", 3.0);
  EXPECT_FALSE(t.evaluate(0.0, env));
}

TEST(FunctionsTest, ArityErrors) {
  EXPECT_THROW(parse("min(1)"), ParseError);
  EXPECT_THROW(parse("abs(1, 2)"), ParseError);
  EXPECT_THROW(parse("abs()"), ParseError);
  EXPECT_THROW(parse("clamp(1, 2)"), ParseError);
}

TEST(FunctionsTest, UnknownFunctionRejectedAtParse) {
  EXPECT_THROW(parse("teleport(1)"), ParseError);
}

TEST(FunctionsTest, IdentifierFollowedByParenIsACall) {
  // Variables named like builtins still work when not called.
  VariableStore env{{"min", 42.0}};
  EXPECT_DOUBLE_EQ(eval_src("min + 1", env), 43.0);
}

TEST(FunctionsTest, MalformedCallsRejected) {
  EXPECT_THROW(parse("min(1, 2"), ParseError);
  EXPECT_THROW(parse("min(1,, 2)"), ParseError);
  EXPECT_THROW(parse("min 1, 2)"), ParseError);
}

TEST(FunctionsTest, RenderRoundTrips) {
  EXPECT_EQ(to_string(*parse("clamp(x, 0, 10)")), "clamp(x, 0, 10)");
  EXPECT_EQ(to_string(*parse("min(a, max(b, c))")), "min(a, max(b, c))");
}

TEST(FunctionsTest, CollectVariablesSeesCallArgs) {
  EXPECT_EQ(collect_variables(*parse("min(a, b) + abs(t)")),
            (std::vector<std::string>{"a", "b", "t"}));
}

}  // namespace
}  // namespace flecc::trigger

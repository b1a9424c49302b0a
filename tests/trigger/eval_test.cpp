#include "trigger/trigger.hpp"

#include <gtest/gtest.h>

#include "trigger/errors.hpp"
#include "trigger/parser.hpp"

namespace flecc::trigger {
namespace {

double eval_src(std::string_view src, const Env& env) {
  return eval(*parse(src), env);
}

double eval_src(std::string_view src) {
  return eval_src(src, VariableStore{});
}

TEST(EvalTest, Arithmetic) {
  EXPECT_DOUBLE_EQ(eval_src("1 + 2 * 3"), 7.0);
  EXPECT_DOUBLE_EQ(eval_src("(1 + 2) * 3"), 9.0);
  EXPECT_DOUBLE_EQ(eval_src("10 / 4"), 2.5);
  EXPECT_DOUBLE_EQ(eval_src("7 % 3"), 1.0);
  EXPECT_DOUBLE_EQ(eval_src("-5 + 2"), -3.0);
}

TEST(EvalTest, Comparisons) {
  EXPECT_DOUBLE_EQ(eval_src("1 < 2"), 1.0);
  EXPECT_DOUBLE_EQ(eval_src("2 < 1"), 0.0);
  EXPECT_DOUBLE_EQ(eval_src("2 <= 2"), 1.0);
  EXPECT_DOUBLE_EQ(eval_src("3 > 2"), 1.0);
  EXPECT_DOUBLE_EQ(eval_src("2 >= 3"), 0.0);
  EXPECT_DOUBLE_EQ(eval_src("2 == 2"), 1.0);
  EXPECT_DOUBLE_EQ(eval_src("2 != 2"), 0.0);
}

TEST(EvalTest, Logic) {
  EXPECT_DOUBLE_EQ(eval_src("true && false"), 0.0);
  EXPECT_DOUBLE_EQ(eval_src("true || false"), 1.0);
  EXPECT_DOUBLE_EQ(eval_src("!0"), 1.0);
  EXPECT_DOUBLE_EQ(eval_src("!3"), 0.0);
  EXPECT_DOUBLE_EQ(eval_src("2 && 3"), 1.0);  // truthiness normalizes
}

TEST(EvalTest, VariablesResolve) {
  VariableStore env{{"x", 4.0}, {"y", 2.5}};
  EXPECT_DOUBLE_EQ(eval_src("x * y", env), 10.0);
  EXPECT_DOUBLE_EQ(eval_src("x > y", env), 1.0);
}

TEST(EvalTest, UnknownVariableThrows) {
  EXPECT_THROW(eval_src("missing + 1"), EvalError);
}

TEST(EvalTest, DivisionByZeroThrows) {
  EXPECT_THROW(eval_src("1 / 0"), EvalError);
  EXPECT_THROW(eval_src("1 % 0"), EvalError);
}

TEST(EvalTest, ShortCircuitSkipsRhs) {
  // The RHS references an undefined variable; short-circuiting must
  // prevent its evaluation.
  EXPECT_DOUBLE_EQ(eval_src("false && boom"), 0.0);
  EXPECT_DOUBLE_EQ(eval_src("true || boom"), 1.0);
  EXPECT_THROW(eval_src("true && boom"), EvalError);
  EXPECT_THROW(eval_src("false || boom"), EvalError);
}

TEST(TriggerTest, PaperTimeTrigger) {
  const Trigger t("(t > 1500)");
  VariableStore env;
  EXPECT_FALSE(t.evaluate(1000.0, env));
  EXPECT_FALSE(t.evaluate(1500.0, env));
  EXPECT_TRUE(t.evaluate(1501.0, env));
}

TEST(TriggerTest, TimeOverridesEnv) {
  const Trigger t("t == 7");
  VariableStore env{{"t", 3.0}};
  EXPECT_TRUE(t.evaluate(7.0, env));  // explicit t wins over env's t=3
  EXPECT_FALSE(t.evaluate(8.0, env));
  EXPECT_FALSE(t.evaluate(env));  // env-only sees t=3
}

TEST(TriggerTest, MixedTimeAndVariables) {
  const Trigger t("(t > 1000) && (pendingSales >= 3)");
  VariableStore env{{"pendingSales", 5.0}};
  EXPECT_TRUE(t.evaluate(2000.0, env));
  env.set("pendingSales", 2.0);
  EXPECT_FALSE(t.evaluate(2000.0, env));
}

TEST(TriggerTest, VariablesListed) {
  const Trigger t("(t > 10) && x + y > 0");
  EXPECT_EQ(t.variables(), (std::vector<std::string>{"t", "x", "y"}));
}

TEST(TriggerTest, CopySemantics) {
  const Trigger t("x > 1");
  const Trigger copy = t;  // NOLINT(performance-unnecessary-copy-initialization)
  VariableStore env{{"x", 2.0}};
  EXPECT_TRUE(copy.evaluate(0.0, env));
  EXPECT_EQ(copy.source(), t.source());
}

TEST(TriggerTest, BadSourceThrowsParseError) {
  EXPECT_THROW(Trigger("1 +"), ParseError);
}

TEST(LayeredEnvTest, FrontShadowsBack) {
  VariableStore front{{"x", 1.0}};
  VariableStore back{{"x", 2.0}, {"y", 3.0}};
  LayeredEnv env(front, back);
  EXPECT_DOUBLE_EQ(*env.lookup("x"), 1.0);
  EXPECT_DOUBLE_EQ(*env.lookup("y"), 3.0);
  EXPECT_FALSE(env.lookup("z").has_value());
}

// ---- table-driven evaluation sweep --------------------------------------

struct EvalCase {
  const char* src;
  double x;
  double expected;
};

// gtest would otherwise print the raw bytes of the case, including the
// address of `src`, so the test names would change from build to build.
void PrintTo(const EvalCase& c, std::ostream* os) {
  *os << c.src << " at x=" << c.x;
}

class EvalSweepTest : public ::testing::TestWithParam<EvalCase> {};

TEST_P(EvalSweepTest, Evaluates) {
  const auto& c = GetParam();
  VariableStore env{{"x", c.x}};
  EXPECT_DOUBLE_EQ(eval_src(c.src, env), c.expected) << c.src;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EvalSweepTest,
    ::testing::Values(
        EvalCase{"x * x", 3.0, 9.0}, EvalCase{"x * x", -3.0, 9.0},
        EvalCase{"x > 0 && x < 10", 5.0, 1.0},
        EvalCase{"x > 0 && x < 10", 15.0, 0.0},
        EvalCase{"x > 0 || x < -10", -20.0, 1.0},
        EvalCase{"!(x == 0)", 0.0, 0.0}, EvalCase{"!(x == 0)", 1.0, 1.0},
        EvalCase{"x % 4", 11.0, 3.0},
        EvalCase{"-x + 1", 4.0, -3.0},
        EvalCase{"(x + 1) * (x - 1)", 5.0, 24.0}));

}  // namespace
}  // namespace flecc::trigger

#include "util/flags.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace smartcrawl {
namespace {

struct Flags {
  std::string name = "default";
  int64_t budget = 100;
  double theta = 0.005;
  bool verbose = false;

  FlagParser MakeParser() {
    FlagParser p("test tool");
    p.AddString("name", &name, "a name");
    p.AddInt("budget", &budget, "the budget");
    p.AddDouble("theta", &theta, "sampling ratio");
    p.AddBool("verbose", &verbose, "chatty mode");
    return p;
  }
};

Status ParseArgs(FlagParser& p, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return p.Parse(static_cast<int>(args.size()), args.data());
}

TEST(FlagsTest, DefaultsSurviveEmptyArgs) {
  Flags f;
  auto p = f.MakeParser();
  ASSERT_TRUE(ParseArgs(p, {}).ok());
  EXPECT_EQ(f.name, "default");
  EXPECT_EQ(f.budget, 100);
  EXPECT_FALSE(f.verbose);
}

TEST(FlagsTest, EqualsSyntax) {
  Flags f;
  auto p = f.MakeParser();
  ASSERT_TRUE(
      ParseArgs(p, {"--name=crawl", "--budget=42", "--theta=0.01"}).ok());
  EXPECT_EQ(f.name, "crawl");
  EXPECT_EQ(f.budget, 42);
  EXPECT_DOUBLE_EQ(f.theta, 0.01);
}

TEST(FlagsTest, SpaceSyntax) {
  Flags f;
  auto p = f.MakeParser();
  ASSERT_TRUE(ParseArgs(p, {"--budget", "7", "--name", "x"}).ok());
  EXPECT_EQ(f.budget, 7);
  EXPECT_EQ(f.name, "x");
}

TEST(FlagsTest, BareBoolSetsTrue) {
  Flags f;
  auto p = f.MakeParser();
  ASSERT_TRUE(ParseArgs(p, {"--verbose"}).ok());
  EXPECT_TRUE(f.verbose);
}

TEST(FlagsTest, ExplicitBoolValues) {
  Flags f;
  auto p = f.MakeParser();
  ASSERT_TRUE(ParseArgs(p, {"--verbose=false"}).ok());
  EXPECT_FALSE(f.verbose);
  ASSERT_TRUE(ParseArgs(p, {"--verbose=yes"}).ok());
  EXPECT_TRUE(f.verbose);
  EXPECT_FALSE(ParseArgs(p, {"--verbose=maybe"}).ok());
}

TEST(FlagsTest, PositionalArguments) {
  Flags f;
  auto p = f.MakeParser();
  ASSERT_TRUE(ParseArgs(p, {"input.csv", "--budget=5", "output.csv"}).ok());
  EXPECT_EQ(p.positional(),
            (std::vector<std::string>{"input.csv", "output.csv"}));
}

TEST(FlagsTest, UnknownFlagFails) {
  Flags f;
  auto p = f.MakeParser();
  auto st = ParseArgs(p, {"--bogus=1"});
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST(FlagsTest, MalformedNumbersFail) {
  Flags f;
  auto p = f.MakeParser();
  EXPECT_FALSE(ParseArgs(p, {"--budget=abc"}).ok());
  EXPECT_FALSE(ParseArgs(p, {"--theta=xyz"}).ok());
  EXPECT_FALSE(ParseArgs(p, {"--budget=12tail"}).ok());
}

TEST(FlagsTest, MissingValueFails) {
  Flags f;
  auto p = f.MakeParser();
  EXPECT_FALSE(ParseArgs(p, {"--budget"}).ok());
}

TEST(FlagsTest, HelpRequested) {
  Flags f;
  auto p = f.MakeParser();
  ASSERT_TRUE(ParseArgs(p, {"--help"}).ok());
  EXPECT_TRUE(p.help_requested());
  std::string help = p.HelpText();
  EXPECT_NE(help.find("--budget"), std::string::npos);
  EXPECT_NE(help.find("sampling ratio"), std::string::npos);
}

TEST(FlagsTest, NegativeNumbers) {
  Flags f;
  auto p = f.MakeParser();
  ASSERT_TRUE(ParseArgs(p, {"--budget=-5", "--theta=-0.5"}).ok());
  EXPECT_EQ(f.budget, -5);
  EXPECT_DOUBLE_EQ(f.theta, -0.5);
}

TEST(FlagsTest, OutOfRangeIntegersFail) {
  Flags f;
  auto p = f.MakeParser();
  for (const char* arg : {"--budget=99999999999999999999",
                          "--budget=-99999999999999999999"}) {
    Status st = ParseArgs(p, {arg});
    EXPECT_TRUE(st.IsInvalidArgument()) << arg;
    EXPECT_NE(st.ToString().find("out of range"), std::string::npos) << arg;
  }
  EXPECT_EQ(f.budget, 100) << "a rejected value must not be stored";
  // The int64 extremes themselves still parse.
  ASSERT_TRUE(ParseArgs(p, {"--budget=9223372036854775807"}).ok());
  EXPECT_EQ(f.budget, INT64_MAX);
  ASSERT_TRUE(ParseArgs(p, {"--budget=-9223372036854775808"}).ok());
  EXPECT_EQ(f.budget, INT64_MIN);
}

TEST(FlagsTest, NonFiniteDoublesFail) {
  Flags f;
  auto p = f.MakeParser();
  for (const char* arg : {"--theta=nan", "--theta=NaN", "--theta=inf",
                          "--theta=-infinity", "--theta=1e999"}) {
    Status st = ParseArgs(p, {arg});
    EXPECT_TRUE(st.IsInvalidArgument()) << arg;
    EXPECT_NE(st.ToString().find("finite"), std::string::npos) << arg;
  }
  EXPECT_DOUBLE_EQ(f.theta, 0.005) << "a rejected value must not be stored";
  // Large finite values and zero still parse.
  ASSERT_TRUE(ParseArgs(p, {"--theta=1e300"}).ok());
  EXPECT_DOUBLE_EQ(f.theta, 1e300);
  ASSERT_TRUE(ParseArgs(p, {"--theta=0"}).ok());
  EXPECT_DOUBLE_EQ(f.theta, 0.0);
}

}  // namespace
}  // namespace smartcrawl

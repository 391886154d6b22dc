#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/check.hpp"

namespace ucr {
namespace {

CliArgs parse(std::initializer_list<const char*> argv,
              const std::vector<std::string>& allowed) {
  std::vector<const char*> full{"prog"};
  full.insert(full.end(), argv.begin(), argv.end());
  return CliArgs(static_cast<int>(full.size()), full.data(), allowed);
}

TEST(CliArgs, ParsesKeyValue) {
  const auto args = parse({"--k=100", "--seed=7"}, {"k", "seed"});
  EXPECT_EQ(args.get_u64("k", 0), 100u);
  EXPECT_EQ(args.get_u64("seed", 0), 7u);
  // strtoull-style parsing ran these as k = 1, seed 0, 3 shards, ...
  for (const char* bad : {"--k=1e3", "--k=0x10", "--k=3x", "--k=-1", "--k=",
                          "--k= 5", "--k=18446744073709551616"}) {
    EXPECT_THROW(parse({bad}, {"k"}).get_u64("k", 0), ContractViolation) << bad;
  }
  try {
    parse({"--shards=3x"}, {"shards"}).get_u64("shards", 0);
    FAIL() << "--shards=3x parsed";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("--shards"), std::string::npos)
        << e.what();
  }
}

TEST(CliArgs, DefaultsWhenAbsent) {
  const auto args = parse({}, {"k"});
  EXPECT_EQ(args.get_u64("k", 42), 42u);
  EXPECT_DOUBLE_EQ(args.get_double("k", 2.5), 2.5);
  EXPECT_TRUE(args.get_bool("k", true));
  EXPECT_FALSE(args.get("k").has_value());
}

TEST(CliArgs, BooleanFlagWithoutValue) {
  const auto args = parse({"--verbose"}, {"verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(CliArgs, BoolSpellings) {
  EXPECT_TRUE(parse({"--x=true"}, {"x"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=yes"}, {"x"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=on"}, {"x"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=1"}, {"x"}).get_bool("x", false));
  EXPECT_FALSE(parse({"--x=0"}, {"x"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=no"}, {"x"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=off"}, {"x"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=false"}, {"x"}).get_bool("x", true));
  for (const char* bad : {"--x=ture", "--x=2", "--x=", "--x=TRUE"}) {
    EXPECT_THROW(parse({bad}, {"x"}).get_bool("x", false), ContractViolation)
        << bad;
  }
}

TEST(CliArgs, DoubleParsing) {
  const auto args = parse({"--delta=0.366"}, {"delta"});
  EXPECT_DOUBLE_EQ(args.get_double("delta", 0.0), 0.366);
  EXPECT_DOUBLE_EQ(parse({"--x=1e3"}, {"x"}).get_double("x", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(parse({"--x=-.5"}, {"x"}).get_double("x", 0.0), -0.5);
  for (const char* bad : {"--x=0.1x", "--x=", "--x=0.5 ", "--x=nan", "--x=inf",
                          "--x=1e999", "--x=abc"}) {
    EXPECT_THROW(parse({bad}, {"x"}).get_double("x", 0.0), ContractViolation)
        << bad;
  }
}

TEST(CliArgs, RejectsUnknownKey) {
  EXPECT_THROW(parse({"--oops=1"}, {"k"}), ContractViolation);
}

TEST(CliArgs, PositionalArgumentsCollected) {
  const auto args = parse({"file1", "--k=3", "file2"}, {"k"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "file1");
  EXPECT_EQ(args.positional()[1], "file2");
}

TEST(CliArgs, LastValueWins) {
  const auto args = parse({"--k=1", "--k=2"}, {"k"});
  EXPECT_EQ(args.get_u64("k", 0), 2u);
}

TEST(ParseThreadCount, AcceptsPositiveIntegers) {
  EXPECT_EQ(parse_thread_count("1", "--threads"), 1u);
  EXPECT_EQ(parse_thread_count("8", "--threads"), 8u);
  EXPECT_EQ(parse_thread_count("0064", "--threads"), 64u);
}

TEST(ParseThreadCount, RejectsJunkAndZeroLoudly) {
  // strtoull-style parsing silently mapped all of these to 0 = "all
  // cores", hiding typos in experiment scripts.
  EXPECT_THROW(parse_thread_count("abc", "--threads"), ContractViolation);
  EXPECT_THROW(parse_thread_count("4x", "--threads"), ContractViolation);
  EXPECT_THROW(parse_thread_count("-1", "--threads"), ContractViolation);
  EXPECT_THROW(parse_thread_count("1.5", "--threads"), ContractViolation);
  EXPECT_THROW(parse_thread_count("", "--threads"), ContractViolation);
  EXPECT_THROW(parse_thread_count(" 8", "--threads"), ContractViolation);
  EXPECT_THROW(parse_thread_count("0", "--threads"), ContractViolation);
  EXPECT_THROW(parse_thread_count("10000000", "--threads"),
               ContractViolation);
}

TEST(ThreadCountOption, FlagTakesPrecedenceOverEnvironment) {
  ::setenv("UCR_TEST_THREADS", "4", 1);
  const auto args = parse({"--threads=2"}, {"threads"});
  EXPECT_EQ(thread_count_option(args, "UCR_TEST_THREADS"), 2u);
  ::unsetenv("UCR_TEST_THREADS");
}

TEST(ThreadCountOption, FallsBackToEnvironmentThenAuto) {
  const auto args = parse({}, {"threads"});
  ::setenv("UCR_TEST_THREADS", "6", 1);
  EXPECT_EQ(thread_count_option(args, "UCR_TEST_THREADS"), 6u);
  ::unsetenv("UCR_TEST_THREADS");
  EXPECT_EQ(thread_count_option(args, "UCR_TEST_THREADS"), 0u);
  EXPECT_EQ(thread_count_option(args, nullptr), 0u);
}

TEST(ThreadCountOption, RejectsBadValuesFromEitherSource) {
  EXPECT_THROW(
      thread_count_option(parse({"--threads=junk"}, {"threads"}), nullptr),
      ContractViolation);
  EXPECT_THROW(
      thread_count_option(parse({"--threads=0"}, {"threads"}), nullptr),
      ContractViolation);
  ::setenv("UCR_TEST_THREADS", "all", 1);
  EXPECT_THROW(
      thread_count_option(parse({}, {"threads"}), "UCR_TEST_THREADS"),
      ContractViolation);
  ::unsetenv("UCR_TEST_THREADS");
}

}  // namespace
}  // namespace ucr

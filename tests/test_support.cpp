#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>

#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace ssmis {
namespace {

constexpr std::int64_t kMinInt = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMaxInt = std::numeric_limits<std::int64_t>::max();

CliArgs parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsForm) {
  const auto args = parse({"--n=128", "--p=0.5", "--name=clique"});
  EXPECT_EQ(args.get_int("n", 0, kMinInt, kMaxInt), 128);
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.0), 0.5);
  EXPECT_EQ(args.get_string("name", ""), "clique");
}

TEST(Cli, SpaceForm) {
  const auto args = parse({"--n", "64", "--label", "x"});
  EXPECT_EQ(args.get_int("n", 0, kMinInt, kMaxInt), 64);
  EXPECT_EQ(args.get_string("label", ""), "x");
}

TEST(Cli, BooleanFlag) {
  const auto args = parse({"--verbose", "--csv=false"});
  EXPECT_TRUE(args.get_bool("verbose"));
  EXPECT_FALSE(args.get_bool("csv", true));
  EXPECT_FALSE(args.get_bool("absent"));
}

TEST(Cli, FallbacksWhenAbsent) {
  const auto args = parse({});
  EXPECT_EQ(args.get_int("n", 42, kMinInt, kMaxInt), 42);
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.25), 0.25);
  EXPECT_EQ(args.get_string("s", "dflt"), "dflt");
}

// A malformed value ends the program with status 2, naming the flag and
// the value, instead of running the default.
TEST(Cli, MalformedIntExits) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto args = parse({"--n=abc"});
  EXPECT_EXIT(args.get_int("n", 7, kMinInt, kMaxInt), ::testing::ExitedWithCode(2),
              "error: --n: expected integer, got 'abc'");
  EXPECT_EXIT(args.get_bool("n"), ::testing::ExitedWithCode(2),
              "error: --n: expected boolean, got 'abc'");
}

TEST(Cli, MalformedDoubleExits) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto args = parse({"--p=zz"});
  EXPECT_EXIT(args.get_double("p", 0.5), ::testing::ExitedWithCode(2),
              "error: --p: expected number, got 'zz'");
}

TEST(Cli, OutOfRangeIntExits) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto args = parse({"--trials=-3", "--seed=9"});
  EXPECT_EXIT(args.get_int("trials", 30, 1, 1000), ::testing::ExitedWithCode(2),
              "error: --trials: expected integer in \\[1, 1000\\], got '-3'");
  EXPECT_EQ(args.get_int("seed", 1, 1, 1000), 9);
  EXPECT_EQ(args.get_int("absent", 5, 1, 1000), 5);
}

TEST(Cli, PositionalArguments) {
  const auto args = parse({"first", "--n=1", "second"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "first");
  EXPECT_EQ(args.positional()[1], "second");
}

TEST(Cli, HasDetectsPresence) {
  const auto args = parse({"--x=1"});
  EXPECT_TRUE(args.has("x"));
  EXPECT_FALSE(args.has("y"));
}

TEST(Cli, UnknownOptionsAcceptsKnownFlags) {
  const auto args = parse({"--trials=5", "--seed", "9", "--verbose"});
  EXPECT_TRUE(args.unknown_options({"trials", "seed", "verbose"}).empty());
}

TEST(Cli, UnknownOptionsRejectsTyposListingValidFlags) {
  // The motivating bug: --protocal must not silently run the default.
  const auto args = parse({"--protocal=3state", "--trials=5"});
  const auto errors = args.unknown_options({"protocol", "trials"});
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("--protocal"), std::string::npos);
  EXPECT_NE(errors[0].find("--protocol"), std::string::npos);
  EXPECT_NE(errors[0].find("--trials"), std::string::npos);
}

TEST(Cli, UnknownOptionsSupportsPrefixWildcards) {
  const auto args = parse({"--proto-loss=0.1", "--proto-rho=0.5", "--protx=1"});
  const auto errors = args.unknown_options({"proto-*"});
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("--protx"), std::string::npos);
}

TEST(Cli, UnknownOptionsReportsEveryOffender) {
  const auto args = parse({"--a=1", "--b=2"});
  EXPECT_EQ(args.unknown_options({"c"}).size(), 2u);
  EXPECT_TRUE(args.unknown_options({}).empty() == args.options().empty());
}

TEST(Cli, OptionsExposesParsedMap) {
  const auto args = parse({"--proto-loss=0.1", "--n=4"});
  ASSERT_EQ(args.options().size(), 2u);
  EXPECT_EQ(args.options().at("proto-loss"), "0.1");
}

TEST(Cli, ParseThreads) {
  EXPECT_EQ(parse_threads(parse({})), 1);
  EXPECT_EQ(parse_threads(parse({"--threads=3"})), 3);
  EXPECT_EQ(parse_threads(parse({"--threads=-5"})), 1);
  EXPECT_EQ(parse_threads(parse({"--threads=0"})), ThreadPool::host_width());
}

TEST(Table, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "22"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // All lines (other than separator) should have equal-or-consistent width.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, CellHelpers) {
  TextTable t({"a", "b", "c"});
  t.begin_row();
  t.add_cell(static_cast<std::int64_t>(7));
  t.add_cell(3.14159, 3);
  t.add_cell("x");
  const std::string out = t.to_string();
  EXPECT_NE(out.find("7"), std::string::npos);
  EXPECT_NE(out.find("3.142"), std::string::npos);
}

TEST(Table, RaggedRowsPadded) {
  TextTable t({"a", "b"});
  t.add_row({"only-one"});
  EXPECT_NO_THROW(t.to_string());
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(1.0, 2), "1.00");
  EXPECT_EQ(format_double(0.125, 3), "0.125");
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("q\"q"), "\"q\"\"q\"");
  EXPECT_EQ(CsvWriter::escape("nl\n"), "\"nl\n\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream oss;
  CsvWriter csv(oss);
  csv.write_row({"h1", "h2"});
  csv.write_row({"1", "a,b"});
  EXPECT_EQ(oss.str(), "h1,h2\n1,\"a,b\"\n");
}

}  // namespace
}  // namespace ssmis

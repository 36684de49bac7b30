#include <gtest/gtest.h>

#include "../tools/flags.hpp"

namespace anycast::tools {
namespace {

Flags parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  const auto flags =
      Flags::parse(static_cast<int>(args.size()),
                   const_cast<char**>(args.data()));
  EXPECT_TRUE(flags.has_value());
  return *flags;
}

TEST(Flags, SpaceSeparatedValues) {
  const Flags flags = parse({"--seed", "42", "--out", "dir"});
  EXPECT_EQ(flags.get("seed"), "42");
  EXPECT_EQ(flags.get("out"), "dir");
  EXPECT_FALSE(flags.get("missing").has_value());
}

TEST(Flags, EqualsSeparatedValues) {
  const Flags flags = parse({"--seed=7", "--rate=1000.5"});
  EXPECT_EQ(flags.get_int("seed", 0), 7);
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 1000.5);
}

TEST(Flags, Defaults) {
  const Flags flags = parse({});
  EXPECT_EQ(flags.get_int("seed", 99), 99);
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 1.5), 1.5);
  EXPECT_EQ(flags.get_or("name", "fallback"), "fallback");
  EXPECT_EQ(flags.effective().at("name"), "fallback");
}

TEST(Flags, BooleanFlagBeforeAnotherFlagOrAtEnd) {
  const Flags flags = parse({"--verbose", "--seed", "3", "--dry-run"});
  EXPECT_TRUE(flags.has("verbose"));
  EXPECT_EQ(flags.get("verbose"), "true");
  EXPECT_TRUE(flags.has("dry-run"));
  EXPECT_EQ(flags.get_int("seed", 0), 3);
}

TEST(Flags, PositionalArguments) {
  const Flags flags = parse({"census", "--seed", "1", "extra"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "census");
  EXPECT_EQ(flags.positional()[1], "extra");
}

TEST(Flags, MetricsOutAndVerboseParseBothSpellings) {
  // The observability flags of anycastd: --metrics-out takes a path (in
  // either --flag value or --flag=value form) and --verbose is boolean.
  const Flags spaced =
      parse({"census", "--metrics-out", "run/metrics.json", "--verbose"});
  EXPECT_EQ(spaced.get("metrics-out"), "run/metrics.json");
  EXPECT_TRUE(spaced.get_bool("verbose"));

  const Flags equals = parse({"census", "--metrics-out=run/metrics.prom"});
  EXPECT_EQ(equals.get("metrics-out"), "run/metrics.prom");
  EXPECT_FALSE(equals.get_bool("verbose"));
  ASSERT_EQ(equals.positional().size(), 1u);
  EXPECT_EQ(equals.positional()[0], "census");
}

TEST(Flags, UnknownFlagsReportedOnlyIfNeverQueried) {
  const Flags flags = parse({"--seed", "1", "--typo", "x"});
  (void)flags.get("seed");
  const auto unknown = flags.unknown();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(Flags, EmptyUnknownWhenAllQueried) {
  const Flags flags = parse({"--a", "1", "--b", "2"});
  (void)flags.get("a");
  (void)flags.get("b");
  EXPECT_TRUE(flags.unknown().empty());
}

TEST(Flags, NumericValuesMustParseWhole) {
  const Flags flags =
      parse({"--vps", "12x", "--rate", "1e3", "--top", "abc", "--seed", "-3"});
  EXPECT_EQ(flags.get_int("vps", 200), 200);  // refused, reads as fallback
  EXPECT_EQ(flags.bad(), "--vps 12x");        // the first bad value is kept
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 1.0), 1000.0);
  EXPECT_EQ(flags.get_int("top", 5), 5);
  EXPECT_EQ(flags.get_int("seed", 0), -3);  // no range: negatives are fine
  EXPECT_EQ(flags.bad(), "--vps 12x");
}

TEST(Flags, RefusedNumericValues) {
  const struct {
    std::vector<const char*> args;
    std::string bad;
  } cases[] = {
      {{"--vps", "abc"}, "--vps abc"},
      {{"--vps", "-3"}, "--vps -3"},
      {{"--vps", "0"}, "--vps 0"},
      {{"--vps", ""}, "--vps "},
      {{"--vps", "0x10"}, "--vps 0x10"},
      {{"--vps", " 5"}, "--vps  5"},
      {{"--vps", "99999999999999999999"}, "--vps 99999999999999999999"},
      {{"--unicast", "-1"}, "--unicast -1"},
      {{"--unicast", "4294967296"}, "--unicast 4294967296"},
      {{"--rate", "nan"}, "--rate nan"},
      {{"--rate", "inf"}, "--rate inf"},
      {{"--rate", "-inf"}, "--rate -inf"},
      {{"--rate", "1e999"}, "--rate 1e999"},
      {{"--rate", "3.5pps"}, "--rate 3.5pps"},
      {{"--chaos", "maybe"}, "--chaos maybe"},
  };
  for (const auto& c : cases) {
    const Flags flags = parse(c.args);
    (void)flags.get_int("vps", 200, 1, 1000);
    (void)flags.get_int("unicast", 6000, 0, 4294967295);
    (void)flags.get_double("rate", 1000.0);
    (void)flags.get_bool("chaos");
    EXPECT_EQ(flags.bad(), c.bad);
  }
  const Flags fine = parse({"--vps", "1000", "--unicast", "0", "--rate",
                            "-2.5", "--chaos", "no"});
  EXPECT_EQ(fine.get_int("vps", 200, 1, 1000), 1000);
  EXPECT_EQ(fine.get_int("unicast", 6000, 0, 4294967295), 0);
  EXPECT_DOUBLE_EQ(fine.get_double("rate", 1000.0), -2.5);
  EXPECT_FALSE(fine.get_bool("chaos", true));
  EXPECT_TRUE(fine.bad().empty());
}

TEST(Flags, EffectiveValuesReadBackThroughTheSameGetters) {
  const Flags flags = parse({"--seed", "007", "--rate", "1e3", "--chaos",
                             "--out", "dir"});
  (void)flags.get_int("seed", 2015);
  (void)flags.get_int("vps", 200);
  (void)flags.get_double("rate", 1000.0);
  (void)flags.get_double("storm-drop", 0.15);
  (void)flags.get_bool("chaos");
  (void)flags.get_bool("resume");
  (void)flags.get("out");
  const std::map<std::string, std::string> want = {
      {"chaos", "true"}, {"out", "dir"},         {"rate", "1000"},
      {"resume", "false"}, {"seed", "7"},        {"storm-drop", "0.15"},
      {"vps", "200"}};
  EXPECT_EQ(flags.effective(), want);

  const Flags back = Flags::of(want);
  EXPECT_EQ(back.get_int("seed", 2015), 7);
  EXPECT_DOUBLE_EQ(back.get_double("storm-drop", 0.5), 0.15);
  EXPECT_TRUE(back.get_bool("chaos"));
  (void)back.get_int("vps", 1);
  (void)back.get_double("rate", 1.0);
  (void)back.get_bool("resume", true);
  (void)back.get("out");
  EXPECT_EQ(back.effective(), want);
}

TEST(Flags, FreshCopyRecordsOnlyItsOwnQueriesUntilAdopted) {
  const Flags flags = parse({"--vps", "-1", "--threads", "2"});
  (void)flags.get_int("threads", 0);
  const Flags copy = flags.fresh();
  EXPECT_TRUE(copy.effective().empty());
  (void)copy.get_int("vps", 200, 1);
  EXPECT_EQ(copy.effective().size(), 1u);
  EXPECT_TRUE(flags.bad().empty());
  EXPECT_EQ(flags.unknown(), std::vector<std::string>{"vps"});
  flags.adopt_queries(copy);
  EXPECT_TRUE(flags.unknown().empty());
  EXPECT_EQ(flags.bad(), "--vps -1");
}

}  // namespace
}  // namespace anycast::tools

#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace scc {
namespace {

CliFlags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliFlags::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsForm) {
  const auto flags = parse({"--n=42"});
  EXPECT_EQ(flags.get_int("n", 0), 42);
}

// The space-separated value form is intentionally unsupported (the parser
// cannot distinguish a boolean flag from a value flag without a registry),
// and a token that is not --name[=value] is an error rather than a
// positional nobody reads.
TEST(Cli, BareFlagDoesNotSwallowPositional) {
  EXPECT_THROW(static_cast<void>(parse({"--verbose", "input.dat"})),
               std::runtime_error);
}

TEST(Cli, BareFlagBeforeNegativeNumber) {
  // "--n -5" once parsed as n="-5" or as n=true plus a positional "-5",
  // depending on the token's leading characters; the stray "-5" is now
  // rejected outright.
  EXPECT_THROW(static_cast<void>(parse({"--n", "-5"})), std::runtime_error);
}

TEST(Cli, NegativeValueViaEquals) {
  EXPECT_EQ(parse({"--n=-5"}).get_int("n", 0), -5);
}

TEST(Cli, BareBooleanFlag) {
  const auto flags = parse({"--verbose"});
  EXPECT_TRUE(flags.get_bool("verbose", false));
}

TEST(Cli, BooleanSpellings) {
  EXPECT_TRUE(parse({"--x=yes"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=on"}).get_bool("x", false));
  EXPECT_FALSE(parse({"--x=0"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=no"}).get_bool("x", true));
}

TEST(Cli, FallbacksWhenAbsent) {
  const auto flags = parse({});
  EXPECT_EQ(flags.get("name", "dflt"), "dflt");
  EXPECT_EQ(flags.get_int("n", -1), -1);
  EXPECT_DOUBLE_EQ(flags.get_double("d", 2.5), 2.5);
  EXPECT_FALSE(flags.has("anything"));
}

TEST(Cli, DoubleParsing) {
  EXPECT_DOUBLE_EQ(parse({"--d=3.25"}).get_double("d", 0.0), 3.25);
}

TEST(Cli, MalformedIntegerThrows) {
  const auto flags = parse({"--n=abc"});
  EXPECT_THROW(static_cast<void>(flags.get_int("n", 0)), std::runtime_error);
}

TEST(Cli, EmptyValueThrowsForNumbers) {
  // "--n=" used to silently yield 0 (strtoll consumed nothing but left
  // *end == '\0').
  EXPECT_THROW(static_cast<void>(parse({"--n="}).get_int("n", 7)),
               std::runtime_error);
  EXPECT_THROW(static_cast<void>(parse({"--d="}).get_double("d", 7.0)),
               std::runtime_error);
}

TEST(Cli, WhitespaceValueThrowsForNumbers) {
  EXPECT_THROW(static_cast<void>(parse({"--n= "}).get_int("n", 7)),
               std::runtime_error);
  EXPECT_THROW(static_cast<void>(parse({"--d=\t"}).get_double("d", 7.0)),
               std::runtime_error);
}

TEST(Cli, EmptyStringValueIsStillAString) {
  EXPECT_EQ(parse({"--name="}).get("name", "dflt"), "");
}

TEST(Cli, MalformedBoolThrows) {
  const auto flags = parse({"--b=maybe"});
  EXPECT_THROW(static_cast<void>(flags.get_bool("b", false)),
               std::runtime_error);
}

TEST(Cli, Positionals) {
  // A missing "--" (e.g. "jobs=2") must not be silently ignored.
  for (const char* arg : {"pos1", "jobs=2", "-n=1", "--=1"}) {
    EXPECT_THROW(static_cast<void>(parse({"--n=1", arg})), std::runtime_error)
        << arg;
  }
}

TEST(Cli, DoubleDashStopsParsing) {
  // No wrapped framework consumes the arguments after a "--" separator, so
  // the separator is an error instead of a way to hide flags.
  EXPECT_THROW(static_cast<void>(parse({"--n=1", "--", "--ignored=2"})),
               std::runtime_error);
  EXPECT_THROW(static_cast<void>(parse({"--"})), std::runtime_error);
}

TEST(Cli, GetPositiveIntFallsBackWhenAbsent) {
  EXPECT_EQ(parse({}).get_positive_int("jobs", 0), 0);
  EXPECT_EQ(parse({}).get_positive_int("workers", 3), 3);
}

TEST(Cli, GetPositiveIntParsesValidValues) {
  EXPECT_EQ(parse({"--jobs=1"}).get_positive_int("jobs", 0), 1);
  EXPECT_EQ(parse({"--workers=16"}).get_positive_int("workers", 0), 16);
}

TEST(Cli, GetPositiveIntRejectsZeroNegativeAndGarbage) {
  for (const char* arg : {"--w=0", "--w=-3", "--w=abc", "--w=", "--w=4x"}) {
    EXPECT_THROW(static_cast<void>(parse({arg}).get_positive_int("w", 1)),
                 std::runtime_error)
        << arg;
  }
}

TEST(Cli, GetPositiveIntErrorNamesTheFlag) {
  try {
    static_cast<void>(parse({"--workers=0"}).get_positive_int("workers", 0));
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--workers"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("positive integer"),
              std::string::npos)
        << e.what();
  }
}

TEST(Cli, GetIntRejectsOutOfRange) {
  // strtoll saturates at the int64 limits and flags ERANGE; the saturated
  // value used to pass as if the user had typed it.
  for (const char* arg : {"--n=9223372036854775808", "--n=-9223372036854775809",
                          "--n=18446744073709551617"}) {
    EXPECT_THROW(static_cast<void>(parse({arg}).get_int("n", 0)),
                 std::runtime_error)
        << arg;
  }
  EXPECT_EQ(parse({"--n=9223372036854775807"}).get_int("n", 0),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(parse({"--n=-9223372036854775808"}).get_int("n", 0),
            std::numeric_limits<std::int64_t>::min());
}

TEST(Cli, GetDoubleRejectsNonFinite) {
  // "nan" reached SimTime::from_us in traffic_gen and collective_playground
  // (undefined behaviour), and "1e999" parses to +inf.
  for (const char* arg : {"--d=nan", "--d=-nan", "--d=NAN", "--d=inf",
                          "--d=-inf", "--d=infinity", "--d=1e999",
                          "--d=-1e999"}) {
    EXPECT_THROW(static_cast<void>(parse({arg}).get_double("d", 0.0)),
                 std::runtime_error)
        << arg;
  }
  EXPECT_DOUBLE_EQ(parse({"--d=-5"}).get_double("d", 0.0), -5.0);
  EXPECT_DOUBLE_EQ(parse({"--d=1e300"}).get_double("d", 0.0), 1e300);
}

TEST(Cli, GetIntInFallsBackWhenAbsentAndAcceptsBounds) {
  constexpr int kIntMax = std::numeric_limits<int>::max();
  EXPECT_EQ(parse({}).get_int_in("n", 4, 0), 4);
  EXPECT_EQ(parse({"--n=0"}).get_int_in("n", 4, 0), 0);
  EXPECT_EQ(parse({"--n=2147483647"}).get_int_in("n", 4, 0), kIntMax);
  EXPECT_EQ(parse({"--reps=1"}).get_positive_int("reps", 4), 1);
}

TEST(Cli, GetIntInRejectsValuesThatDoNotNarrow) {
  // --streams=4294967297 and --reps=4294967297 used to run with 1 after
  // static_cast<int>; --elements=-1 became a huge size_t.
  for (const char* arg : {"--v=4294967297", "--v=2147483648", "--v=-1",
                          "--v=18446744073709551617", "--v=abc"}) {
    EXPECT_THROW(static_cast<void>(parse({arg}).get_int_in("v", 1, 0)),
                 std::runtime_error)
        << arg;
    EXPECT_THROW(static_cast<void>(parse({arg}).get_positive_int("v", 1)),
                 std::runtime_error)
        << arg;
  }
}

TEST(Cli, GetIntInErrorNamesTheFlagAndRange) {
  try {
    static_cast<void>(
        parse({"--streams=4294967297"}).get_positive_int("streams", 4));
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--streams"), std::string::npos) << what;
    EXPECT_NE(what.find("[1, 2147483647]"), std::string::npos) << what;
    EXPECT_NE(what.find("4294967297"), std::string::npos) << what;
  }
}

TEST(Cli, UnconsumedReportsTypos) {
  const auto flags = parse({"--n=1", "--typo=2"});
  EXPECT_EQ(flags.get_int("n", 0), 1);
  const auto leftover = flags.unconsumed();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "typo");
}

}  // namespace
}  // namespace scc

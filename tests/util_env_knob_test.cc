// Tests for the strict environment-knob parsers (src/util/env_knob.h): the
// digit-only integer and decimal grammars, and the AF_CHECK failure path
// that names the variable and the value.

#include "src/util/env_knob.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/util/check.h"

namespace airfair {
namespace {

// Messages of every AF_CHECK that fails while `fn` runs.
template <typename Fn>
std::vector<std::string> FailuresDuring(Fn&& fn) {
  std::vector<std::string> messages;
  ScopedCheckFailureHandler guard(
      [&](const char*, int, const std::string& m) { messages.push_back(m); });
  fn();
  return messages;
}

TEST(ParseUint64, AcceptsDigitsUpToTheTopOfTheRange) {
  uint64_t value = 7;
  ASSERT_TRUE(ParseUint64("0", &value));
  EXPECT_EQ(value, 0u);
  ASSERT_TRUE(ParseUint64("0042", &value));
  EXPECT_EQ(value, 42u);
  ASSERT_TRUE(ParseUint64("18446744073709551615", &value));
  EXPECT_EQ(value, UINT64_MAX);
}

TEST(ParseUint64, RejectsEverythingElseAndLeavesTheOutputAlone) {
  const char* bad[] = {"", "18446744073709551616", "99999999999999999999", "-1", "+1",
                       " 1", "1 ", "64k", "1e3", "1.5", "0x10", "abc"};
  for (const char* text : bad) {
    uint64_t value = 7;
    EXPECT_FALSE(ParseUint64(text, &value)) << '"' << text << '"';
    EXPECT_EQ(value, 7u) << '"' << text << '"';
  }
}

TEST(ParsePositiveDecimal, AcceptsDigitsWithOnePoint) {
  double value = 0.0;
  ASSERT_TRUE(ParsePositiveDecimal("2", &value));
  EXPECT_EQ(value, 2.0);
  ASSERT_TRUE(ParsePositiveDecimal("2.5", &value));
  EXPECT_EQ(value, 2.5);
  ASSERT_TRUE(ParsePositiveDecimal(".5", &value));
  EXPECT_EQ(value, 0.5);
  ASSERT_TRUE(ParsePositiveDecimal("8.", &value));
  EXPECT_EQ(value, 8.0);
  ASSERT_TRUE(ParsePositiveDecimal("0.001", &value));
  EXPECT_EQ(value, 0.001);
}

TEST(ParsePositiveDecimal, RejectsSuffixesExponentsSignsZeroAndEmpty) {
  const char* bad[] = {"2x", "1e3", "", "-1", "0", "0.0", ".", "1.2.3", "+2",
                       " 2", "2 ", "inf", "nan", "0x1p3"};
  for (const char* text : bad) {
    double value = 7.0;
    EXPECT_FALSE(ParsePositiveDecimal(text, &value)) << '"' << text << '"';
    EXPECT_EQ(value, 7.0) << '"' << text << '"';
  }
}

TEST(PositiveIntFromEnv, UnsetOrEmptyGivesTheFallbackAndValidValuesPass) {
  ::unsetenv("AIRFAIR_TEST_KNOB");
  EXPECT_EQ(PositiveIntFromEnv("AIRFAIR_TEST_KNOB", 100, 5), 5u);
  ::setenv("AIRFAIR_TEST_KNOB", "", /*overwrite=*/1);
  EXPECT_EQ(PositiveIntFromEnv("AIRFAIR_TEST_KNOB", 100, 5), 5u);
  ::setenv("AIRFAIR_TEST_KNOB", "100", /*overwrite=*/1);
  EXPECT_EQ(PositiveIntFromEnv("AIRFAIR_TEST_KNOB", 100, 5), 100u);
  ::unsetenv("AIRFAIR_TEST_KNOB");
}

TEST(PositiveIntFromEnv, BadValuesFailOneCheckNamingVariableAndValue) {
  for (const char* value : {"abc", "0", "101", "1e3", "-1", "3x"}) {
    ::setenv("AIRFAIR_TEST_KNOB", value, /*overwrite=*/1);
    uint64_t result = 0;
    const std::vector<std::string> messages =
        FailuresDuring([&] { result = PositiveIntFromEnv("AIRFAIR_TEST_KNOB", 100, 5); });
    EXPECT_EQ(result, 5u) << value;
    ASSERT_EQ(messages.size(), 1u) << value;
    EXPECT_NE(messages[0].find("AIRFAIR_TEST_KNOB"), std::string::npos) << messages[0];
    EXPECT_NE(messages[0].find(value), std::string::npos) << messages[0];
  }
  ::unsetenv("AIRFAIR_TEST_KNOB");
}

TEST(PositiveDecimalFromEnv, UnsetGivesTheFallbackAndTheRangeIsInclusive) {
  ::unsetenv("AIRFAIR_TEST_KNOB");
  EXPECT_EQ(PositiveDecimalFromEnv("AIRFAIR_TEST_KNOB", 1.0, 60.0, 20.0), 20.0);
  ::setenv("AIRFAIR_TEST_KNOB", "1", /*overwrite=*/1);
  EXPECT_EQ(PositiveDecimalFromEnv("AIRFAIR_TEST_KNOB", 1.0, 60.0, 20.0), 1.0);
  ::setenv("AIRFAIR_TEST_KNOB", "2.5", /*overwrite=*/1);
  EXPECT_EQ(PositiveDecimalFromEnv("AIRFAIR_TEST_KNOB", 1.0, 60.0, 20.0), 2.5);
  ::setenv("AIRFAIR_TEST_KNOB", "60", /*overwrite=*/1);
  EXPECT_EQ(PositiveDecimalFromEnv("AIRFAIR_TEST_KNOB", 1.0, 60.0, 20.0), 60.0);
  ::unsetenv("AIRFAIR_TEST_KNOB");
}

TEST(PositiveDecimalFromEnv, BadValuesFailOneCheckNamingVariableAndValue) {
  // atof would read "2x" as 2 and "1e3" as 1000; values outside [min, max]
  // must fail rather than be clamped into range.
  for (const char* value : {"2x", "1e3", "-1", "0", "0.5", "60.5", "abc"}) {
    ::setenv("AIRFAIR_TEST_KNOB", value, /*overwrite=*/1);
    double result = 0.0;
    const std::vector<std::string> messages = FailuresDuring(
        [&] { result = PositiveDecimalFromEnv("AIRFAIR_TEST_KNOB", 1.0, 60.0, 20.0); });
    EXPECT_EQ(result, 20.0) << value;
    ASSERT_EQ(messages.size(), 1u) << value;
    EXPECT_NE(messages[0].find("AIRFAIR_TEST_KNOB"), std::string::npos) << messages[0];
    EXPECT_NE(messages[0].find(value), std::string::npos) << messages[0];
  }
  ::unsetenv("AIRFAIR_TEST_KNOB");
}

}  // namespace
}  // namespace airfair

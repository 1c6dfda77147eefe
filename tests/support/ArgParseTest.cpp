//===- tests/support/ArgParseTest.cpp -------------------------------------===//
//
// Regression tests for the strict CLI integer parsers. The two historical
// bugs these guard against: strtoll parsing "x" as 0 with no diagnostic
// (fcc-opt --run), and strtoull wrapping "-1" to 2^64-1 (fcc-batch --jobs).
//
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"

#include <gtest/gtest.h>

using namespace fcc;

namespace {

TEST(ParseInt64ArgTest, AcceptsDecimalAndSigns) {
  int64_t V = -1;
  EXPECT_TRUE(parseInt64Arg("0", V));
  EXPECT_EQ(V, 0);
  EXPECT_TRUE(parseInt64Arg("42", V));
  EXPECT_EQ(V, 42);
  EXPECT_TRUE(parseInt64Arg("-7", V));
  EXPECT_EQ(V, -7);
  EXPECT_TRUE(parseInt64Arg("+9", V));
  EXPECT_EQ(V, 9);
  EXPECT_TRUE(parseInt64Arg("9223372036854775807", V));
  EXPECT_EQ(V, INT64_MAX);
  EXPECT_TRUE(parseInt64Arg("-9223372036854775808", V));
  EXPECT_EQ(V, INT64_MIN);
}

TEST(ParseInt64ArgTest, RejectsNonNumericAndPartial) {
  int64_t V = 0;
  EXPECT_FALSE(parseInt64Arg("", V));
  EXPECT_FALSE(parseInt64Arg("x", V));
  EXPECT_FALSE(parseInt64Arg("3x", V)); // The silent-zero strtoll trap.
  EXPECT_FALSE(parseInt64Arg("x3", V));
  EXPECT_FALSE(parseInt64Arg(" 3", V));
  EXPECT_FALSE(parseInt64Arg("3 ", V));
  EXPECT_FALSE(parseInt64Arg("1.5", V));
  EXPECT_FALSE(parseInt64Arg("--5", V));
}

TEST(ParseInt64ArgTest, RejectsOverflow) {
  int64_t V = 0;
  EXPECT_FALSE(parseInt64Arg("9223372036854775808", V));
  EXPECT_FALSE(parseInt64Arg("-9223372036854775809", V));
  EXPECT_FALSE(parseInt64Arg("99999999999999999999999999", V));
}

TEST(ParseUint64ArgTest, AcceptsPlainDigits) {
  uint64_t V = 1;
  EXPECT_TRUE(parseUint64Arg("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseUint64Arg("8", V));
  EXPECT_EQ(V, 8u);
  EXPECT_TRUE(parseUint64Arg("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);
}

TEST(ParseUint64ArgTest, RejectsSignsPartialAndOverflow) {
  uint64_t V = 0;
  EXPECT_FALSE(parseUint64Arg("", V));
  EXPECT_FALSE(parseUint64Arg("-1", V)); // The strtoull wrap trap.
  EXPECT_FALSE(parseUint64Arg("+5", V));
  EXPECT_FALSE(parseUint64Arg("4x", V));
  EXPECT_FALSE(parseUint64Arg(" 4", V));
  EXPECT_FALSE(parseUint64Arg("18446744073709551616", V));
}

TEST(SplitIntListTest, ParsesCommaSeparatedValues) {
  std::vector<int64_t> Out;
  std::string Bad;
  ASSERT_TRUE(splitIntList("1,-2,30", Out, Bad));
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_EQ(Out[0], 1);
  EXPECT_EQ(Out[1], -2);
  EXPECT_EQ(Out[2], 30);

  Out.clear();
  ASSERT_TRUE(splitIntList("7", Out, Bad));
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0], 7);
}

TEST(SplitIntListTest, ReportsOffendingToken) {
  std::vector<int64_t> Out;
  std::string Bad;
  EXPECT_FALSE(splitIntList("1,x,3", Out, Bad));
  EXPECT_EQ(Bad, "x");

  Out.clear();
  EXPECT_FALSE(splitIntList("1,,2", Out, Bad));
  EXPECT_EQ(Bad, "");

  Out.clear();
  EXPECT_FALSE(splitIntList("", Out, Bad));

  Out.clear();
  EXPECT_FALSE(splitIntList("1,2,", Out, Bad));
}

TEST(WantsHelpTest, FindsHelpFlagsAnywhere) {
  char Tool[] = "tool", File[] = "in.ir", Help[] = "--help", H[] = "-h",
       Other[] = "--helpful";
  char *WithLong[] = {Tool, File, Help};
  char *WithShort[] = {Tool, H};
  char *Without[] = {Tool, File, Other};
  EXPECT_TRUE(wantsHelp(3, WithLong));
  EXPECT_TRUE(wantsHelp(2, WithShort));
  EXPECT_FALSE(wantsHelp(3, Without));
  EXPECT_FALSE(wantsHelp(1, WithLong)); // argv[0] is the program name.
}

} // namespace

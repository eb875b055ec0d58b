// Checked-in corrupt inputs (tests/testdata/corrupt/) must be rejected
// with a structured Status — never a crash, never a silently wrong
// matrix. The fixtures cover the text reader's strictness rules.

#include <gtest/gtest.h>

#include <string>

#include "matrix/matrix_io.h"

namespace dmc {
namespace {

std::string CorruptPath(const std::string& name) {
  return std::string(DMC_TESTDATA_DIR) + "/corrupt/" + name;
}

TEST(CorruptFixtureTest, UnsortedTextRejected) {
  auto parsed = ReadMatrixTextFile(CorruptPath("unsorted.txt"));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("not sorted"), std::string::npos)
      << parsed.status();
}

TEST(CorruptFixtureTest, DuplicateTextRejected) {
  auto parsed = ReadMatrixTextFile(CorruptPath("duplicate.txt"));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("duplicate column id"),
            std::string::npos)
      << parsed.status();
}

TEST(CorruptFixtureTest, OutOfRangeTextRejected) {
  auto parsed = ReadMatrixTextFile(CorruptPath("out_of_range.txt"));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("exceeds the configured maximum"),
            std::string::npos)
      << parsed.status();
}

TEST(CorruptFixtureTest, MalformedTokenRejected) {
  auto parsed = ReadMatrixTextFile(CorruptPath("malformed_token.txt"));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("malformed column id"),
            std::string::npos)
      << parsed.status();
}

}  // namespace
}  // namespace dmc

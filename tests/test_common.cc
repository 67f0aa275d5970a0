// Unit tests for the common layer: Status/Result, string utilities,
// LIKE matching and the deterministic RNG.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"

namespace periodk {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Unsupported("x").code(), StatusCode::kUnsupported);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::BindError("x").code(), StatusCode::kBindError);
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::ResourceExhausted("x").ToString(), "ResourceExhausted: x");
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> ok_result = 42;
  ASSERT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 42);
  Result<int> err_result = Status::NotFound("gone");
  ASSERT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.status().code(), StatusCode::kNotFound);
  Result<std::string> moved = std::string("abc");
  EXPECT_EQ(moved->size(), 3u);
}

TEST(StrUtilTest, StrCatAndJoin) {
  EXPECT_EQ(StrCat("a", 1, "-", 2.5), "a1-2.5");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(JoinMapped(std::vector<int>{1, 2}, "+",
                       [](int x) { return std::to_string(x * x); }),
            "1+4");
}

TEST(StrUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_TRUE(EqualsIgnoreCase("GROUP", "group"));
  EXPECT_FALSE(EqualsIgnoreCase("group", "groups"));
}

TEST(StrUtilTest, SqlLikeMatch) {
  EXPECT_TRUE(SqlLikeMatch("promo box", "promo%"));
  EXPECT_TRUE(SqlLikeMatch("promo box", "%box"));
  EXPECT_TRUE(SqlLikeMatch("promo box", "%omo%"));
  EXPECT_TRUE(SqlLikeMatch("promo box", "_romo box"));
  EXPECT_TRUE(SqlLikeMatch("", ""));
  EXPECT_TRUE(SqlLikeMatch("", "%"));
  EXPECT_FALSE(SqlLikeMatch("", "_"));
  EXPECT_FALSE(SqlLikeMatch("abc", "abcd"));
  EXPECT_FALSE(SqlLikeMatch("abc", "b%"));
  EXPECT_TRUE(SqlLikeMatch("aXbXc", "a%b%c"));
  EXPECT_TRUE(SqlLikeMatch("green forest", "%green%"));
  // Backtracking case: first % match must retreat.
  EXPECT_TRUE(SqlLikeMatch("aab", "%ab"));
}

TEST(RngTest, DeterministicAndInRange) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
  Rng r(123);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.Range(-5, 5);
    ASSERT_GE(v, -5);
    ASSERT_LE(v, 5);
    double d = r.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    ASSERT_LT(r.Uniform(10), 10u);
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace periodk

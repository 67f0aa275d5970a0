// Unit tests for the SQL lexer and parser.
#include <string>

#include <gtest/gtest.h>

#include "middleware/temporal_db.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace periodk {
namespace sql {
namespace {

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("SELECT a_1, 'it''s', 42, 3.5 <> <= -- cmt\n(");
  ASSERT_TRUE(tokens.ok());
  const std::vector<Token>& t = *tokens;
  EXPECT_EQ(t[0].type, TokenType::kIdent);
  EXPECT_EQ(t[0].text, "SELECT");
  EXPECT_EQ(t[1].text, "a_1");
  EXPECT_EQ(t[2].text, ",");
  EXPECT_EQ(t[3].type, TokenType::kString);
  EXPECT_EQ(t[3].text, "it's");
  EXPECT_EQ(t[5].type, TokenType::kInt);
  EXPECT_EQ(t[5].int_value, 42);
  EXPECT_EQ(t[7].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ(t[7].float_value, 3.5);
  EXPECT_EQ(t[8].text, "<>");
  EXPECT_EQ(t[9].text, "<=");
  EXPECT_EQ(t[10].text, "(");  // comment skipped
  EXPECT_EQ(t[11].type, TokenType::kEnd);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("SELECT 'unterminated").ok());
  EXPECT_FALSE(Tokenize("SELECT #").ok());
}

TEST(ParserTest, SimpleSelect) {
  auto stmt = Parse("SELECT name, skill FROM works WHERE skill = 'SP'");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_FALSE(stmt->snapshot);
  ASSERT_EQ(stmt->query->kind, SqlQuery::Kind::kSelect);
  const SelectQuery& s = *stmt->query->select;
  EXPECT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[0].expr->name, "name");
  ASSERT_EQ(s.from.size(), 1u);
  EXPECT_EQ(s.from[0].table, "works");
  ASSERT_NE(s.where, nullptr);
  EXPECT_EQ(s.where->ToString(), "(skill = 'SP')");
}

TEST(ParserTest, SeqVtBlockAndPeriodClause) {
  auto stmt = Parse(
      "SEQ VT (SELECT count(*) AS cnt FROM works PERIOD (ts, te) w "
      "WHERE w.skill = 'SP')");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_TRUE(stmt->snapshot);
  const SelectQuery& s = *stmt->query->select;
  EXPECT_EQ(s.from[0].period_begin, "ts");
  EXPECT_EQ(s.from[0].period_end, "te");
  EXPECT_EQ(s.from[0].alias, "w");
  EXPECT_EQ(s.items[0].alias, "cnt");
  EXPECT_EQ(s.items[0].expr->name, "count");
  EXPECT_EQ(s.items[0].expr->args[0]->kind, SqlExprKind::kStar);
}

TEST(ParserTest, SetOperationsLeftAssociative) {
  auto stmt = Parse(
      "SELECT a FROM r EXCEPT ALL SELECT a FROM s UNION ALL SELECT a FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->query->kind, SqlQuery::Kind::kUnionAll);
  EXPECT_EQ(stmt->query->left->kind, SqlQuery::Kind::kExceptAll);
}

TEST(ParserTest, JoinsAndSubqueries) {
  auto stmt = Parse(
      "SELECT e.name, x.m FROM emp e JOIN "
      "(SELECT dept, max(sal) AS m FROM salaries GROUP BY dept) AS x "
      "ON e.dept = x.dept, titles t WHERE t.emp_no = e.emp_no");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectQuery& s = *stmt->query->select;
  ASSERT_EQ(s.from.size(), 3u);
  EXPECT_EQ(s.from[1].kind, TableRef::Kind::kSubquery);
  EXPECT_EQ(s.from[1].alias, "x");
  ASSERT_EQ(s.join_conditions.size(), 1u);
}

TEST(ParserTest, ExpressionPrecedence) {
  auto stmt = Parse("SELECT a + b * 2 FROM t WHERE NOT a < 3 OR b = 1 AND c = 2");
  ASSERT_TRUE(stmt.ok());
  const SelectQuery& s = *stmt->query->select;
  EXPECT_EQ(s.items[0].expr->ToString(), "(a + (b * 2))");
  // NOT binds tighter than OR; AND tighter than OR.
  EXPECT_EQ(s.where->ToString(),
            "((not (a < 3)) or ((b = 1) and (c = 2)))");
}

TEST(ParserTest, CaseBetweenInLike) {
  auto stmt = Parse(
      "SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END FROM t "
      "WHERE a BETWEEN 1 AND 5 AND b IN (1, 2) AND c NOT LIKE '%z%' "
      "AND d IS NOT NULL");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectQuery& s = *stmt->query->select;
  EXPECT_EQ(s.items[0].expr->kind, SqlExprKind::kCase);
  EXPECT_TRUE(s.items[0].expr->has_else);
}

TEST(ParserTest, OrderByOutsideSnapshotBlock) {
  auto stmt = Parse("SEQ VT (SELECT a FROM t) ORDER BY a DESC, 2");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->order_by.size(), 2u);
  EXPECT_FALSE(stmt->order_by[0].ascending);
  EXPECT_TRUE(stmt->order_by[1].ascending);
}

TEST(ParserTest, GroupByHaving) {
  auto stmt = Parse(
      "SELECT dept, avg(sal) FROM s GROUP BY dept HAVING count(*) > 21");
  ASSERT_TRUE(stmt.ok());
  const SelectQuery& s = *stmt->query->select;
  ASSERT_EQ(s.group_by.size(), 1u);
  ASSERT_NE(s.having, nullptr);
  EXPECT_TRUE(ContainsAggregate(s.having));
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("SELECT a FROM").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t extra_token !").ok());
  EXPECT_FALSE(Parse("SEQ VT SELECT a FROM t").ok());  // missing parens
  EXPECT_FALSE(Parse("SELECT a FROM t UNION SELECT a FROM s").ok());  // no ALL
  EXPECT_FALSE(Parse("SELECT CASE END FROM t").ok());
}

// A one-row table `t(a)` behind the public entry point, so the tests
// below prove that malformed text never escapes TemporalDB::Query as an
// exception or a crash.
TemporalDB OneRowDB() {
  TemporalDB db(TimeDomain{0, 24});
  EXPECT_TRUE(db.CreateTable("t", {"a"}).ok());
  EXPECT_TRUE(db.Insert("t", {Value::Int(1)}).ok());
  return db;
}

TEST(LexerTest, OutOfRangeNumericLiteralsAreParseErrors) {
  TemporalDB db = OneRowDB();
  auto big_int = db.Query("SELECT a FROM t WHERE a = 99999999999999999999999");
  ASSERT_FALSE(big_int.ok());
  EXPECT_EQ(big_int.status().code(), StatusCode::kParseError);
  auto big_float =
      db.Query("SELECT a FROM t WHERE a = " + std::string(400, '9') + ".5");
  ASSERT_FALSE(big_float.ok());
  EXPECT_EQ(big_float.status().code(), StatusCode::kParseError);
  // The extremes that do fit are still literals.
  EXPECT_TRUE(db.Query("SELECT a FROM t WHERE a = 9223372036854775807").ok());
  auto tiny = Tokenize("0." + std::string(400, '0') + "1");
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ((*tiny)[0].type, TokenType::kFloat);
  EXPECT_GE((*tiny)[0].float_value, 0.0);
}

std::string Nested(int levels) {
  return "SELECT " + std::string(static_cast<size_t>(levels), '(') + "a" +
         std::string(static_cast<size_t>(levels), ')') + " FROM t";
}

TEST(ParserTest, NestingDepthIsBounded) {
  TemporalDB db = OneRowDB();
  auto shallow = db.Query(Nested(100));
  ASSERT_TRUE(shallow.ok()) << shallow.status().ToString();
  EXPECT_EQ(shallow->size(), 1u);
  auto deep = db.Query(Nested(20000));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kParseError);
  // Left-deep operator chains and unary chains deepen the tree the same
  // way and hit the same limit.
  std::string chain = "a";
  std::string nots;
  for (int i = 0; i < 20000; ++i) {
    chain += " + 1";
    nots += "NOT ";
  }
  EXPECT_EQ(db.Query("SELECT " + chain + " FROM t").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(db.Query("SELECT a FROM t WHERE " + nots + "a = 1").status().code(),
            StatusCode::kParseError);
  EXPECT_TRUE(Parse(Nested(kMaxNestingDepth - 8)).ok());
}

}  // namespace
}  // namespace sql
}  // namespace periodk

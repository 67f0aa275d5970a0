// Edge-case and failure-injection tests across layers: empty inputs,
// degenerate schemas, arity violations, unsupported operations inside
// snapshot blocks, and boundary time points.
#include <gtest/gtest.h>

#include "common/status.h"
#include "engine/temporal_ops.h"
#include "engine/window.h"
#include "middleware/temporal_db.h"
#include "rewrite/rewriter.h"
#include "tests/running_example.h"

namespace periodk {
namespace {

TEST(EdgeCaseTest, WindowOnEmptyRelation) {
  Relation empty(Schema::FromNames({"g", "t", "d"}));
  WindowSpec spec{{0}, {{1, true}}, WindowFunc::kRunningSumRange, 2};
  EXPECT_EQ(ApplyWindow(empty, spec, "s").size(), 0u);
}

TEST(EdgeCaseTest, WindowSinglePartitionSingleRow) {
  Relation one(Schema::FromNames({"g", "t"}));
  one.AddRow({Value::Int(1), Value::Int(5)});
  Relation lag = ApplyWindow(
      one, WindowSpec{{0}, {{1, true}}, WindowFunc::kLag, 1}, "prev");
  EXPECT_TRUE(lag.rows()[0][2].is_null());
  Relation lead = ApplyWindow(
      one, WindowSpec{{0}, {{1, true}}, WindowFunc::kLead, 1}, "next");
  EXPECT_TRUE(lead.rows()[0][2].is_null());
  Relation rn = ApplyWindow(
      one, WindowSpec{{}, {{1, true}}, WindowFunc::kRowNumber, -1}, "rn");
  EXPECT_EQ(rn.rows()[0][2], Value::Int(1));
}

TEST(EdgeCaseTest, SplitAggregateWholeDomainInterval) {
  // A tuple valid over the entire domain with gap rows enabled: exactly
  // one output fragment covering the domain.
  Relation in = EncodedRelation({"v"}, {{{Value::Int(1)}, Interval(0, 24)}});
  Relation out = SplitAggregateRelation(
      in, {}, {AggExpr{AggFunc::kCountStar, nullptr, "c"}},
      /*gap_rows=*/true, TimeDomain{0, 24});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.rows()[0][0], Value::Int(1));
  EXPECT_EQ(out.rows()[0][1], Value::Int(0));
  EXPECT_EQ(out.rows()[0][2], Value::Int(24));
}

TEST(EdgeCaseTest, GroupedGapRowsOverEmptyInputEmitNothing) {
  // Regression: grouped SplitAggregate with gap_rows over an empty
  // input used to synthesize a groups[Row{}] entry and emit a gap row
  // *missing the group columns* -- a malformed row narrower than the
  // schema.  Grouped gaps cover observed groups only; an empty input
  // observes none.
  Relation empty(Schema::FromNames({"g", "a_begin", "a_end"}));
  Relation out = SplitAggregateRelation(
      empty, {0}, {AggExpr{AggFunc::kCountStar, nullptr, "c"}},
      /*gap_rows=*/true, TimeDomain{0, 24});
  EXPECT_EQ(out.size(), 0u);
  // Rows with empty validity count as unobserved too.
  Relation degenerate(Schema::FromNames({"g", "a_begin", "a_end"}));
  degenerate.AddRow({Value::Int(1), Value::Int(5), Value::Int(5)});
  EXPECT_EQ(SplitAggregateRelation(
                degenerate, {0}, {AggExpr{AggFunc::kCountStar, nullptr, "c"}},
                /*gap_rows=*/true, TimeDomain{0, 24})
                .size(),
            0u);
  // The global (ungrouped) gap row over an empty input is still emitted.
  Relation out_global = SplitAggregateRelation(
      empty, {}, {AggExpr{AggFunc::kCountStar, nullptr, "c"}},
      /*gap_rows=*/true, TimeDomain{0, 24});
  ASSERT_EQ(out_global.size(), 1u);
  EXPECT_EQ(out_global.rows()[0][0], Value::Int(0));
  EXPECT_EQ(out_global.rows()[0][1], Value::Int(0));
  EXPECT_EQ(out_global.rows()[0][2], Value::Int(24));
}

TEST(EdgeCaseTest, AddRowRejectsArityMismatch) {
  Relation rel(Schema::FromNames({"a", "b"}));
  EXPECT_THROW(rel.AddRow({Value::Int(1)}), EngineError);
  EXPECT_THROW(rel.AddRow({Value::Int(1), Value::Int(2), Value::Int(3)}),
               EngineError);
  rel.AddRow({Value::Int(1), Value::Int(2)});
  EXPECT_EQ(rel.size(), 1u);
  // The bulk constructor applies the same check.
  EXPECT_THROW(Relation(Schema::FromNames({"a", "b"}),
                        {{Value::Int(1)}, {Value::Int(1), Value::Int(2)}}),
               EngineError);
}

TEST(EdgeCaseTest, SplitBudgetScopeEnforcesLimit) {
  Relation left = EncodedRelation({"g"}, {{{Value::Int(1)}, Interval(0, 20)}});
  Relation right(left.schema());
  for (int i = 1; i < 20; ++i) {
    right.AddRow({Value::Int(1), Value::Int(i), Value::Int(i + 1)});
  }
  {
    SplitBudgetScope budget(5);
    EXPECT_THROW(SplitRelation(left, right, {0}), SplitBudgetExceeded);
    // A tripped budget stays exhausted for the rest of the scope.
    EXPECT_THROW(SplitRelation(left, right, {0}), SplitBudgetExceeded);
  }
  // Outside the scope the same split succeeds.
  EXPECT_EQ(SplitRelation(left, right, {0}).size(), 20u);
}

TEST(EdgeCaseTest, PlanBuilderArityValidation) {
  PlanPtr narrow = MakeScan("t", Schema::FromNames({"a"}));
  PlanPtr wide = MakeScan("u", Schema::FromNames({"a", "b"}));
  EXPECT_THROW(MakeUnionAll(narrow, wide), EngineError);
  EXPECT_THROW(MakeExceptAll(narrow, wide), EngineError);
  EXPECT_THROW(MakeAntiJoin(narrow, wide), EngineError);
  EXPECT_THROW(MakeCoalesce(MakeScan("t", Schema::FromNames({"a"}))),
               EngineError);
  EXPECT_THROW(MakeTimeslice(MakeScan("t", Schema::FromNames({"a"})), 0),
               EngineError);
  EXPECT_THROW(MakeProject(narrow, {Col(0)}, {}), EngineError);
}

TEST(EdgeCaseTest, RewriterRejectsUnsupportedOperators) {
  SnapshotRewriter rewriter(kExampleDomain, RewriteOptions{});
  PlanPtr sorted = MakeSort(MakeScan("works", WorksSnapshotSchema()),
                            {SortKey{0, true}});
  EXPECT_THROW(rewriter.Rewrite(sorted), EngineError);
}

TEST(EdgeCaseTest, TemporalColumnsMustBeIntegers) {
  Relation bad(Schema::FromNames({"v", "a_begin", "a_end"}));
  bad.AddRow({Value::Int(1), Value::String("x"), Value::Int(5)});
  EXPECT_THROW(CoalesceNative(bad), EngineError);
  EXPECT_THROW(TimesliceEncoded(bad, 1), EngineError);
}

TEST(EdgeCaseTest, SnapshotQueryOverEmptyTables) {
  TemporalDB db(TimeDomain{0, 50});
  ASSERT_TRUE(db.CreatePeriodTable("t", {"v", "b", "e"}, "b", "e").ok());
  // Global aggregation over an empty period table: one gap row covering
  // the whole domain with count 0.
  auto result = db.Query("SEQ VT (SELECT count(*) AS c FROM t)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->rows()[0][0], Value::Int(0));
  EXPECT_EQ(result->rows()[0][1], Value::Int(0));
  EXPECT_EQ(result->rows()[0][2], Value::Int(50));
  // Non-aggregate snapshot query: empty result.
  auto plain = db.Query("SEQ VT (SELECT v FROM t)");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->size(), 0u);
}

TEST(EdgeCaseTest, IntervalsTouchingDomainBounds) {
  TemporalDB db(TimeDomain{0, 10});
  ASSERT_TRUE(db.CreatePeriodTable("t", {"v", "b", "e"}, "b", "e").ok());
  ASSERT_TRUE(
      db.Insert("t", {Value::Int(1), Value::Int(0), Value::Int(10)}).ok());
  ASSERT_TRUE(
      db.Insert("t", {Value::Int(2), Value::Int(9), Value::Int(10)}).ok());
  auto result = db.Query("SEQ VT (SELECT count(*) AS c FROM t)");
  ASSERT_TRUE(result.ok());
  Relation expected = EncodedRelation({"c"},
                                      {{{Value::Int(1)}, Interval(0, 9)},
                                       {{Value::Int(2)}, Interval(9, 10)}});
  EXPECT_TRUE(result->BagEquals(expected)) << result->ToString();
}

TEST(EdgeCaseTest, InnerOrderByIsRejected) {
  TemporalDB db(TimeDomain{0, 10});
  ASSERT_TRUE(db.CreatePeriodTable("t", {"v", "b", "e"}, "b", "e").ok());
  // ORDER BY belongs outside the SEQ VT block (paper Sec. 10.1).
  auto result = db.Query("SEQ VT (SELECT v FROM t ORDER BY v)");
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(EdgeCaseTest, JoinOfTableWithItselfUnderSnapshots) {
  TemporalDB db(TimeDomain{0, 24});
  ASSERT_TRUE(
      db.PutPeriodTable("works", WorksRelation(), "a_begin", "a_end").ok());
  // Pairs of distinct workers sharing a skill at the same time.
  auto result = db.Query(
      "SEQ VT (SELECT a.name, b.name FROM works a, works b "
      "WHERE a.skill = b.skill AND a.name < b.name)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Relation expected = EncodedRelation(
      {"name", "name_b"},
      {{{Value::String("Ann"), Value::String("Sam")}, Interval(8, 10)}});
  EXPECT_TRUE(result->BagEquals(expected)) << result->ToString();
}

TEST(EdgeCaseTest, LargeMultiplicityCoalescing) {
  // 500 duplicates of one tuple over one interval: coalesce keeps the
  // multiplicity (500 identical rows), no quadratic surprises.
  Relation in(Schema::FromNames({"v", "a_begin", "a_end"}));
  for (int i = 0; i < 500; ++i) {
    in.AddRow({Value::Int(7), Value::Int(10), Value::Int(20)});
  }
  Relation out = CoalesceNative(in);
  EXPECT_EQ(out.size(), 500u);
  EXPECT_TRUE(CoalesceWindow(in).BagEquals(out));
}

}  // namespace
}  // namespace periodk

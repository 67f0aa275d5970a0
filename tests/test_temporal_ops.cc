// Tests for the physical temporal operators: multiset coalescing (both
// implementations, Def 8.2), the split operator (Def 8.3), the fused
// split+aggregate (Sec. 9) and the timeslice, including randomized
// cross-checks between the native and window implementations.
#include "engine/temporal_ops.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "rewrite/period_enc.h"
#include "tests/running_example.h"

namespace periodk {
namespace {

Relation SalariesExample() {
  // Paper Figure 3: S(sal, period).
  return EncodedRelation(
      {"sal"}, {{{Value::Int(50)}, Interval(1, 13)},
                {{Value::Int(30)}, Interval(3, 13)},
                {{Value::Int(30)}, Interval(3, 10)},
                {{Value::Int(40)}, Interval(11, 13)}});
}

Relation CoalescedSalaries() {
  // N-coalesced: 30k twice in [3,10), once in [10,13); others unchanged.
  return EncodedRelation(
      {"sal"}, {{{Value::Int(50)}, Interval(1, 13)},
                {{Value::Int(30)}, Interval(3, 10)},
                {{Value::Int(30)}, Interval(3, 10)},
                {{Value::Int(30)}, Interval(10, 13)},
                {{Value::Int(40)}, Interval(11, 13)}});
}

TEST(CoalesceOpTest, PaperFigure3Native) {
  Relation out = CoalesceNative(SalariesExample());
  EXPECT_TRUE(out.BagEquals(CoalescedSalaries()));
}

TEST(CoalesceOpTest, PaperFigure3Window) {
  Relation out = CoalesceWindow(SalariesExample());
  EXPECT_TRUE(out.BagEquals(CoalescedSalaries()));
}

TEST(CoalesceOpTest, IdempotentAndCanonical) {
  Relation once = CoalesceNative(SalariesExample());
  Relation twice = CoalesceNative(once);
  EXPECT_TRUE(once.BagEquals(twice));
}

TEST(CoalesceOpTest, MergesAdjacentEqualMultiplicity) {
  Relation in = EncodedRelation({"v"}, {{{Value::Int(1)}, Interval(0, 5)},
                                        {{Value::Int(1)}, Interval(5, 9)}});
  Relation expect =
      EncodedRelation({"v"}, {{{Value::Int(1)}, Interval(0, 9)}});
  EXPECT_TRUE(CoalesceNative(in).BagEquals(expect));
  EXPECT_TRUE(CoalesceWindow(in).BagEquals(expect));
}

TEST(CoalesceOpTest, EmptyAndDegenerateIntervals) {
  Relation empty(Schema::FromNames({"v", "a_begin", "a_end"}));
  EXPECT_EQ(CoalesceNative(empty).size(), 0u);
  EXPECT_EQ(CoalesceWindow(empty).size(), 0u);
  // Degenerate (b >= e) rows encode nothing.
  Relation degenerate = EncodedRelation({"v"}, {});
  degenerate.AddRow({Value::Int(1), Value::Int(5), Value::Int(5)});
  EXPECT_EQ(CoalesceNative(degenerate).size(), 0u);
}

TEST(CoalesceOpTest, NullValuesFormTheirOwnGroup) {
  Relation in(Schema::FromNames({"v", "a_begin", "a_end"}));
  in.AddRow({Value::Null(), Value::Int(0), Value::Int(5)});
  in.AddRow({Value::Null(), Value::Int(3), Value::Int(8)});
  Relation out = CoalesceNative(in);
  // {[0,3)->1, [3,5)->2, [5,8)->1} for the NULL tuple.
  EXPECT_EQ(out.size(), 4u);
}

TEST(CoalesceOpTest, RandomizedNativeEqualsWindowEqualsLogicalModel) {
  Rng rng(0xc0a1e5ce);
  TimeDomain dom{0, 30};
  for (int iter = 0; iter < 60; ++iter) {
    Relation in(Schema::FromNames({"a", "b", "a_begin", "a_end"}));
    int n = static_cast<int>(rng.Uniform(40));
    for (int i = 0; i < n; ++i) {
      TimePoint b = rng.Range(0, 28);
      TimePoint e = rng.Range(b + 1, 29);
      in.AddRow({Value::Int(rng.Range(0, 2)), Value::Int(rng.Range(0, 1)),
                 Value::Int(b), Value::Int(e)});
    }
    Relation native = CoalesceNative(in);
    Relation window = CoalesceWindow(in);
    ASSERT_TRUE(native.BagEquals(window))
        << "native:\n" << native.ToString() << "window:\n"
        << window.ToString();
    // Against the logical model: coalescing the engine encoding must
    // equal the PERIODENC image of the decoded (coalesced) N^T relation.
    Relation logical = PeriodEnc(PeriodDec(in, dom), in.schema().Prefix(2));
    ASSERT_TRUE(native.BagEquals(logical));
    // Snapshot equivalence with the input is preserved.
    ASSERT_TRUE(SnapshotEquivalentEncodings(in, native, dom));
  }
}

TEST(SplitOpTest, FragmentsAtGroupMateEndpoints) {
  Relation left = EncodedRelation({"g"}, {{{Value::Int(1)}, Interval(0, 10)}});
  Relation right = EncodedRelation({"g"}, {{{Value::Int(1)}, Interval(3, 6)},
                                           {{Value::Int(2)}, Interval(4, 5)}});
  Relation out = SplitRelation(left, right, {0});
  // Group 1 endpoints: 0,10 (left) + 3,6 (right) -> [0,3),[3,6),[6,10).
  // Group-2 endpoints (4,5) must NOT split group 1.
  Relation expect = EncodedRelation({"g"},
                                    {{{Value::Int(1)}, Interval(0, 3)},
                                     {{Value::Int(1)}, Interval(3, 6)},
                                     {{Value::Int(1)}, Interval(6, 10)}});
  EXPECT_TRUE(out.BagEquals(expect));
}

TEST(SplitOpTest, EmptyGroupListAlignsEverything) {
  Relation left = EncodedRelation({"g"}, {{{Value::Int(1)}, Interval(0, 10)}});
  Relation right = EncodedRelation({"g"}, {{{Value::Int(2)}, Interval(4, 5)}});
  Relation out = SplitRelation(left, right, {});
  EXPECT_EQ(out.size(), 3u);  // [0,4), [4,5), [5,10)
}

TEST(SplitOpTest, PreservesSnapshots) {
  Rng rng(0x5011701);
  TimeDomain dom{0, 20};
  for (int iter = 0; iter < 40; ++iter) {
    Relation in(Schema::FromNames({"g", "a_begin", "a_end"}));
    int n = static_cast<int>(rng.Uniform(20)) + 1;
    for (int i = 0; i < n; ++i) {
      TimePoint b = rng.Range(0, 18);
      TimePoint e = rng.Range(b + 1, 19);
      in.AddRow({Value::Int(rng.Range(0, 2)), Value::Int(b), Value::Int(e)});
    }
    Relation split = SplitRelation(in, in, {0});
    ASSERT_TRUE(SnapshotEquivalentEncodings(in, split, dom));
    // Fragments of the same group are equal or disjoint.
    for (const Row& a : split.rows()) {
      for (const Row& b : split.rows()) {
        if (a[0] != b[0]) continue;
        Interval ia(a[1].AsInt(), a[2].AsInt());
        Interval ib(b[1].AsInt(), b[2].AsInt());
        ASSERT_TRUE(ia == ib || !ia.Overlaps(ib))
            << ia.ToString() << " vs " << ib.ToString();
      }
    }
  }
}

TEST(SplitAggregateTest, GlobalCountWithGaps) {
  // The Q_onduty aggregation from the running example, fused.
  Catalog cat = ExampleCatalog();
  Relation sp(Schema::FromNames({"one", "a_begin", "a_end"}));
  for (const Row& row : cat.Get("works").rows()) {
    if (row[1] == Value::String("SP")) {
      sp.AddRow({Value::Int(1), row[2], row[3]});
    }
  }
  Relation out = SplitAggregateRelation(
      sp, {}, {AggExpr{AggFunc::kCountStar, nullptr, "cnt"}},
      /*gap_rows=*/true, kExampleDomain);
  Relation expect = EncodedRelation({"cnt"},
                                    {{{Value::Int(0)}, Interval(0, 3)},
                                     {{Value::Int(1)}, Interval(3, 8)},
                                     {{Value::Int(2)}, Interval(8, 10)},
                                     {{Value::Int(1)}, Interval(10, 16)},
                                     {{Value::Int(0)}, Interval(16, 18)},
                                     {{Value::Int(1)}, Interval(18, 20)},
                                     {{Value::Int(0)}, Interval(20, 24)}});
  EXPECT_TRUE(CoalesceNative(out).BagEquals(expect))
      << CoalesceNative(out).ToString();
}

TEST(SplitAggregateTest, EmptyInputStillCoversDomainWithGaps) {
  Relation in(Schema::FromNames({"v", "a_begin", "a_end"}));
  Relation out = SplitAggregateRelation(
      in, {}, {AggExpr{AggFunc::kCountStar, nullptr, "cnt"},
               AggExpr{AggFunc::kSum, Col(0), "s"}},
      /*gap_rows=*/true, TimeDomain{0, 10});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.rows()[0][0], Value::Int(0));
  EXPECT_TRUE(out.rows()[0][1].is_null());
  EXPECT_EQ(out.rows()[0][2], Value::Int(0));
  EXPECT_EQ(out.rows()[0][3], Value::Int(10));
}

TEST(SplitAggregateTest, GapRowsClampedToDomain) {
  // Input intervals exceeding [tmin, tmax) must not produce fragments
  // outside the declared domain (regression: the gap sweep used to emit
  // them verbatim).
  TimeDomain domain{0, 24};
  std::vector<AggExpr> aggs = {AggExpr{AggFunc::kCountStar, nullptr, "cnt"}};
  auto run = [&](std::vector<std::pair<TimePoint, TimePoint>> intervals) {
    Relation in(Schema::FromNames({"v", "a_begin", "a_end"}));
    for (auto [b, e] : intervals) {
      in.AddRow({Value::Int(1), Value::Int(b), Value::Int(e)});
    }
    return SplitAggregateRelation(in, {}, aggs, /*gap_rows=*/true, domain);
  };
  // Straddles the lower bound.
  Relation below = run({{-5, 10}});
  Relation expect_below =
      EncodedRelation({"cnt"}, {{{Value::Int(1)}, Interval(0, 10)},
                                {{Value::Int(0)}, Interval(10, 24)}});
  EXPECT_TRUE(below.BagEquals(expect_below)) << below.ToString();
  // Straddles the upper bound.
  Relation above = run({{20, 30}});
  Relation expect_above =
      EncodedRelation({"cnt"}, {{{Value::Int(0)}, Interval(0, 20)},
                                {{Value::Int(1)}, Interval(20, 24)}});
  EXPECT_TRUE(above.BagEquals(expect_above)) << above.ToString();
  // Straddles both bounds at once.
  Relation both = run({{-5, 30}});
  Relation expect_both =
      EncodedRelation({"cnt"}, {{{Value::Int(1)}, Interval(0, 24)}});
  EXPECT_TRUE(both.BagEquals(expect_both)) << both.ToString();
  // Entirely outside the domain: only the full-domain gap row remains.
  Relation outside = run({{30, 40}, {-9, -2}});
  Relation expect_outside =
      EncodedRelation({"cnt"}, {{{Value::Int(0)}, Interval(0, 24)}});
  EXPECT_TRUE(outside.BagEquals(expect_outside)) << outside.ToString();
}

TEST(SplitAggregateTest, GroupedGapRowsClampedToDomain) {
  TimeDomain domain{0, 24};
  Relation in(Schema::FromNames({"g", "a_begin", "a_end"}));
  in.AddRow({Value::Int(1), Value::Int(-5), Value::Int(30)});
  in.AddRow({Value::Int(2), Value::Int(5), Value::Int(30)});
  Relation out = SplitAggregateRelation(
      in, {0}, {AggExpr{AggFunc::kCountStar, nullptr, "cnt"}},
      /*gap_rows=*/true, domain);
  Relation expect(out.schema());
  expect.AddRow({Value::Int(1), Value::Int(1), Value::Int(0), Value::Int(24)});
  expect.AddRow({Value::Int(2), Value::Int(0), Value::Int(0), Value::Int(5)});
  expect.AddRow({Value::Int(2), Value::Int(1), Value::Int(5), Value::Int(24)});
  EXPECT_TRUE(out.BagEquals(expect)) << out.ToString();
}

TEST(SplitAggregateTest, GroupedMinMaxSweep) {
  Relation in(Schema::FromNames({"g", "v", "a_begin", "a_end"}));
  auto add = [&](int64_t g, int64_t v, int64_t b, int64_t e) {
    in.AddRow({Value::Int(g), Value::Int(v), Value::Int(b), Value::Int(e)});
  };
  add(1, 10, 0, 10);
  add(1, 30, 2, 6);
  add(1, 20, 4, 8);
  Relation out = SplitAggregateRelation(
      in, {0},
      {AggExpr{AggFunc::kMin, Col(1), "lo"},
       AggExpr{AggFunc::kMax, Col(1), "hi"},
       AggExpr{AggFunc::kAvg, Col(1), "av"}},
      /*gap_rows=*/false, TimeDomain{0, 12});
  // Segments: [0,2): {10}; [2,4): {10,30}; [4,6): {10,30,20};
  //           [6,8): {10,20}; [8,10): {10}.
  Relation expect(out.schema());
  auto row = [&](int64_t b, int64_t e, int64_t lo, int64_t hi, double av) {
    expect.AddRow({Value::Int(1), Value::Int(lo), Value::Int(hi),
                   Value::Double(av), Value::Int(b), Value::Int(e)});
  };
  row(0, 2, 10, 10, 10.0);
  row(2, 4, 10, 30, 20.0);
  row(4, 6, 10, 30, 20.0);
  row(6, 8, 10, 20, 15.0);
  row(8, 10, 10, 10, 10.0);
  EXPECT_TRUE(out.BagEquals(expect)) << out.ToString();
}

TEST(SplitAggregateTest, PreAggregationOnOffAgree) {
  Rng rng(0xa66a66);
  for (int iter = 0; iter < 40; ++iter) {
    Relation in(Schema::FromNames({"g", "v", "a_begin", "a_end"}));
    int n = static_cast<int>(rng.Uniform(30));
    for (int i = 0; i < n; ++i) {
      TimePoint b = rng.Range(0, 14);
      TimePoint e = rng.Range(b + 1, 15);
      in.AddRow({Value::Int(rng.Range(0, 2)), Value::Int(rng.Range(0, 50)),
                 Value::Int(b), Value::Int(e)});
    }
    std::vector<AggExpr> aggs = {
        AggExpr{AggFunc::kCountStar, nullptr, "c"},
        AggExpr{AggFunc::kSum, Col(1), "s"},
        AggExpr{AggFunc::kMin, Col(1), "lo"},
        AggExpr{AggFunc::kMax, Col(1), "hi"}};
    Relation with = SplitAggregateRelation(in, {0}, aggs, false,
                                           TimeDomain{0, 16}, true);
    Relation without = SplitAggregateRelation(in, {0}, aggs, false,
                                              TimeDomain{0, 16}, false);
    ASSERT_TRUE(with.BagEquals(without))
        << "with:\n" << with.ToString() << "without:\n" << without.ToString();
  }
}

TEST(TimesliceTest, ExtractsSnapshot) {
  Relation works = WorksRelation();
  Relation at8 = TimesliceEncoded(works, 8);
  Relation expect(Schema::FromNames({"name", "skill"}));
  expect.AddRow({Value::String("Ann"), Value::String("SP")});
  expect.AddRow({Value::String("Joe"), Value::String("NS")});
  expect.AddRow({Value::String("Sam"), Value::String("SP")});
  EXPECT_TRUE(at8.BagEquals(expect));
  EXPECT_EQ(TimesliceEncoded(works, 0).size(), 0u);
  EXPECT_EQ(TimesliceEncoded(works, 23).size(), 0u);
  // Half-open semantics: end point excluded, begin included.
  EXPECT_EQ(TimesliceEncoded(works, 3).size(), 1u);
  EXPECT_EQ(TimesliceEncoded(works, 10).size(), 2u);
}

// --- Endpoint arithmetic at the int64 extremes.  A TimeDomain touching
// INT64_MIN / INT64_MAX must flow through timeslice, split and the
// gap-row synthesis without overflow (the sanitizer CI jobs turn any
// regression here into a hard failure). ------------------------------------

constexpr TimePoint kTimeMin = std::numeric_limits<int64_t>::min();
constexpr TimePoint kTimeMax = std::numeric_limits<int64_t>::max();

TEST(ExtremeDomainTest, TimesliceAtBothExtremes) {
  Relation rel(Schema::FromNames({"v", "b", "e"}));
  rel.AddRow({Value::Int(1), Value::Int(kTimeMin), Value::Int(kTimeMax)});
  rel.AddRow({Value::Int(2), Value::Int(kTimeMin), Value::Int(kTimeMin + 1)});
  rel.AddRow({Value::Int(3), Value::Int(kTimeMax - 1), Value::Int(kTimeMax)});
  EXPECT_EQ(TimesliceEncoded(rel, kTimeMin).size(), 2u);
  EXPECT_EQ(TimesliceEncoded(rel, kTimeMax - 1).size(), 2u);
  EXPECT_EQ(TimesliceEncoded(rel, 0).size(), 1u);
  // tmax itself is exclusive in every interval, so nothing is valid.
  EXPECT_EQ(TimesliceEncoded(rel, kTimeMax).size(), 0u);
}

TEST(ExtremeDomainTest, SplitAtBothExtremes) {
  Relation left(Schema::FromNames({"k", "b", "e"}));
  left.AddRow({Value::Int(1), Value::Int(kTimeMin), Value::Int(kTimeMax)});
  Relation right(Schema::FromNames({"k", "b", "e"}));
  right.AddRow({Value::Int(1), Value::Int(-5), Value::Int(7)});
  Relation out = SplitRelation(left, right, {0});
  // The full-domain interval splits at -5 and 7 into three fragments.
  Relation expect(left.schema());
  expect.AddRow({Value::Int(1), Value::Int(kTimeMin), Value::Int(-5)});
  expect.AddRow({Value::Int(1), Value::Int(-5), Value::Int(7)});
  expect.AddRow({Value::Int(1), Value::Int(7), Value::Int(kTimeMax)});
  EXPECT_TRUE(out.BagEquals(expect)) << out.ToString();
}

TEST(ExtremeDomainTest, GapRowSynthesisOverFullInt64Domain) {
  Relation rel(Schema::FromNames({"v", "b", "e"}));
  rel.AddRow({Value::Int(5), Value::Int(-3), Value::Int(4)});
  std::vector<AggExpr> aggs{AggExpr{AggFunc::kCountStar, nullptr, "cnt"}};
  TimeDomain full{kTimeMin, kTimeMax};
  Relation out = SplitAggregateRelation(rel, {}, aggs, /*gap_rows=*/true,
                                        full);
  Relation expect(Schema::FromNames({"cnt", "a_begin", "a_end"}));
  expect.AddRow({Value::Int(0), Value::Int(kTimeMin), Value::Int(-3)});
  expect.AddRow({Value::Int(1), Value::Int(-3), Value::Int(4)});
  expect.AddRow({Value::Int(0), Value::Int(4), Value::Int(kTimeMax)});
  EXPECT_TRUE(out.BagEquals(expect)) << out.ToString();
  // Empty input over the full domain: one all-gap row.
  Relation empty(Schema::FromNames({"v", "b", "e"}));
  Relation gap = SplitAggregateRelation(empty, {}, aggs, true, full);
  ASSERT_EQ(gap.size(), 1u);
  EXPECT_EQ(gap.rows()[0][1].AsInt(), kTimeMin);
  EXPECT_EQ(gap.rows()[0][2].AsInt(), kTimeMax);
}

TEST(ExtremeDomainTest, RunningSumWidensInsteadOfOverflowing) {
  // Two overlapping rows whose summed attribute is INT64_MAX-scale: the
  // running sum in the overlap fragment cannot fit int64 and must widen
  // to a double instead of wrapping (previously UB).
  Relation rel(Schema::FromNames({"v", "b", "e"}));
  rel.AddRow({Value::Int(kTimeMax - 1), Value::Int(0), Value::Int(10)});
  rel.AddRow({Value::Int(kTimeMax - 2), Value::Int(5), Value::Int(15)});
  std::vector<AggExpr> aggs{AggExpr{AggFunc::kSum, Col(0), "s"}};
  TimeDomain domain{0, 20};
  Relation out = SplitAggregateRelation(rel, {}, aggs, /*gap_rows=*/false,
                                        domain);
  ASSERT_EQ(out.size(), 3u);
  bool saw_overlap = false;
  for (const Row& row : out.rows()) {
    TimePoint b = row[1].AsInt();
    if (b == 5) {
      // Overlap fragment [5, 10): the sum of both values, as a double.
      ASSERT_EQ(row[0].type(), ValueType::kDouble);
      EXPECT_NEAR(row[0].AsDouble(), 2.0 * 9.223372036854775e18, 1e7);
      saw_overlap = true;
    } else {
      // Single-value fragments stay exact integers.
      ASSERT_EQ(row[0].type(), ValueType::kInt);
    }
  }
  EXPECT_TRUE(saw_overlap) << out.ToString();
}

TEST(ExtremeDomainTest, RunningSumStaysExactAfterTransientOverflow) {
  // Three rows: the middle fragment transiently overflows int64, but
  // once the huge values close again the remaining fragment must come
  // back as the exact integer (the 128-bit running sum never loses it).
  Relation rel(Schema::FromNames({"v", "b", "e"}));
  rel.AddRow({Value::Int(kTimeMax - 1), Value::Int(0), Value::Int(10)});
  rel.AddRow({Value::Int(kTimeMax - 2), Value::Int(0), Value::Int(10)});
  rel.AddRow({Value::Int(42), Value::Int(10), Value::Int(20)});
  std::vector<AggExpr> aggs{AggExpr{AggFunc::kSum, Col(0), "s"}};
  TimeDomain domain{0, 30};
  Relation out = SplitAggregateRelation(rel, {}, aggs, /*gap_rows=*/false,
                                        domain);
  ASSERT_EQ(out.size(), 2u);
  for (const Row& row : out.rows()) {
    if (row[1].AsInt() == 10) {
      ASSERT_EQ(row[0].type(), ValueType::kInt) << out.ToString();
      EXPECT_EQ(row[0].AsInt(), 42);
    }
  }
}

TEST(ExtremeDomainTest, PlainAggregateSumWidensOnOverflow) {
  AggState state;
  state.Accumulate(Value::Int(kTimeMax - 1));
  state.Accumulate(Value::Int(kTimeMax - 2));
  Value sum = state.Finalize(AggFunc::kSum, 2);
  ASSERT_EQ(sum.type(), ValueType::kDouble);
  EXPECT_NEAR(sum.AsDouble(), 2.0 * 9.223372036854775e18, 1e7);
}

TEST(ExtremeDomainTest, CoalesceBothImplsAtBothExtremes) {
  Relation rel(Schema::FromNames({"k", "b", "e"}));
  rel.AddRow({Value::Int(1), Value::Int(kTimeMin), Value::Int(0)});
  rel.AddRow({Value::Int(1), Value::Int(0), Value::Int(kTimeMax)});
  rel.AddRow({Value::Int(1), Value::Int(kTimeMax), Value::Int(kTimeMax)});
  Relation native = CoalesceNative(rel);
  Relation window = CoalesceWindow(rel);
  Relation expect(rel.schema());
  expect.AddRow({Value::Int(1), Value::Int(kTimeMin), Value::Int(kTimeMax)});
  EXPECT_TRUE(native.BagEquals(expect)) << native.ToString();
  EXPECT_TRUE(window.BagEquals(expect)) << window.ToString();
}

// --- Native vs window coalescing on degenerate inputs: both must drop
// empty intervals (begin >= end) identically.  Randomized equivalence
// over inputs dense in empty, touching and duplicate intervals. ------------

TEST(CoalesceEquivalenceTest, DegenerateRowsWithBeginEqualEnd) {
  Relation rel(Schema::FromNames({"k", "b", "e"}));
  rel.AddRow({Value::Int(1), Value::Int(2), Value::Int(2)});  // empty
  rel.AddRow({Value::Int(1), Value::Int(1), Value::Int(2)});
  rel.AddRow({Value::Int(1), Value::Int(2), Value::Int(3)});  // touching
  rel.AddRow({Value::Int(1), Value::Int(5), Value::Int(4)});  // reversed
  rel.AddRow({Value::Int(2), Value::Int(7), Value::Int(7)});  // group of empties
  Relation native = CoalesceNative(rel);
  Relation window = CoalesceWindow(rel);
  Relation expect(rel.schema());
  expect.AddRow({Value::Int(1), Value::Int(1), Value::Int(3)});
  EXPECT_TRUE(native.BagEquals(expect)) << native.ToString();
  EXPECT_TRUE(window.BagEquals(expect)) << window.ToString();
}

TEST(CoalesceEquivalenceTest, RandomizedWithEmptyAndTouchingIntervals) {
  Rng rng(20260731);
  for (int iter = 0; iter < 400; ++iter) {
    Relation rel(Schema::FromNames({"k", "b", "e"}));
    int n = static_cast<int>(rng.Uniform(8)) + 1;
    for (int i = 0; i < n; ++i) {
      // Endpoints from a tiny pool so empty (b == e), reversed, touching
      // and duplicate intervals are all frequent.
      TimePoint b = rng.Range(0, 6);
      TimePoint e = rng.Chance(0.3) ? b : rng.Range(0, 6);
      rel.AddRow({Value::Int(rng.Range(0, 2)), Value::Int(b), Value::Int(e)});
    }
    Relation native = CoalesceNative(rel);
    Relation window = CoalesceWindow(rel);
    ASSERT_TRUE(native.BagEquals(window))
        << "iter " << iter << "\ninput:\n" << rel.ToString()
        << "native:\n" << native.ToString()
        << "window:\n" << window.ToString();
  }
}

}  // namespace
}  // namespace periodk

// Unit tests for every physical operator in the evaluator.
#include <gtest/gtest.h>

#include "exec/evaluator.h"
#include "plan/builder.h"
#include "reference_ops.h"

namespace apq {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ints_ = Column::MakeInt64("ints", {5, 1, 7, 3, 9, 2, 8, 4, 6, 0});
    floats_ = Column::MakeFloat64(
        "floats", {0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5});
    strs_ = Column::MakeString("strs", {"PROMO A", "PLAIN B", "PROMO C",
                                        "PLAIN D", "PROMO E", "PLAIN F",
                                        "PROMO G", "PLAIN H", "PROMO I",
                                        "PLAIN J"});
    fk_ = Column::MakeInt64("fk", {0, 1, 2, 0, 1, 2, 0, 1, 2, 0});
    pk_ = Column::MakeInt64("pk", {0, 1, 2});
    dim_ = Column::MakeFloat64("dimval", {10.0, 20.0, 30.0});
  }

  Intermediate Run(QueryPlan plan) {
    EvalResult er;
    Status st = eval_.Execute(plan, &er);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return er.result;
  }

  ColumnPtr ints_, floats_, strs_, fk_, pk_, dim_;
  Evaluator eval_;
};

TEST_F(EvaluatorTest, SelectRange) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(3, 7));
  Intermediate r = Run(b.Result(sel));
  ASSERT_EQ(r.kind, Intermediate::Kind::kRowIds);
  EXPECT_EQ(r.rowids, (std::vector<oid>{0, 2, 3, 7, 8}));  // 5,7,3,4,6
  EXPECT_EQ(r.origin, (RowRange{0, 10}));
}

TEST_F(EvaluatorTest, SelectEquality) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::EqI64(9));
  Intermediate r = Run(b.Result(sel));
  EXPECT_EQ(r.rowids, (std::vector<oid>{4}));
}

TEST_F(EvaluatorTest, SelectFloatRange) {
  PlanBuilder b("t");
  int sel = b.Select(floats_.get(), Predicate::RangeF64(2.0, 4.0));
  Intermediate r = Run(b.Result(sel));
  EXPECT_EQ(r.rowids, (std::vector<oid>{2, 3}));  // 2.5, 3.5
}

TEST_F(EvaluatorTest, SelectLike) {
  PlanBuilder b("t");
  int sel = b.Select(strs_.get(), Predicate::Like("PROMO"));
  Intermediate r = Run(b.Result(sel));
  EXPECT_EQ(r.rowids, (std::vector<oid>{0, 2, 4, 6, 8}));
}

TEST_F(EvaluatorTest, SelectLikeAnti) {
  PlanBuilder b("t");
  int sel = b.Select(strs_.get(), Predicate::Like("PROMO", /*anti=*/true));
  Intermediate r = Run(b.Result(sel));
  EXPECT_EQ(r.rowids, (std::vector<oid>{1, 3, 5, 7, 9}));
}

TEST_F(EvaluatorTest, SelectWithCandidates) {
  PlanBuilder b("t");
  int s1 = b.Select(ints_.get(), Predicate::RangeI64(3, 9));
  int s2 = b.Select(floats_.get(), Predicate::RangeF64(0.0, 4.9), s1);
  Intermediate r = Run(b.Result(s2));
  // s1 -> rows {0,2,3,4,7,8}; floats at those rows: .5,2.5,3.5,4.5,7.5,8.5.
  EXPECT_EQ(r.rowids, (std::vector<oid>{0, 2, 3, 4}));
}

TEST_F(EvaluatorTest, SelectLikeOnNonStringFails) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::Like("x"));
  QueryPlan plan = b.Result(sel);
  EvalResult er;
  Status st = eval_.Execute(plan, &er);
  EXPECT_FALSE(st.ok());
}

TEST_F(EvaluatorTest, FetchJoinGathersValues) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(7, 9));
  int f = b.FetchJoin(floats_.get(), sel);
  Intermediate r = Run(b.Result(f));
  ASSERT_EQ(r.kind, Intermediate::Kind::kValues);
  // matches rows {2,4,6} -> floats 2.5, 4.5, 6.5
  ASSERT_EQ(r.values.size(), 3u);
  EXPECT_DOUBLE_EQ(r.values.f64[0], 2.5);
  EXPECT_DOUBLE_EQ(r.values.f64[2], 6.5);
  EXPECT_EQ(r.head, (std::vector<oid>{2, 4, 6}));
}

TEST_F(EvaluatorTest, FetchJoinSliceClipsUnderAdjustPolicy) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));  // all rows
  int f = b.FetchJoin(floats_.get(), sel);
  QueryPlan plan = b.Result(f);
  // Restrict the fetch to rows [3, 6): out-of-slice candidates clip away.
  for (int i = 0; i < plan.num_nodes(); ++i) {
    if (plan.node(i).kind == OpKind::kFetchJoin) {
      plan.node(i).has_slice = true;
      plan.node(i).slice = {3, 6};
      plan.node(i).align = AlignPolicy::kAdjust;
    }
  }
  EvalResult er;
  ASSERT_TRUE(eval_.Execute(plan, &er).ok());
  EXPECT_EQ(er.result.head, (std::vector<oid>{3, 4, 5}));
}

TEST_F(EvaluatorTest, FetchJoinStrictPolicyReportsMisalignment) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int f = b.FetchJoin(floats_.get(), sel);
  QueryPlan plan = b.Result(f);
  for (int i = 0; i < plan.num_nodes(); ++i) {
    if (plan.node(i).kind == OpKind::kFetchJoin) {
      plan.node(i).has_slice = true;
      plan.node(i).slice = {3, 6};
      plan.node(i).align = AlignPolicy::kStrict;
    }
  }
  EvalResult er;
  Status st = eval_.Execute(plan, &er);
  EXPECT_EQ(st.code(), StatusCode::kMisaligned);
}

TEST_F(EvaluatorTest, JoinLeafProbesAllRows) {
  PlanBuilder b("t");
  int jn = b.JoinLeaf(fk_.get(), pk_.get());
  Intermediate r = Run(b.Result(jn));
  ASSERT_EQ(r.kind, Intermediate::Kind::kPairs);
  ASSERT_EQ(r.rowids.size(), 10u);  // FK join preserves cardinality
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(r.rowids[i], i);  // outer row order preserved
    EXPECT_EQ(static_cast<int64_t>(r.rrowids[i]), fk_->i64()[i]);
  }
}

TEST_F(EvaluatorTest, JoinOverFetchedValues) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(5, 9));
  int fpk = b.FetchJoin(fk_.get(), sel);
  int jn = b.Join(fpk, pk_.get());
  Intermediate r = Run(b.Result(jn));
  // matches rows {0,2,4,6,8} with fk values {0,2,1,0,2}.
  ASSERT_EQ(r.rowids.size(), 5u);
  EXPECT_EQ(r.rowids, (std::vector<oid>{0, 2, 4, 6, 8}));
  EXPECT_EQ(r.rrowids, (std::vector<oid>{0, 2, 1, 0, 2}));
}

TEST_F(EvaluatorTest, JoinDuplicateInnerMatches) {
  auto inner = Column::MakeInt64("dup", {7, 7, 8});
  auto outer = Column::MakeInt64("o", {7, 8});
  PlanBuilder b("t");
  int jn = b.JoinLeaf(outer.get(), inner.get());
  Intermediate r = Run(b.Result(jn));
  ASSERT_EQ(r.rowids.size(), 3u);  // 7 matches twice, 8 once
  EXPECT_EQ(r.rowids, (std::vector<oid>{0, 0, 1}));
}

TEST_F(EvaluatorTest, FetchJoinFromPairsBothSides) {
  PlanBuilder b("t");
  int jn = b.JoinLeaf(fk_.get(), pk_.get());
  int fl = b.FetchJoin(floats_.get(), jn, FetchSide::kLeft);
  int fr = b.FetchJoin(dim_.get(), jn, FetchSide::kRight);
  int sum = b.Map2(MapFn::kAdd, fl, fr);
  Intermediate r = Run(b.Result(sum));
  ASSERT_EQ(r.values.size(), 10u);
  // Row 0: float 0.5 + dim[fk=0]=10 -> 10.5.
  EXPECT_DOUBLE_EQ(r.values.f64[0], 10.5);
  // Row 5: float 5.5 + dim[fk=2]=30 -> 35.5.
  EXPECT_DOUBLE_EQ(r.values.f64[5], 35.5);
}

TEST_F(EvaluatorTest, GroupByAndGroupedSum) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int keys = b.FetchJoin(fk_.get(), sel);
  int vals = b.FetchJoin(floats_.get(), sel);
  int gb = b.GroupBy(keys);
  int ag = b.AggGrouped(AggFn::kSum, gb, vals);
  Intermediate r = Run(b.Result(ag));
  ASSERT_EQ(r.kind, Intermediate::Kind::kGroupedAgg);
  ASSERT_EQ(r.agg_vals.size(), 3u);
  // Key 0 at rows 0,3,6,9: 0.5+3.5+6.5+9.5 = 20.
  for (size_t g = 0; g < 3; ++g) {
    if (r.group_keys.AsInt(g) == 0) {
      EXPECT_DOUBLE_EQ(r.agg_vals[g], 20.0);
    }
    if (r.group_keys.AsInt(g) == 1) {
      EXPECT_DOUBLE_EQ(r.agg_vals[g], 13.5);
    }
    if (r.group_keys.AsInt(g) == 2) {
      EXPECT_DOUBLE_EQ(r.agg_vals[g], 16.5);
    }
  }
}

TEST_F(EvaluatorTest, GroupedCountAvgMinMax) {
  auto run_agg = [&](AggFn fn, bool with_vals) {
    PlanBuilder b("t");
    int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
    int keys = b.FetchJoin(fk_.get(), sel);
    int vals = b.FetchJoin(floats_.get(), sel);
    int gb = b.GroupBy(keys);
    int ag = b.AggGrouped(fn, gb, with_vals ? vals : -1);
    return Run(b.Result(ag));
  };
  Intermediate c = run_agg(AggFn::kCount, false);
  Intermediate a = run_agg(AggFn::kAvg, true);
  Intermediate lo = run_agg(AggFn::kMin, true);
  Intermediate hi = run_agg(AggFn::kMax, true);
  for (size_t g = 0; g < 3; ++g) {
    if (c.group_keys.AsInt(g) == 0) {
      EXPECT_DOUBLE_EQ(c.agg_vals[g], 4.0);
    }
    if (a.group_keys.AsInt(g) == 0) {
      EXPECT_DOUBLE_EQ(a.agg_vals[g], 5.0);
    }
    if (lo.group_keys.AsInt(g) == 0) {
      EXPECT_DOUBLE_EQ(lo.agg_vals[g], 0.5);
    }
    if (hi.group_keys.AsInt(g) == 0) {
      EXPECT_DOUBLE_EQ(hi.agg_vals[g], 9.5);
    }
  }
}

TEST_F(EvaluatorTest, ScalarAggregates) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int vals = b.FetchJoin(floats_.get(), sel);
  int sum = b.AggScalar(AggFn::kSum, vals);
  QueryPlan plan = b.Result(sum);
  EvalResult er;
  ASSERT_TRUE(eval_.Execute(plan, &er).ok());
  EXPECT_DOUBLE_EQ(er.result.scalar, 50.0);
  EXPECT_EQ(er.result.scalar_count, 10);
}

TEST_F(EvaluatorTest, ScalarCountOverRowIds) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(5, 9));
  int cnt = b.AggScalar(AggFn::kCount, sel);
  Intermediate r = Run(b.Result(cnt));
  EXPECT_DOUBLE_EQ(r.scalar, 5.0);
}

TEST_F(EvaluatorTest, MapArithmetic) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int vals = b.FetchJoin(floats_.get(), sel);
  int x2 = b.MapConst(MapFn::kMul, vals, 2.0);
  int inv = b.MapConst(MapFn::kRSub, vals, 1.0);  // 1 - v
  int sum = b.Map2(MapFn::kAdd, x2, inv);         // 2v + 1 - v = v + 1
  Intermediate r = Run(b.Result(sum));
  for (uint64_t i = 0; i < r.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.values.f64[i], floats_->f64()[i] + 1.0);
  }
}

TEST_F(EvaluatorTest, MapFlags) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int svals = b.FetchJoin(strs_.get(), sel);
  int flag = b.LikeFlag(svals, "PROMO");
  Intermediate r = Run(b.Result(flag));
  for (uint64_t i = 0; i < r.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.values.f64[i], i % 2 == 0 ? 1.0 : 0.0);
  }
}

TEST_F(EvaluatorTest, MapEqAndRangeFlags) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int vals = b.FetchJoin(ints_.get(), sel);
  int eq = b.EqFlag(vals, 7);
  int rg = b.RangeFlag(vals, 3, 5);
  QueryPlan plan = b.Result(eq);
  EvalResult er;
  ASSERT_TRUE(eval_.Execute(plan, &er).ok());
  const Intermediate& e = er.result;  // the result node's input, eq
  EXPECT_DOUBLE_EQ(e.values.f64[2], 1.0);  // ints[2] == 7
  EXPECT_DOUBLE_EQ(e.values.f64[0], 0.0);
  // Range flag needs to be reachable to be evaluated; re-run with rg result.
  PlanBuilder b2("t2");
  int sel2 = b2.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int vals2 = b2.FetchJoin(ints_.get(), sel2);
  int rg2 = b2.RangeFlag(vals2, 3, 5);
  Intermediate r = Run(b2.Result(rg2));
  EXPECT_DOUBLE_EQ(r.values.f64[0], 1.0);  // 5 in [3,5]
  EXPECT_DOUBLE_EQ(r.values.f64[2], 0.0);  // 7 not
  (void)rg;
}

TEST_F(EvaluatorTest, ScalarMapDivision) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int vals = b.FetchJoin(floats_.get(), sel);
  int s1 = b.AggScalar(AggFn::kSum, vals);
  int s2 = b.AggScalar(AggFn::kCount, vals);
  int ratio = b.Map2(MapFn::kDiv, s1, s2);
  Intermediate r = Run(b.Result(ratio));
  EXPECT_DOUBLE_EQ(r.scalar, 5.0);  // 50 / 10
}

TEST_F(EvaluatorTest, SortValuesAscendingDescending) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int vals = b.FetchJoin(ints_.get(), sel);
  int srt = b.Sort(vals);
  Intermediate r = Run(b.Result(srt));
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(r.values.i64[i], static_cast<int64_t>(i));
  }
  PlanBuilder b2("t2");
  int sel2 = b2.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int vals2 = b2.FetchJoin(ints_.get(), sel2);
  int srt2 = b2.Sort(vals2, /*descending=*/true);
  Intermediate r2 = Run(b2.Result(srt2));
  EXPECT_EQ(r2.values.i64[0], 9);
  EXPECT_EQ(r2.values.i64[9], 0);
}

TEST_F(EvaluatorTest, TopNLimits) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int vals = b.FetchJoin(ints_.get(), sel);
  int top = b.TopN(vals, 3, /*descending=*/true);
  Intermediate r = Run(b.Result(top));
  ASSERT_EQ(r.values.size(), 3u);
  EXPECT_EQ(r.values.i64[0], 9);
  EXPECT_EQ(r.values.i64[2], 7);
}

TEST_F(EvaluatorTest, SortGroupedAggregates) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int keys = b.FetchJoin(fk_.get(), sel);
  int vals = b.FetchJoin(floats_.get(), sel);
  int gb = b.GroupBy(keys);
  int ag = b.AggGrouped(AggFn::kSum, gb, vals);
  int srt = b.Sort(ag, /*descending=*/true);
  Intermediate r = Run(b.Result(srt));
  ASSERT_EQ(r.agg_vals.size(), 3u);
  EXPECT_GE(r.agg_vals[0], r.agg_vals[1]);
  EXPECT_GE(r.agg_vals[1], r.agg_vals[2]);
  EXPECT_DOUBLE_EQ(r.agg_vals[0], 20.0);  // key 0
}

TEST_F(EvaluatorTest, HashIndexIsCachedAcrossExecutions) {
  PlanBuilder b("t");
  int jn = b.JoinLeaf(fk_.get(), pk_.get());
  QueryPlan plan = b.Result(jn);
  EvalResult er1, er2;
  ASSERT_TRUE(eval_.Execute(plan, &er1).ok());
  ASSERT_TRUE(eval_.Execute(plan, &er2).ok());
  uint64_t build1 = 0, build2 = 0;
  for (const auto& m : er1.metrics) build1 += m.hash_build_rows;
  for (const auto& m : er2.metrics) build2 += m.hash_build_rows;
  EXPECT_GT(build1, 0u);
  EXPECT_EQ(build2, 0u);  // second run reuses the cached index
}

TEST_F(EvaluatorTest, MisalignedBinaryMapIsAnError) {
  PlanBuilder b("t");
  int s1 = b.Select(ints_.get(), Predicate::RangeI64(0, 4));
  int s2 = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int v1 = b.FetchJoin(floats_.get(), s1);
  int v2 = b.FetchJoin(floats_.get(), s2);
  int mp = b.Map2(MapFn::kAdd, v1, v2);
  QueryPlan plan = b.Result(mp);
  EvalResult er;
  Status st = eval_.Execute(plan, &er);
  EXPECT_EQ(st.code(), StatusCode::kMisaligned);
}

// Group-by and join keys are read as int64: a float64 key column is a plan
// error, not a read of the column's (empty) int64 storage.
TEST_F(EvaluatorTest, LeafGroupByOverFloatColumnIsInvalid) {
  PlanBuilder b("t");
  int g = b.GroupByLeaf(floats_.get());
  QueryPlan plan = b.Result(g);
  EvalResult er;
  EXPECT_EQ(eval_.Execute(plan, &er).code(), StatusCode::kInvalidArgument);
}

TEST_F(EvaluatorTest, LeafGroupByOverFloatColumnIsInvalidWithAFleet) {
  PlanBuilder b("t");
  int g = b.GroupByLeaf(floats_.get());
  QueryPlan plan = b.Result(g);
  ExecOptions o;
  o.morsel_rows = 2;
  Evaluator eval(o, std::make_shared<MorselScheduler>(2));
  EvalResult er;
  EXPECT_EQ(eval.Execute(plan, &er).code(), StatusCode::kInvalidArgument);
}

TEST_F(EvaluatorTest, JoinWithFloatOuterColumnIsInvalid) {
  PlanBuilder b("t");
  int j = b.JoinLeaf(floats_.get(), pk_.get());
  QueryPlan plan = b.Result(j);
  EvalResult er;
  EXPECT_EQ(eval_.Execute(plan, &er).code(), StatusCode::kInvalidArgument);
}

TEST_F(EvaluatorTest, JoinWithFloatInnerColumnIsInvalid) {
  PlanBuilder b("t");
  int j = b.JoinLeaf(fk_.get(), dim_.get());
  QueryPlan plan = b.Result(j);
  EvalResult er;
  EXPECT_EQ(eval_.Execute(plan, &er).code(), StatusCode::kInvalidArgument);
}

// A group-by over float64 values groups by their AsInt truncation, so its
// keys are int64 and typed so, and the grouped count has one slot per key.
// Checked whole-column and on a fleet that splits the input, against the
// expected groups and the reference group-by.
void ExpectTruncatedGroups(const QueryPlan& plan,
                           const std::vector<int64_t>& keys,
                           const std::vector<double>& counts) {
  for (bool fleet : {false, true}) {
    ExecOptions o;
    o.morsel_rows = 2;
    Evaluator eval(o, fleet ? std::make_shared<MorselScheduler>(2) : nullptr);
    EvalResult er;
    ASSERT_TRUE(eval.Execute(plan, &er).ok()) << "fleet=" << fleet;
    const Intermediate& r = er.result;
    ASSERT_EQ(r.kind, Intermediate::Kind::kGroupedAgg) << "fleet=" << fleet;
    EXPECT_EQ(r.group_keys.type, DataType::kInt64) << "fleet=" << fleet;
    EXPECT_EQ(r.group_keys.i64, keys) << "fleet=" << fleet;
    EXPECT_EQ(r.agg_vals, counts) << "fleet=" << fleet;
    size_t checked = 0;
    EXPECT_EQ(ref::CheckAgainstReference(plan, er, &checked), "")
        << "fleet=" << fleet;
    // select, fetch, group-by, count
    EXPECT_EQ(checked, 4u) << "fleet=" << fleet;
  }
}

TEST_F(EvaluatorTest, GroupByOverFetchedFloatsGroupsTruncatedKeys) {
  auto prices = Column::MakeFloat64(
      "prices", {1.25, 2.75, 1.5, 3.0, 2.0, 1.9, 3.99, 2.5, 1.0, 3.5});
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int vals = b.FetchJoin(prices.get(), sel);
  int gb = b.GroupBy(vals);
  int ag = b.AggGrouped(AggFn::kCount, gb);
  ExpectTruncatedGroups(b.Result(ag), {1, 2, 3}, {4, 3, 3});
}

TEST_F(EvaluatorTest, GroupByOverScaledIntsGroupsTruncatedKeys) {
  // ints * 0.5 = 2.5 0.5 3.5 1.5 4.5 1 4 2 3 0, truncated 2 0 3 1 4 1 4 2 3 0.
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(0, 9));
  int vals = b.FetchJoin(ints_.get(), sel);
  int half = b.MapConst(MapFn::kMul, vals, 0.5);
  int gb = b.GroupBy(half);
  int ag = b.AggGrouped(AggFn::kCount, gb);
  ExpectTruncatedGroups(b.Result(ag), {2, 0, 3, 1, 4}, {2, 2, 2, 2, 2});
}

}  // namespace
}  // namespace apq

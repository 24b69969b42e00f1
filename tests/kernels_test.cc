// Correctness of the vectorized selection-vector kernels against the
// row-at-a-time reference operators (reference_ops.h), on randomized data.
#include <gtest/gtest.h>

#include "exec/evaluator.h"
#include "exec/kernels.h"
#include "plan/builder.h"
#include "reference_ops.h"
#include "util/rng.h"

namespace apq {
namespace {

class KernelsTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRows = 5000;

  void SetUp() override {
    Rng rng(7);
    std::vector<int64_t> iv(kRows);
    std::vector<double> fv(kRows);
    std::vector<std::string> sv(kRows);
    const char* fragments[] = {"PROMO", "PLAIN", "SPECIAL", "BULK", "AIR"};
    for (uint64_t i = 0; i < kRows; ++i) {
      iv[i] = rng.UniformRange(-500, 500);
      fv[i] = rng.NextDouble() * 1000.0 - 500.0;
      sv[i] = std::string(fragments[rng.Uniform(5)]) + " " +
              std::to_string(rng.Uniform(40));
    }
    ints_ = Column::MakeInt64("ints", std::move(iv));
    floats_ = Column::MakeFloat64("floats", std::move(fv));
    strs_ = Column::MakeString("strs", sv);
  }

  // Runs the plan and requires every select, fetch-join, group-by and sort
  // node to equal the reference bit for bit — output and the workload
  // metrics the cost model (and so every simulated figure) consumes.
  void ExpectSame(const QueryPlan& plan) {
    EvalResult er;
    ASSERT_TRUE(vectorized_.Execute(plan, &er).ok());
    size_t checked = 0;
    EXPECT_EQ(ref::CheckAgainstReference(plan, er, &checked), "");
    EXPECT_GT(checked, 0u);
  }

  ColumnPtr ints_, floats_, strs_;
  Evaluator vectorized_;
};

TEST_F(KernelsTest, DenseSelectsMatchScalarPath) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    int64_t lo = rng.UniformRange(-600, 600);
    int64_t hi = lo + rng.UniformRange(0, 400);
    PlanBuilder b("t");
    int sel = b.Select(ints_.get(), Predicate::RangeI64(lo, hi));
    ExpectSame(b.Result(sel));

    PlanBuilder b2("t2");
    int sel2 = b2.Select(floats_.get(), Predicate::RangeF64(lo, hi));
    ExpectSame(b2.Result(sel2));

    PlanBuilder b3("t3");
    int sel3 = b3.Select(ints_.get(), Predicate::EqI64(rng.UniformRange(-500, 500)));
    ExpectSame(b3.Result(sel3));
  }
}

TEST_F(KernelsTest, MistypedPredicatesMatchScalarCasts) {
  // RangeF64 over an int column and RangeI64 over a float column both go
  // through the scalar path's casts; the kernels must reproduce them.
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeF64(-250.5, 250.5));
  ExpectSame(b.Result(sel));

  PlanBuilder b2("t2");
  int sel2 = b2.Select(floats_.get(), Predicate::RangeI64(-100, 100));
  ExpectSame(b2.Result(sel2));

  PlanBuilder b3("t3");
  int sel3 = b3.Select(floats_.get(), Predicate::EqI64(0));
  ExpectSame(b3.Result(sel3));
}

TEST_F(KernelsTest, LikeOnDictionaryMatchesScalarPath) {
  for (const char* pattern : {"PROMO", "AIR", "1", "nomatch"}) {
    PlanBuilder b("t");
    int sel = b.Select(strs_.get(), Predicate::Like(pattern));
    ExpectSame(b.Result(sel));

    PlanBuilder b2("t2");
    int sel2 = b2.Select(strs_.get(), Predicate::Like(pattern, /*anti=*/true));
    ExpectSame(b2.Result(sel2));
  }
}

TEST_F(KernelsTest, CandidateListSelectsMatchScalarPath) {
  PlanBuilder b("t");
  int s1 = b.Select(ints_.get(), Predicate::RangeI64(-400, 400));
  int s2 = b.Select(floats_.get(), Predicate::RangeF64(-300.0, 300.0), s1);
  int s3 = b.Select(strs_.get(), Predicate::Like("PROMO"), s2);
  ExpectSame(b.Result(s3));
}

TEST_F(KernelsTest, CandidateSelectClipsToSlice) {
  // Candidate-list select on a sliced clone: out-of-slice candidates must be
  // clipped (paper Fig 9 boundary adjustment), identically in both backends.
  PlanBuilder b("t");
  int s1 = b.Select(ints_.get(), Predicate::RangeI64(-500, 500));
  int s2 = b.Select(floats_.get(), Predicate::RangeF64(-1000.0, 1000.0), s1);
  QueryPlan plan = b.Result(s2);
  plan.node(s2).has_slice = true;
  plan.node(s2).slice = {kRows / 4, kRows / 2};
  ExpectSame(plan);
}

TEST_F(KernelsTest, FetchJoinGatherMatchesScalarPath) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(-200, 200));
  int f1 = b.FetchJoin(floats_.get(), sel);
  int f2 = b.FetchJoin(strs_.get(), sel);
  int mp = b.MapConst(MapFn::kMul, f1, 2.0);
  ExpectSame(b.Result(mp));
  (void)f2;
}

TEST_F(KernelsTest, FetchJoinBoundaryClipAdjustMatchesScalarPath) {
  for (auto [lo, hi] : {std::pair<oid, oid>{0, kRows / 3},
                        {kRows / 3, 2 * kRows / 3},
                        {2 * kRows / 3, kRows},
                        {kRows / 2, kRows / 2}}) {  // empty slice
    PlanBuilder b("t");
    int sel = b.Select(ints_.get(), Predicate::RangeI64(-500, 500));
    int f = b.FetchJoin(floats_.get(), sel);
    QueryPlan plan = b.Result(f);
    plan.node(f).has_slice = true;
    plan.node(f).slice = {lo, hi};
    plan.node(f).align = AlignPolicy::kAdjust;
    ExpectSame(plan);
  }
}

TEST_F(KernelsTest, FetchJoinStrictMisalignmentMatchesScalarPath) {
  PlanBuilder b("t");
  int sel = b.Select(ints_.get(), Predicate::RangeI64(-500, 500));
  int f = b.FetchJoin(floats_.get(), sel);
  QueryPlan plan = b.Result(f);
  plan.node(f).has_slice = true;
  plan.node(f).slice = {0, kRows / 2};
  plan.node(f).align = AlignPolicy::kStrict;
  EvalResult er;
  Status st = vectorized_.Execute(plan, &er);
  EXPECT_EQ(st.code(), StatusCode::kMisaligned);
  // The reference plan fails with the same error: the first out-of-slice
  // candidate in input order.
  ref::RefOut cand, r;
  ASSERT_TRUE(ref::Select(plan.node(sel), nullptr, &cand).ok());
  Status want = ref::FetchJoin(plan.node(f), cand.out, &r);
  EXPECT_EQ(want.code(), st.code());
  EXPECT_EQ(want.message(), st.message());
}

TEST_F(KernelsTest, GatherRowsRejectsOutOfColumnIds) {
  std::vector<oid> ids = {0, 1, kRows + 7};
  std::vector<oid> head;
  ValueVec values;
  values.type = DataType::kFloat64;
  Status st = GatherRowsSpan(*floats_, ids.data(), ids.size(),
                             floats_->full_range(), false,
                             AlignPolicy::kAdjust, &head, &values);
  EXPECT_EQ(st.code(), StatusCode::kMisaligned);
  EXPECT_NE(st.message().find(std::to_string(kRows + 7)), std::string::npos);
}

TEST_F(KernelsTest, SelectDenseDirectAgainstNaiveLoop) {
  std::vector<oid> got;
  Predicate p = Predicate::RangeI64(-50, 50);
  SelectDense(*ints_, {100, 4000}, p, nullptr, &got);
  std::vector<oid> want;
  for (oid r = 100; r < 4000; ++r) {
    int64_t v = ints_->i64()[r];
    if (v >= -50 && v <= 50) want.push_back(r);
  }
  EXPECT_EQ(got, want);
}

TEST_F(KernelsTest, FullPipelineRandomizedParity) {
  // A query-shaped pipeline: select -> fetch -> groupby -> grouped agg ->
  // sort, on random data, through both backends.
  Rng rng(23);
  for (int trial = 0; trial < 5; ++trial) {
    int64_t lo = rng.UniformRange(-500, 0);
    int64_t hi = rng.UniformRange(0, 500);
    PlanBuilder b("t");
    int sel = b.Select(ints_.get(), Predicate::RangeI64(lo, hi));
    int keys = b.FetchJoin(ints_.get(), sel);
    int vals = b.FetchJoin(floats_.get(), sel);
    int gb = b.GroupBy(keys);
    int ag = b.AggGrouped(AggFn::kSum, gb, vals);
    int srt = b.Sort(ag, /*descending=*/true);
    ExpectSame(b.Result(srt));
  }
}

}  // namespace
}  // namespace apq

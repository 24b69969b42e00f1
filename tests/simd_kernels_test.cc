// Differential tests for the runtime-dispatched SIMD kernel tier
// (exec/simd/): every kernel, every dispatch tier the host supports, against
// the generic loops — exhaustively over tail lengths 0..65, all start
// offsets mod 8, and all-pass / all-fail / alternating / random predicates,
// plus misaligned candidate spans with out-of-slice ids. The house invariant
// under test: outputs are bit-identical at every tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/compare.h"
#include "exec/evaluator.h"
#include "exec/kernels.h"
#include "exec/simd/simd_ops.h"
#include "plan/builder.h"
#include "reference_ops.h"
#include "util/rng.h"

namespace apq {
namespace {

constexpr uint64_t kMaxLen = 65;   // covers 0..65: every tail mod 4 and 8
constexpr uint64_t kMaxOff = 8;    // every start alignment mod 8

/// Dispatch tiers this host can execute (scalar always; its table is
/// all-null, so routing through it IS the generic-loop path).
std::vector<simd::SimdLevel> HostTiers() {
  std::vector<simd::SimdLevel> tiers = {simd::SimdLevel::kScalar};
  if (simd::LevelSupported(simd::SimdLevel::kAvx2)) {
    tiers.push_back(simd::SimdLevel::kAvx2);
  }
  if (simd::LevelSupported(simd::SimdLevel::kAvx512)) {
    tiers.push_back(simd::SimdLevel::kAvx512);
  }
  return tiers;
}

class SimdKernelsTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRows = kMaxOff + kMaxLen + 7;

  void SetUp() override {
    Rng rng(23);
    std::vector<int64_t> iv(kRows);
    std::vector<int64_t> alt(kRows);
    std::vector<double> fv(kRows);
    std::vector<std::string> sv(kRows);
    const char* frags[] = {"PROMO", "PLAIN", "SPECIAL"};
    for (uint64_t i = 0; i < kRows; ++i) {
      iv[i] = rng.UniformRange(-50, 50);
      alt[i] = static_cast<int64_t>(i % 2);
      fv[i] = rng.NextDouble() * 100.0 - 50.0;
      sv[i] = std::string(frags[i % 3]) + std::to_string(i % 5);
    }
    ints_ = Column::MakeInt64("ints", std::move(iv));
    alts_ = Column::MakeInt64("alts", std::move(alt));
    floats_ = Column::MakeFloat64("floats", std::move(fv));
    strs_ = Column::MakeString("strs", sv);
  }

  // Predicates exercising all-pass, all-fail, alternating, and partial
  // selectivity for a column.
  static std::vector<Predicate> IntPreds() {
    return {Predicate::RangeI64(-1000, 1000),  // all pass
            Predicate::RangeI64(900, 100),     // all fail (empty range)
            Predicate::EqI64(1),               // alternating on alts_
            Predicate::RangeI64(-10, 10),      // partial
            Predicate::RangeF64(-25.5, 25.5)}; // cross-typed over i64
  }
  static std::vector<Predicate> FloatPreds() {
    return {Predicate::RangeF64(-1000.0, 1000.0),  // all pass
            Predicate::RangeF64(10.0, -10.0),      // all fail
            Predicate::RangeF64(-20.0, 20.0),      // partial
            Predicate::RangeI64(-20, 20),          // cross-typed over f64
            Predicate::EqI64(7)};                  // cross-typed eq
  }

  // Runs SelectDense at `tier` and with the generic loops over every
  // (offset, length) subrange and requires identical selection vectors.
  void DenseDiff(const Column& col, const Predicate& pred) {
    const std::vector<uint8_t> like =
        pred.kind == Predicate::Kind::kLike ? BuildLikeMatch(col, pred)
                                            : std::vector<uint8_t>();
    const std::vector<uint8_t>* lm =
        pred.kind == Predicate::Kind::kLike ? &like : nullptr;
    for (simd::SimdLevel tier : HostTiers()) {
      const simd::SimdOps* ops = &simd::OpsFor(tier);
      for (uint64_t off = 0; off < kMaxOff; ++off) {
        for (uint64_t len = 0; len <= kMaxLen; ++len) {
          const RowRange r{off, off + len};
          std::vector<oid> got, want;
          SelectDense(col, r, pred, lm, &want, nullptr);
          SelectDense(col, r, pred, lm, &got, ops);
          ASSERT_EQ(got, want)
              << "tier=" << simd::LevelName(tier) << " off=" << off
              << " len=" << len << " pred kind=" << static_cast<int>(pred.kind);
        }
      }
    }
  }

  // Candidate-span differential: ids carry in-slice and out-of-slice rows;
  // the span starts at every offset mod 8 (misaligned spans) and the slice
  // boundary clips both ends.
  void CandDiff(const Column& col, const Predicate& pred) {
    const std::vector<uint8_t> like =
        pred.kind == Predicate::Kind::kLike ? BuildLikeMatch(col, pred)
                                            : std::vector<uint8_t>();
    const std::vector<uint8_t>* lm =
        pred.kind == Predicate::Kind::kLike ? &like : nullptr;
    Rng rng(91);
    std::vector<oid> ids(kMaxOff + kMaxLen);
    for (auto& id : ids) id = rng.Uniform(kRows + 8);  // some beyond any slice
    const RowRange slice{3, kRows - 4};
    for (simd::SimdLevel tier : HostTiers()) {
      const simd::SimdOps* ops = &simd::OpsFor(tier);
      for (uint64_t off = 0; off < kMaxOff; ++off) {
        for (uint64_t len = 0; len <= kMaxLen; ++len) {
          std::vector<oid> got, want;
          uint64_t got_acc = 0, want_acc = 0;
          SelectCandidatesSpan(col, slice, pred, lm, ids.data() + off, len,
                               &want, &want_acc, nullptr);
          SelectCandidatesSpan(col, slice, pred, lm, ids.data() + off, len,
                               &got, &got_acc, ops);
          ASSERT_EQ(got, want)
              << "tier=" << simd::LevelName(tier) << " off=" << off
              << " len=" << len << " pred kind=" << static_cast<int>(pred.kind);
          ASSERT_EQ(got_acc, want_acc)
              << "tier=" << simd::LevelName(tier) << " off=" << off
              << " len=" << len;
        }
      }
    }
  }

  ColumnPtr ints_, alts_, floats_, strs_;
};

TEST_F(SimdKernelsTest, DenseSelectTailsAndOffsets) {
  for (const Predicate& p : IntPreds()) {
    DenseDiff(*ints_, p);
    DenseDiff(*alts_, p);
  }
  for (const Predicate& p : FloatPreds()) DenseDiff(*floats_, p);
  DenseDiff(*strs_, Predicate::Like("PROMO"));
  DenseDiff(*strs_, Predicate::Like("SPECIAL", /*anti=*/true));
}

TEST_F(SimdKernelsTest, CandidateSelectMisalignedSpans) {
  for (const Predicate& p : IntPreds()) {
    CandDiff(*ints_, p);
    CandDiff(*alts_, p);
  }
  for (const Predicate& p : FloatPreds()) CandDiff(*floats_, p);
  CandDiff(*strs_, Predicate::Like("PROMO"));
}

TEST_F(SimdKernelsTest, GatherTailsAndOffsets) {
  Rng rng(5);
  std::vector<oid> ids(kMaxOff + kMaxLen);
  for (auto& id : ids) id = rng.Uniform(kRows);  // all valid
  const RowRange full{0, kRows};
  for (simd::SimdLevel tier : HostTiers()) {
    const simd::SimdOps* ops = &simd::OpsFor(tier);
    for (const Column* col : {ints_.get(), floats_.get()}) {
      for (uint64_t off = 0; off < kMaxOff; ++off) {
        for (uint64_t len = 0; len <= kMaxLen; ++len) {
          std::vector<oid> head_a, head_b;
          ValueVec va, vb;
          va.type = col->type();
          vb.type = col->type();
          ASSERT_TRUE(GatherRowsSpan(*col, ids.data() + off, len, full, false,
                                     AlignPolicy::kStrict, &head_a, &va,
                                     nullptr)
                          .ok());
          ASSERT_TRUE(GatherRowsSpan(*col, ids.data() + off, len, full, false,
                                     AlignPolicy::kStrict, &head_b, &vb, ops)
                          .ok());
          ASSERT_EQ(head_a, head_b);
          ASSERT_EQ(va.i64, vb.i64);
          ASSERT_EQ(va.f64, vb.f64);

          // Positional form over the same span.
          std::vector<oid> hc(len), hd(len);
          ValueVec vc, vd;
          vc.type = vd.type = col->type();
          if (col->type() == DataType::kFloat64) {
            vc.f64.resize(len);
            vd.f64.resize(len);
          } else {
            vc.i64.resize(len);
            vd.i64.resize(len);
          }
          ASSERT_TRUE(GatherRowsAt(*col, ids.data() + off, len, full, false,
                                   hc.data(), &vc, 0, nullptr)
                          .ok());
          ASSERT_TRUE(GatherRowsAt(*col, ids.data() + off, len, full, false,
                                   hd.data(), &vd, 0, ops)
                          .ok());
          ASSERT_EQ(hc, hd);
          ASSERT_EQ(vc.i64, vd.i64);
          ASSERT_EQ(vc.f64, vd.f64);
        }
      }
    }
  }
}

TEST_F(SimdKernelsTest, ReductionsMatchScalarFolds) {
  Rng rng(17);
  for (simd::SimdLevel tier : HostTiers()) {
    const simd::SimdOps* ops = &simd::OpsFor(tier);
    if (ops->minmax_i64 == nullptr) continue;  // scalar: nothing to diff
    for (uint64_t off = 0; off < kMaxOff; ++off) {
      for (uint64_t len = 1; len <= kMaxLen; ++len) {
        const int64_t* iv = ints_->i64().data() + off;
        int64_t mn, mx;
        ops->minmax_i64(iv, len, &mn, &mx);
        EXPECT_EQ(mn, *std::min_element(iv, iv + len));
        EXPECT_EQ(mx, *std::max_element(iv, iv + len));

        const double* dv = floats_->f64().data() + off;
        double fmn, fmx;
        ops->minmax_f64(dv, len, &fmn, &fmx);
        EXPECT_EQ(fmn, *std::min_element(dv, dv + len));
        EXPECT_EQ(fmx, *std::max_element(dv, dv + len));

        // Exact SUM: result must equal the sequential double fold bit for
        // bit whenever the kernel claims exactness.
        double s;
        if (ops->sum_i64_exact(iv, len, &s)) {
          double want = 0.0;
          for (uint64_t i = 0; i < len; ++i) {
            want += static_cast<double>(iv[i]);
          }
          EXPECT_EQ(s, want) << "tier=" << simd::LevelName(tier)
                             << " off=" << off << " len=" << len;
        }
      }
    }
    // The no-rounding guard must decline sums it cannot prove exact.
    std::vector<int64_t> huge(32, (1ll << 60));
    double s;
    EXPECT_FALSE(ops->sum_i64_exact(huge.data(), huge.size(), &s));
  }
}

TEST(SimdDispatchTest, ParseSimdLevelNames) {
  simd::SimdLevel lvl;
  EXPECT_TRUE(simd::ParseSimdLevelName("scalar", &lvl));
  EXPECT_EQ(lvl, simd::SimdLevel::kScalar);
  EXPECT_TRUE(simd::ParseSimdLevelName("AVX2", &lvl));
  EXPECT_EQ(lvl, simd::SimdLevel::kAvx2);
  EXPECT_TRUE(simd::ParseSimdLevelName("Avx512", &lvl));
  EXPECT_EQ(lvl, simd::SimdLevel::kAvx512);
  EXPECT_FALSE(simd::ParseSimdLevelName("", &lvl));
  EXPECT_FALSE(simd::ParseSimdLevelName("avx", &lvl));
  EXPECT_FALSE(simd::ParseSimdLevelName("avx5120", &lvl));
  EXPECT_FALSE(simd::ParseSimdLevelName("sse42", &lvl));
  EXPECT_FALSE(simd::ParseSimdLevelName(nullptr, &lvl));
}

TEST(SimdDispatchTest, TierTablesMatchTheirLevel) {
  // Scalar: all-null table (routing through it is the generic path).
  const simd::SimdOps& sc = simd::OpsFor(simd::SimdLevel::kScalar);
  EXPECT_EQ(sc.level, simd::SimdLevel::kScalar);
  EXPECT_EQ(sc.select_range_i64, nullptr);
  EXPECT_EQ(sc.gather_i64, nullptr);
  EXPECT_EQ(sc.sum_i64_exact, nullptr);
  // Supported vector tiers advertise their own level and carry the core ops.
  for (simd::SimdLevel t :
       {simd::SimdLevel::kAvx2, simd::SimdLevel::kAvx512}) {
    if (!simd::LevelSupported(t)) continue;
    const simd::SimdOps& o = simd::OpsFor(t);
    EXPECT_EQ(o.level, t);
    EXPECT_NE(o.select_range_i64, nullptr);
    EXPECT_NE(o.select_cand_range_i64, nullptr);
    EXPECT_NE(o.gather_i64, nullptr);
    EXPECT_NE(o.minmax_f64, nullptr);
  }
  // Requests above the host's capability clamp to a runnable table.
  const simd::SimdOps& top = simd::OpsFor(simd::SimdLevel::kAvx512);
  EXPECT_LE(top.level, simd::HighestSupported());
  // kAuto resolves to the active table.
  EXPECT_EQ(&simd::OpsFor(simd::SimdLevel::kAuto), &simd::Ops());
}

// End-to-end: full query plans through the evaluator at every tier, every
// morsel size, and 1/2/4/8 workers must equal the scalar tier's whole-column
// run on every intermediate (the acceptance invariant); that oracle is itself
// checked once against the row-at-a-time reference (reference_ops.h).
class SimdEvaluatorTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRows = 6000;

  void SetUp() override {
    Rng rng(41);
    std::vector<int64_t> iv(kRows), keys(kRows);
    std::vector<double> fv(kRows);
    std::vector<std::string> sv(kRows);
    const char* frags[] = {"PROMO", "PLAIN", "SPECIAL", "BULK"};
    for (uint64_t i = 0; i < kRows; ++i) {
      iv[i] = rng.UniformRange(-500, 500);
      keys[i] = rng.UniformRange(0, 40);
      fv[i] = rng.NextDouble() * 1000.0 - 500.0;
      sv[i] = std::string(frags[rng.Uniform(4)]) + std::to_string(i % 7);
    }
    ints_ = Column::MakeInt64("ints", std::move(iv));
    keys_ = Column::MakeInt64("keys", std::move(keys));
    floats_ = Column::MakeFloat64("floats", std::move(fv));
    strs_ = Column::MakeString("strs", sv);
  }

  QueryPlan Workload() {
    PlanBuilder b("simd");
    int sel = b.Select(ints_.get(), Predicate::RangeI64(-200, 200));
    int sel2 = b.Select(strs_.get(), Predicate::Like("PROMO"), sel);
    int vals = b.FetchJoin(ints_.get(), sel2);
    int keys = b.FetchJoin(keys_.get(), sel2);
    int grp = b.GroupBy(keys);
    int agg = b.AggGrouped(AggFn::kSum, grp, vals);
    int fsel = b.Select(floats_.get(), Predicate::RangeF64(-300.0, 300.0));
    int fvals = b.FetchJoin(floats_.get(), fsel);
    b.AggScalar(AggFn::kMin, fvals);
    return b.Result(agg);
  }

  void ExpectSameAs(const EvalResult& want, const ExecOptions& o,
                    int workers) {
    Evaluator e(o, std::make_shared<MorselScheduler>(workers));
    EvalResult got;
    ASSERT_TRUE(e.Execute(Workload(), &got).ok());
    EXPECT_EQ(DiffIntermediates(want.result, got.result), "");
    for (const auto& [id, inter] : want.intermediates) {
      ASSERT_TRUE(got.intermediates.count(id)) << "node " << id;
      EXPECT_EQ(DiffIntermediates(inter, got.intermediates.at(id)), "")
          << "node " << id;
    }
  }

  ColumnPtr ints_, keys_, floats_, strs_;
  Evaluator scalar_{ExecOptions{kDefaultMorselRows, simd::SimdLevel::kScalar}};
};

TEST_F(SimdEvaluatorTest, BitIdenticalAcrossTiersMorselsAndWorkers) {
  EvalResult want;
  ASSERT_TRUE(scalar_.Execute(Workload(), &want).ok());
  size_t checked = 0;
  ASSERT_EQ(ref::CheckAgainstReference(Workload(), want, &checked), "");
  EXPECT_GT(checked, 0u);
  for (simd::SimdLevel tier : HostTiers()) {
    for (uint64_t morsel_rows : {uint64_t{256}, uint64_t{1024}}) {
      for (int workers : {1, 2, 4, 8}) {
        ExecOptions o;
        o.morsel_rows = morsel_rows;
        o.simd_level = tier;
        SCOPED_TRACE(std::string("tier=") + simd::LevelName(tier) +
                     " morsel=" + std::to_string(morsel_rows) +
                     " workers=" + std::to_string(workers));
        ExpectSameAs(want, o, workers);
      }
    }
  }
}

}  // namespace
}  // namespace apq

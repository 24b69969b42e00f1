// The sort subsystem (exec/sort/): loser-tree and merge-path split unit
// tests, and — above all — differential tests of sort and bounded top-N
// (inline and morsel-parallel) against the reference stable sort
// (reference_ops.h), across morsel sizes, worker counts, input shapes
// (values / rowids / leaf / grouped aggregates), key distributions (heavy
// ties for stability stress), sort directions, and top-N limits. The
// permutation must reproduce std::stable_sort over values bit-for-bit: every
// comparison is keyed by (value, original position).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <thread>
#include <vector>

#include "exec/compare.h"
#include "exec/evaluator.h"
#include "exec/sort/merge.h"
#include "plan/builder.h"
#include "reference_ops.h"
#include "sched/morsel_scheduler.h"
#include "util/rng.h"

namespace apq {
namespace {

// The morsel sizes the acceptance criteria call out: pathological (1), odd
// (7), sub-default (4096), default (64K), and larger than any test table.
const uint64_t kMorselSizes[] = {1, 7, 4096, 64 * 1024, 1 << 30};

// Keys with heavy ties (card distinct values): ties are where stability can
// break, so every differential runs on them.
std::vector<double> TiedKeys(uint64_t n, uint64_t seed, int64_t card) {
  Rng rng(seed);
  std::vector<double> keys(n);
  for (auto& k : keys) {
    k = static_cast<double>(rng.UniformRange(0, card - 1)) * 0.5;
  }
  return keys;
}

// Contiguous chunks of [0, n), each sorted under `less` — the shape
// BuildSortRuns produces.
std::vector<std::vector<uint64_t>> ChunkRuns(const SortKeyLess& less,
                                             uint64_t n, uint64_t rows) {
  std::vector<std::vector<uint64_t>> runs;
  for (uint64_t b = 0; b < n; b += rows) {
    const uint64_t e = std::min(n, b + rows);
    std::vector<uint64_t> run(e - b);
    std::iota(run.begin(), run.end(), b);
    std::sort(run.begin(), run.end(), less);
    runs.push_back(std::move(run));
  }
  return runs;
}

std::vector<RunSpan> Spans(const std::vector<std::vector<uint64_t>>& runs) {
  std::vector<RunSpan> s;
  s.reserve(runs.size());
  for (const auto& r : runs) s.push_back(RunSpan{r.data(), r.size()});
  return s;
}

// ---- loser tree + sequential merge -----------------------------------------

TEST(LoserTreeMergeTest, MergesRunsIntoTheStableSortPermutation) {
  const uint64_t n = 5000;
  const std::vector<double> keys = TiedKeys(n, 11, 40);
  for (bool desc : {false, true}) {
    const SortKeyLess less{SortKeys{keys.data(), nullptr}, desc};
    for (uint64_t rows : {uint64_t{1}, uint64_t{37}, uint64_t{512}, n}) {
      const auto runs = ChunkRuns(less, n, rows);
      std::vector<uint64_t> out(n);
      MergeRuns(Spans(runs), less, out.data(), n);
      EXPECT_EQ(out, ref::StableSortPerm(keys, desc, 0))
          << "rows=" << rows << " desc=" << desc;
    }
  }
}

TEST(LoserTreeMergeTest, StopsAtOutLen) {
  const uint64_t n = 1000;
  const std::vector<double> keys = TiedKeys(n, 7, 15);
  const SortKeyLess less{SortKeys{keys.data(), nullptr}, false};
  const auto runs = ChunkRuns(less, n, 64);
  std::vector<uint64_t> out(10);
  MergeRuns(Spans(runs), less, out.data(), 10);
  const auto want = ref::StableSortPerm(keys, false, 10);
  EXPECT_EQ(out, want);
}

TEST(LoserTreeMergeTest, HandlesEmptySingleAndPaddedRunCounts) {
  const std::vector<double> keys = {3, 1, 2, 1, 3, 0};
  const SortKeyLess less{SortKeys{keys.data(), nullptr}, false};
  // No runs at all.
  std::vector<uint64_t> out;
  MergeRuns({}, less, out.data(), 0);
  // One run.
  const auto one = ChunkRuns(less, keys.size(), keys.size());
  out.resize(keys.size());
  MergeRuns(Spans(one), less, out.data(), out.size());
  EXPECT_EQ(out, ref::StableSortPerm(keys, false, 0));
  // Three runs (pads to four leaves) with an empty span in the middle.
  std::vector<uint64_t> a = {5, 1}, b = {}, c = {3, 0, 2, 4};
  std::sort(a.begin(), a.end(), less);
  std::sort(c.begin(), c.end(), less);
  std::vector<RunSpan> spans = {RunSpan{a.data(), a.size()},
                                RunSpan{b.data(), b.size()},
                                RunSpan{c.data(), c.size()}};
  MergeRuns(spans, less, out.data(), out.size());
  EXPECT_EQ(out, ref::StableSortPerm(keys, false, 0));
}

// ---- merge-path splits -----------------------------------------------------

TEST(SplitRunsTest, PartitionsEveryRankExactly) {
  const uint64_t n = 300;
  const std::vector<double> keys = TiedKeys(n, 3, 10);  // heavy ties
  for (bool desc : {false, true}) {
    const SortKeyLess less{SortKeys{keys.data(), nullptr}, desc};
    const auto runs = ChunkRuns(less, n, 37);
    const auto spans = Spans(runs);
    const auto want = ref::StableSortPerm(keys, desc, 0);
    for (uint64_t t = 0; t <= n; ++t) {
      const auto splits = SplitRuns(spans, less, t);
      ASSERT_EQ(splits.size(), spans.size());
      uint64_t sum = 0;
      std::vector<uint64_t> prefix;
      for (size_t r = 0; r < spans.size(); ++r) {
        ASSERT_LE(splits[r], spans[r].len) << "t=" << t;
        sum += splits[r];
        prefix.insert(prefix.end(), spans[r].data, spans[r].data + splits[r]);
      }
      ASSERT_EQ(sum, t) << "desc=" << desc;
      // The prefixes must be exactly the t smallest elements.
      std::sort(prefix.begin(), prefix.end(), less);
      EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), want.begin()))
          << "t=" << t << " desc=" << desc;
    }
  }
}

class ParallelMergeTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelMergeTest, ChunkedMergeBitIdenticalToSequential) {
  MorselScheduler sched(GetParam());
  const uint64_t n = 4000;
  const std::vector<double> keys = TiedKeys(n, 19, 25);
  const SortKeyLess less{SortKeys{keys.data(), nullptr}, false};
  const auto runs = ChunkRuns(less, n, 113);
  const auto spans = Spans(runs);
  const auto want = ref::StableSortPerm(keys, false, 0);
  for (uint64_t chunk : {uint64_t{1}, uint64_t{3}, uint64_t{16}, uint64_t{64},
                         uint64_t{100000}}) {
    std::vector<uint64_t> out(n);
    std::vector<MorselMetrics> mm;
    const size_t nchunks =
        ParallelMergeRuns(spans, less, sched, chunk, n, out.data(), &mm);
    EXPECT_EQ(out, want) << "chunk=" << chunk;
    ASSERT_EQ(mm.size(), nchunks);
    uint64_t out_sum = 0;
    for (const auto& ms : mm) out_sum += ms.tuples_out;
    EXPECT_EQ(out_sum, n) << "chunk=" << chunk;
  }
}

TEST_P(ParallelMergeTest, ChunkedTopNMergeEmitsExactlyTheLimit) {
  MorselScheduler sched(GetParam());
  const uint64_t n = 2000, limit = 333;
  const std::vector<double> keys = TiedKeys(n, 23, 12);
  const SortKeyLess less{SortKeys{keys.data(), nullptr}, true};
  const auto runs = ChunkRuns(less, n, 71);
  std::vector<uint64_t> out(limit);
  std::vector<MorselMetrics> mm;
  ParallelMergeRuns(Spans(runs), less, sched, /*chunk_rows=*/50, limit,
                    out.data(), &mm);
  EXPECT_EQ(out, ref::StableSortPerm(keys, true, limit));
  uint64_t out_sum = 0;
  for (const auto& ms : mm) out_sum += ms.tuples_out;
  EXPECT_EQ(out_sum, limit);
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelMergeTest,
                         ::testing::Values(1, 2, 4, 8));

// ---- SortPerm inline (no fleet, or one morsel) ----------------------------

TEST(SortPermInlineTest, TopNPartialSortMatchesReference) {
  const uint64_t n = 5000;
  const std::vector<double> keys = TiedKeys(n, 31, 60);
  for (bool desc : {false, true}) {
    for (uint64_t limit : {uint64_t{0}, uint64_t{1}, n - 1, n, n + 10}) {
      std::vector<uint64_t> perm;
      std::vector<MorselMetrics> mm;
      SortPerm(SortKeys{keys.data(), nullptr}, n, desc,
               limit > 0 && limit < n ? limit : 0, /*fleet=*/nullptr,
               /*morsel_rows=*/64, &perm, &mm);
      EXPECT_EQ(perm, ref::StableSortPerm(keys, desc, limit))
          << "desc=" << desc << " limit=" << limit;
      EXPECT_TRUE(mm.empty());
    }
  }
}

TEST(SortPermInlineTest, NoFleetOneMorselEmptyAndOneRowMatchReference) {
  MorselScheduler sched(2);
  const std::vector<double> tied = TiedKeys(3000, 1, 5);
  const std::vector<std::vector<double>> inputs = {tied, {}, {2.5}};
  for (const std::vector<double>& keys : inputs) {
    const uint64_t n = keys.size();
    for (uint64_t limit : {uint64_t{0}, uint64_t{2}}) {
      // No fleet at a morsel size that would split the input, and a fleet
      // whose one morsel holds the whole input: both sort one run inline.
      for (bool fleet : {false, true}) {
        std::vector<uint64_t> perm;
        std::vector<MorselMetrics> mm;
        SortPerm(SortKeys{keys.data(), nullptr}, n, /*descending=*/false,
                 limit, fleet ? &sched : nullptr, fleet ? n + 1 : 7, &perm,
                 &mm);
        EXPECT_EQ(perm, ref::StableSortPerm(keys, false, limit))
            << "n=" << n << " limit=" << limit << " fleet=" << fleet;
        EXPECT_TRUE(mm.empty());
      }
    }
  }
}

TEST(SortPermParallelTest, RunsThenMergeChunksSumToInputAndOutput) {
  MorselScheduler sched(4);
  const uint64_t n = 5000;
  const std::vector<double> keys = TiedKeys(n, 29, 30);
  for (uint64_t limit : {uint64_t{0}, uint64_t{100}}) {
    std::vector<uint64_t> perm;
    std::vector<MorselMetrics> mm;
    SortPerm(SortKeys{keys.data(), nullptr}, n, /*descending=*/true, limit,
             &sched, /*morsel_rows=*/512, &perm, &mm);
    EXPECT_EQ(perm, ref::StableSortPerm(keys, true, limit)) << limit;
    // One entry per run (tuples_in), then one per merge chunk (tuples_out).
    const size_t runs = (n + 511) / 512;
    ASSERT_GT(mm.size(), runs);
    uint64_t in = 0, out = 0;
    for (size_t i = 0; i < mm.size(); ++i) {
      EXPECT_EQ(i < runs ? mm[i].tuples_out : mm[i].tuples_in, 0u) << i;
      in += mm[i].tuples_in;
      out += mm[i].tuples_out;
    }
    EXPECT_EQ(in, n);
    EXPECT_EQ(out, perm.size());
  }
}

// ---- run formation ---------------------------------------------------------

class BuildSortRunsTest : public ::testing::TestWithParam<int> {};

TEST_P(BuildSortRunsTest, RunsAreStableSortedAndMetricsSumToInput) {
  MorselScheduler sched(GetParam());
  const uint64_t n = 5000;
  const std::vector<double> keys = TiedKeys(n, 5, 30);
  const SortKeyLess less{SortKeys{keys.data(), nullptr}, false};
  std::vector<std::vector<uint64_t>> runs;
  std::vector<MorselMetrics> mm;
  BuildSortRuns(less, n, /*limit=*/0, sched, /*morsel_rows=*/512, &runs, &mm);
  const size_t nm = (n + 511) / 512;
  ASSERT_EQ(runs.size(), nm);
  ASSERT_EQ(mm.size(), nm);
  uint64_t rows = 0, in_sum = 0;
  for (size_t i = 0; i < nm; ++i) {
    EXPECT_TRUE(std::is_sorted(runs[i].begin(), runs[i].end(), less)) << i;
    rows += runs[i].size();
    in_sum += mm[i].tuples_in;
    EXPECT_EQ(mm[i].tuples_out, 0u);  // output is accounted by merge chunks
  }
  EXPECT_EQ(rows, n);
  EXPECT_EQ(in_sum, n);
}

TEST_P(BuildSortRunsTest, BoundedRunsKeepOnlyTheLimitSmallest) {
  MorselScheduler sched(GetParam());
  const uint64_t n = 3000, limit = 20;
  const std::vector<double> keys = TiedKeys(n, 9, 17);
  const SortKeyLess less{SortKeys{keys.data(), nullptr}, false};
  std::vector<std::vector<uint64_t>> runs;
  std::vector<MorselMetrics> mm;
  BuildSortRuns(less, n, limit, sched, /*morsel_rows=*/256, &runs, &mm);
  ASSERT_EQ(runs.size(), (n + 255) / 256);
  for (size_t i = 0; i < runs.size(); ++i) {
    ASSERT_LE(runs[i].size(), limit) << i;
    // Each run is the morsel's own stable-sort prefix.
    const uint64_t begin = i * 256;
    const uint64_t end = std::min(n, begin + 256);
    std::vector<uint64_t> full(end - begin);
    std::iota(full.begin(), full.end(), begin);
    std::sort(full.begin(), full.end(), less);
    full.resize(std::min<uint64_t>(limit, full.size()));
    EXPECT_EQ(runs[i], full) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, BuildSortRunsTest,
                         ::testing::Values(1, 2, 4, 8));

// ---- evaluator-level differential ------------------------------------------

class ParallelSortEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(17);
    const uint64_t n = 30000;
    std::vector<double> vv(n);
    std::vector<int64_t> iv(n), sel(n);
    // Tied float keys (stability stress), tied int keys, and a selection
    // attribute for carving candidate lists.
    for (auto& v : vv) v = static_cast<double>(rng.UniformRange(0, 99)) * 0.25;
    for (auto& v : iv) v = rng.UniformRange(-50, 49);
    for (auto& v : sel) v = rng.UniformRange(0, 999);
    vals_ = Column::MakeFloat64("vals", std::move(vv));
    ivals_ = Column::MakeInt64("ivals", std::move(iv));
    selcol_ = Column::MakeInt64("selcol", std::move(sel));
    allequal_ = Column::MakeInt64("allequal", std::vector<int64_t>(20000, 7));
  }

  // select -> fetch values -> sort/topn over the fetched (values + head).
  QueryPlan ValuesSortPlan(bool descending, uint64_t limit = 0,
                           int64_t hi = 499) {
    PlanBuilder b("valsort");
    int s = b.Select(selcol_.get(), Predicate::RangeI64(0, hi));
    int f = b.FetchJoin(vals_.get(), s);
    int srt = limit > 0 ? b.TopN(f, limit, descending)
                        : b.Sort(f, descending);
    return b.Result(srt);
  }

  // groupby -> grouped count -> sort the grouped aggregates.
  QueryPlan GroupedSortPlan(bool descending) {
    PlanBuilder b("groupsort");
    int g = b.GroupByLeaf(ivals_.get());
    int a = b.AggGrouped(AggFn::kCount, g);
    int srt = b.Sort(a, descending);
    return b.Result(srt);
  }

  // Runs `plan` on a new evaluator: inline, or on a fleet of `workers`.
  static EvalResult Run(const QueryPlan& plan, ExecOptions o,
                        int workers = 0) {
    Evaluator eval(o, workers > 0 ? std::make_shared<MorselScheduler>(workers)
                                  : nullptr);
    EvalResult er;
    EXPECT_TRUE(eval.Execute(plan, &er).ok());
    return er;
  }

  // Runs `plan` whole-column and on the fleet at every (morsel size x
  // worker count); every run must match the reference node by node, and
  // sorted kValues / kGroupedAgg intermediates must agree with the
  // whole-column run *bit-identically* (vector equality, not just semantic
  // tolerance).
  void ExpectParallelMatches(const QueryPlan& plan) {
    EvalResult base = Run(plan, ExecOptions{});
    ASSERT_EQ(ref::CheckAgainstReference(plan, base), "");

    for (uint64_t rows : kMorselSizes) {
      for (int workers : {1, 2, 4, 8}) {
        ExecOptions o;
        o.morsel_rows = rows;
        EvalResult got = Run(plan, o, workers);
        EXPECT_EQ(DiffIntermediates(base.result, got.result), "")
            << "rows=" << rows << " workers=" << workers;
        EXPECT_EQ(ref::CheckAgainstReference(plan, got), "")
            << "rows=" << rows << " workers=" << workers;
        ASSERT_EQ(base.intermediates.size(), got.intermediates.size());
        for (const auto& [id, inter] : base.intermediates) {
          const Intermediate& other = got.intermediates.at(id);
          if (inter.kind == Intermediate::Kind::kValues) {
            EXPECT_EQ(inter.values.i64, other.values.i64)
                << "node " << id << " rows=" << rows << " workers=" << workers;
            EXPECT_EQ(inter.values.f64, other.values.f64) << "node " << id;
            EXPECT_EQ(inter.head, other.head) << "node " << id;
          } else if (inter.kind == Intermediate::Kind::kGroupedAgg) {
            EXPECT_EQ(inter.agg_vals, other.agg_vals) << "node " << id;
            EXPECT_EQ(inter.agg_counts, other.agg_counts) << "node " << id;
            EXPECT_EQ(inter.group_keys.i64, other.group_keys.i64)
                << "node " << id;
          } else {
            EXPECT_EQ(DiffIntermediates(inter, other), "") << "node " << id;
          }
        }
      }
    }
  }

  ColumnPtr vals_, ivals_, selcol_, allequal_;
};

TEST_F(ParallelSortEvalTest, ValuesSortAscendingAndDescending) {
  ExpectParallelMatches(ValuesSortPlan(/*descending=*/false));
  ExpectParallelMatches(ValuesSortPlan(/*descending=*/true));
}

TEST_F(ParallelSortEvalTest, TopNAcrossLimitBoundaries) {
  // The select passes ~15000 rows; cover limit in {1, n-1, n, > n} plus the
  // degenerate limit-0 top-N (sorts everything).
  const uint64_t n = Run(ValuesSortPlan(false), ExecOptions{}).result.NumRows();
  ASSERT_GT(n, 2u);
  for (uint64_t limit : {uint64_t{1}, uint64_t{10}, n - 1, n, n + 1000}) {
    SCOPED_TRACE(limit);
    ExpectParallelMatches(ValuesSortPlan(/*descending=*/true, limit));
  }
  PlanBuilder b("topn0");
  int s = b.Select(selcol_.get(), Predicate::RangeI64(0, 499));
  int f = b.FetchJoin(vals_.get(), s);
  int t = b.TopN(f, 0);
  ExpectParallelMatches(b.Result(t));
}

TEST_F(ParallelSortEvalTest, AllEqualKeysPreserveInputOrder) {
  // Stability stress: every key ties, so the output head must be exactly the
  // input order at every morsel size and worker count.
  PlanBuilder b("allequal");
  int s = b.Select(allequal_.get(), Predicate::EqI64(7));
  int f = b.FetchJoin(allequal_.get(), s);
  int srt = b.Sort(f);
  QueryPlan plan = b.Result(srt);
  ExpectParallelMatches(plan);
  ExecOptions o;
  o.morsel_rows = 512;
  EvalResult er = Run(plan, o, 4);
  std::vector<oid> expect(20000);
  std::iota(expect.begin(), expect.end(), oid{0});
  EXPECT_EQ(er.result.head, expect);
}

TEST_F(ParallelSortEvalTest, EmptyInput) {
  auto empty = Column::MakeInt64("e", {});
  PlanBuilder b("emptysort");
  int s = b.Select(empty.get(), Predicate::RangeI64(0, 10));
  int f = b.FetchJoin(empty.get(), s);
  int srt = b.Sort(f);
  ExpectParallelMatches(b.Result(srt));
  PlanBuilder b2("emptyleaf");
  int l = b2.SortLeaf(empty.get());
  ExpectParallelMatches(b2.Result(l));
}

TEST_F(ParallelSortEvalTest, GroupedAggregateSort) {
  ExpectParallelMatches(GroupedSortPlan(/*descending=*/false));
  ExpectParallelMatches(GroupedSortPlan(/*descending=*/true));
}

TEST_F(ParallelSortEvalTest, RowIdInputSortGathersAndSorts) {
  // Sort over a row-id candidate list (value column bound on the node):
  // gathers vals_[row] per candidate, then orders by (value, position).
  PlanBuilder b("rowidsort");
  int s = b.Select(selcol_.get(), Predicate::RangeI64(0, 599));
  int srt = b.Sort(s);
  QueryPlan plan = b.Result(srt);
  plan.node(srt).column = vals_.get();
  ASSERT_TRUE(plan.Validate().ok());
  ExpectParallelMatches(plan);
}

TEST_F(ParallelSortEvalTest, LeafSortOverBaseColumns) {
  for (const Column* col : {vals_.get(), ivals_.get()}) {
    PlanBuilder b("leafsort");
    int srt = b.SortLeaf(col, /*descending=*/col == ivals_.get());
    ExpectParallelMatches(b.Result(srt));
  }
  PlanBuilder b("leaftopn");
  int t = b.TopNLeaf(vals_.get(), 25, /*descending=*/true);
  ExpectParallelMatches(b.Result(t));
}

TEST_F(ParallelSortEvalTest, SlicedLeafSortCoversOnlyTheSlice) {
  PlanBuilder b("slicedleaf");
  int srt = b.SortLeaf(vals_.get());
  QueryPlan plan = b.Result(srt);
  plan.node(srt).has_slice = true;
  plan.node(srt).slice = RowRange{3000, 17000};
  ASSERT_TRUE(plan.Validate().ok());
  ExpectParallelMatches(plan);
  // Manual reference: the slice's values stable-sorted, head = base row ids.
  EvalResult er = Run(plan, ExecOptions{});
  ASSERT_EQ(er.result.NumRows(), 14000u);
  const auto& f64 = vals_->f64();
  std::vector<double> window(f64.begin() + 3000, f64.begin() + 17000);
  const auto want = ref::StableSortPerm(window, false, 0);
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(er.result.head[i], static_cast<oid>(3000 + want[i])) << i;
    ASSERT_EQ(er.result.values.f64[i], window[want[i]]) << i;
  }
}

TEST_F(ParallelSortEvalTest, SlicedRowIdSortClipsLikeTheJoinProbe) {
  PlanBuilder b("slicedrowid");
  int s = b.Select(selcol_.get(), Predicate::RangeI64(0, 799));
  int srt = b.Sort(s);
  QueryPlan plan = b.Result(srt);
  plan.node(srt).column = vals_.get();
  plan.node(srt).has_slice = true;
  plan.node(srt).slice = RowRange{5000, 21000};
  ASSERT_TRUE(plan.Validate().ok());
  ExpectParallelMatches(plan);
  // Manual reference: in-slice candidates only, stable by (value, position).
  EvalResult er = Run(plan, ExecOptions{});
  std::vector<oid> cand;
  for (oid row = 0; row < selcol_->size(); ++row) {
    if (selcol_->i64()[row] <= 799 && row >= 5000 && row < 21000) {
      cand.push_back(row);
    }
  }
  ASSERT_EQ(er.result.NumRows(), cand.size());
  std::vector<double> keys(cand.size());
  for (size_t i = 0; i < cand.size(); ++i) keys[i] = vals_->f64()[cand[i]];
  const auto want = ref::StableSortPerm(keys, false, 0);
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(er.result.head[i], cand[want[i]]) << i;
  }
}

TEST_F(ParallelSortEvalTest, PerMorselCountsSumToOperatorTotals) {
  for (uint64_t limit : {uint64_t{0}, uint64_t{100}}) {
    ExecOptions o;
    o.morsel_rows = 1024;
    Evaluator eval(o, std::make_shared<MorselScheduler>(4));
    EvalResult er;
    ASSERT_TRUE(
        eval.Execute(ValuesSortPlan(/*descending=*/false, limit), &er).ok());
    bool saw_sort = false;
    for (const auto& m : er.metrics) {
      if (m.kind != OpKind::kSort && m.kind != OpKind::kTopN) continue;
      if (m.morsels.empty()) continue;
      saw_sort = true;
      uint64_t in = 0, out = 0;
      for (const auto& ms : m.morsels) {
        in += ms.tuples_in;
        out += ms.tuples_out;
      }
      // Run tasks carry the input rows, merge chunks the output rows.
      EXPECT_EQ(in, m.tuples_in) << "limit=" << limit;
      EXPECT_EQ(out, m.tuples_out) << "limit=" << limit;
    }
    if (eval.EffectiveMorselRows() < 10000) {
      EXPECT_TRUE(saw_sort) << "limit=" << limit;
    }
  }
}

TEST_F(ParallelSortEvalTest, SlicedRowIdMorselCountsSumToSortedRows) {
  // Slice-clipped rowid inputs drop candidates before sorting, so the run
  // tasks sum to sort_rows (the clipped count), not to the operator's
  // tuples_in — the one shape where the two differ.
  PlanBuilder b("slicedcounts");
  int s = b.Select(selcol_.get(), Predicate::RangeI64(0, 799));
  int srt = b.Sort(s);
  QueryPlan plan = b.Result(srt);
  plan.node(srt).column = vals_.get();
  plan.node(srt).has_slice = true;
  plan.node(srt).slice = RowRange{5000, 21000};
  ExecOptions o;
  o.morsel_rows = 1024;
  Evaluator eval(o, std::make_shared<MorselScheduler>(4));
  EvalResult er;
  ASSERT_TRUE(eval.Execute(plan, &er).ok());
  for (const auto& m : er.metrics) {
    if (m.kind != OpKind::kSort || m.morsels.empty()) continue;
    uint64_t in = 0, out = 0;
    for (const auto& ms : m.morsels) {
      in += ms.tuples_in;
      out += ms.tuples_out;
    }
    EXPECT_EQ(in, m.sort_rows);
    EXPECT_LT(m.sort_rows, m.tuples_in);  // clipping actually dropped rows
    EXPECT_EQ(out, m.tuples_out);
  }
}

TEST_F(ParallelSortEvalTest, DeterministicAcrossRepeatedRuns) {
  ExecOptions o;
  o.morsel_rows = 512;
  Evaluator eval(o, std::make_shared<MorselScheduler>(4));
  QueryPlan plan = ValuesSortPlan(/*descending=*/true);
  EvalResult first;
  ASSERT_TRUE(eval.Execute(plan, &first).ok());
  for (int rep = 0; rep < 5; ++rep) {
    EvalResult again;
    ASSERT_TRUE(eval.Execute(plan, &again).ok());
    // Bit-exact repeatability (not just tolerance): the merged permutation
    // is unique under (value, position), independent of stealing.
    EXPECT_EQ(first.result.values.f64, again.result.values.f64) << rep;
    EXPECT_EQ(first.result.head, again.result.head) << rep;
  }
}

// ---- wall-clock speedup (gated on real cores) ------------------------------

TEST(ParallelSortSpeedupTest, ParallelSortBeatsSequentialOnMulticore) {
  if (Evaluator::ForcedEnvMorselRows() != 0) {
    GTEST_SKIP() << "APQ_FORCE_MORSELS gives the default (baseline) "
                    "evaluator a fleet too, so both sides would run the same "
                    "configuration; run without the override to compare";
  }
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads; correctness/determinism "
                    "suites gate on this machine";
  }
  Rng rng(3);
  std::vector<double> kv(1 << 23);  // 8M rows
  for (auto& v : kv) v = rng.NextDouble();
  auto col = Column::MakeFloat64("big", std::move(kv));
  PlanBuilder b("sort");
  int srt = b.SortLeaf(col.get());
  QueryPlan plan = b.Result(srt);

  auto best_of = [&](Evaluator& eval) {
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      EvalResult er;
      EXPECT_TRUE(eval.Execute(plan, &er).ok());
      best = std::min(best, er.wall_ns);
    }
    return best;
  };
  Evaluator whole;  // kernels, whole-column stable sort
  ExecOptions o;
  Evaluator par(o, std::make_shared<MorselScheduler>(4));
  EXPECT_LT(best_of(par), best_of(whole))
      << "morsel-local runs + parallel k-way merge should beat one "
         "stable_sort on >= 4 cores";
}

}  // namespace
}  // namespace apq

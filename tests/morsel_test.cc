// Morsel-driven intra-operator execution: the work-stealing scheduler, the
// morsel source, and — above all — bit-identity of morsel execution against
// whole-column kernels and the row-at-a-time reference (reference_ops.h)
// across morsel sizes, worker counts, table shapes, and predicate
// selectivities.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "exec/compare.h"
#include "exec/evaluator.h"
#include "exec/morsel_source.h"
#include "plan/builder.h"
#include "reference_ops.h"
#include "sched/morsel_scheduler.h"
#include "util/hash_clock.h"
#include "util/rng.h"
#include "workload/tpch.h"

namespace apq {
namespace {

// ---- MorselSource ----------------------------------------------------------

TEST(MorselSourceTest, CoversRangeExactlyOnce) {
  MorselSource src(100, 1000, 128);
  ASSERT_EQ(src.num_morsels(), 8u);  // 900 rows / 128
  uint64_t expect_begin = 100;
  uint64_t covered = 0;
  for (size_t i = 0; i < src.num_morsels(); ++i) {
    Morsel m = src.morsel(i);
    EXPECT_EQ(m.index, i);
    EXPECT_EQ(m.begin, expect_begin);
    EXPECT_GT(m.end, m.begin);
    EXPECT_LE(m.size(), 128u);
    expect_begin = m.end;
    covered += m.size();
  }
  EXPECT_EQ(expect_begin, 1000u);
  EXPECT_EQ(covered, 900u);
}

TEST(MorselSourceTest, EmptyAndOversizedInputs) {
  EXPECT_EQ(MorselSource(5, 5, 64).num_morsels(), 0u);
  EXPECT_EQ(MorselSource(0, 0, 64).num_morsels(), 0u);
  // Morsel larger than the input: one morsel, the whole input.
  MorselSource big(0, 10, 1 << 20);
  ASSERT_EQ(big.num_morsels(), 1u);
  EXPECT_EQ(big.morsel(0).begin, 0u);
  EXPECT_EQ(big.morsel(0).end, 10u);
  // morsel_rows = 0 falls back to the default, never divides by zero.
  EXPECT_EQ(MorselSource(0, 10, 0).num_morsels(), 1u);
}

// ---- MorselScheduler -------------------------------------------------------

TEST(MorselSchedulerTest, RunsEveryIndexExactlyOnce) {
  MorselScheduler sched(4);
  EXPECT_EQ(sched.num_workers(), 4);
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  sched.ParallelFor(n, [&](size_t i, int) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  EXPECT_EQ(sched.total_tasks(), n);
}

TEST(MorselSchedulerTest, ZeroTasksReturnsImmediately) {
  MorselScheduler sched(2);
  bool ran = false;
  sched.ParallelFor(0, [&](size_t, int) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(MorselSchedulerTest, ReportsValidWorkerIds) {
  MorselScheduler sched(3);
  std::vector<std::atomic<int>> seen(4);
  for (auto& s : seen) s.store(0);
  sched.ParallelFor(64, [&](size_t, int worker) {
    ASSERT_GE(worker, MorselScheduler::kCallerWorker);
    ASSERT_LT(worker, 3);
    seen[worker + 1].fetch_add(1);  // slot 0 = caller
  });
  int total = 0;
  for (auto& s : seen) total += s.load();
  EXPECT_EQ(total, 64);
}

TEST(MorselSchedulerTest, ConcurrentJobsShareOneFleet) {
  // The multi-query scenario: several threads issue ParallelFor against one
  // scheduler; every job must complete with every index run exactly once.
  MorselScheduler sched(4);
  constexpr int kJobs = 6;
  constexpr size_t kTasks = 200;
  std::vector<std::vector<std::atomic<int>>> hits(kJobs);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kTasks);
    for (auto& a : h) a.store(0);
  }
  std::vector<std::thread> queries;
  for (int j = 0; j < kJobs; ++j) {
    queries.emplace_back([&sched, &hits, j] {
      sched.ParallelFor(kTasks,
                        [&hits, j](size_t i, int) { hits[j][i].fetch_add(1); });
    });
  }
  for (auto& q : queries) q.join();
  for (int j = 0; j < kJobs; ++j) {
    for (size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(hits[j][i].load(), 1) << "job " << j << " task " << i;
    }
  }
  EXPECT_EQ(sched.total_tasks(), static_cast<uint64_t>(kJobs) * kTasks);
}

TEST(MorselSchedulerTest, NestedParallelForFinishesAndRunsEachIndexOnce) {
  // The evaluator's shape: an outer job whose tasks (plan nodes) each submit
  // an inner job (their morsels) to the same fleet, from several concurrent
  // callers (queries). Every inner index must run exactly once, and nothing
  // may deadlock even when the fleet has a single worker.
  constexpr size_t kCallers = 4, kOuter = 8, kInner = 64;
  for (int workers : {1, 4}) {
    MorselScheduler sched(workers);
    std::vector<std::atomic<int>> hits(kCallers * kOuter * kInner);
    for (auto& h : hits) h.store(0);
    std::vector<std::thread> callers;
    for (size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&sched, &hits, c] {
        sched.ParallelFor(
            kOuter,
            [&sched, &hits, c](size_t o, int) {
              sched.ParallelFor(kInner, [&hits, c, o](size_t i, int) {
                hits[(c * kOuter + o) * kInner + i].fetch_add(1);
              });
            },
            /*bill=*/false);
      });
    }
    for (auto& t : callers) t.join();
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " index " << i;
    }
    EXPECT_EQ(sched.total_tasks(), kCallers * kOuter * (1 + kInner));
  }
}

TEST(MorselSchedulerTest, NestedJobsCountBusyTimeOnce) {
  // A task that hosts a nested job must not count that job as its own busy
  // time: the inner tasks are already counted where they ran, so workers'
  // busy_ns plus caller_busy_ns equals the inner work, not inner work plus
  // the outer task's wait for it.
  MorselScheduler sched(2);
  std::atomic<uint64_t> inner_ns{0};
  sched.ParallelFor(
      1,
      [&sched, &inner_ns](size_t, int) {
        sched.ParallelFor(4, [&inner_ns](size_t, int) {
          const double t0 = NowNs();
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          inner_ns.fetch_add(static_cast<uint64_t>(NowNs() - t0));
        });
      },
      /*bill=*/false);
  // A worker adds its busy time just after its task signals completion, so
  // wait (briefly) for the last increment to land.
  auto total_busy = [&sched] {
    uint64_t busy = sched.caller_busy_ns();
    for (const auto& w : sched.worker_stats()) busy += w.busy_ns;
    return busy;
  };
  for (int i = 0; i < 1000 && total_busy() < inner_ns.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t busy = total_busy();
  EXPECT_GE(busy, inner_ns.load());
  // The nested job's wall time is at least one 20 ms task; counting it twice
  // would overshoot by that much.
  EXPECT_LT(busy, inner_ns.load() + 15'000'000);
}

TEST(MorselSchedulerTest, WorkerStatsAccountForAllTasks) {
  MorselScheduler sched(2);
  sched.ParallelFor(128, [](size_t, int) {});
  uint64_t counted = sched.caller_tasks();
  for (const auto& w : sched.worker_stats()) counted += w.tasks;
  EXPECT_EQ(counted, 128u);
  EXPECT_EQ(counted, sched.total_tasks());
}

// ---- differential: morsel vs whole-column vs reference ---------------------

// The morsel sizes the acceptance criteria call out: pathological (1), odd
// (7), sub-default (4096), default (64K), and larger than any test table.
const uint64_t kMorselSizes[] = {1, 7, 4096, 64 * 1024, 1 << 30};

class MorselDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    const uint64_t n = 20000;
    std::vector<int64_t> iv(n);
    std::vector<double> fv(n);
    for (auto& v : iv) v = rng.UniformRange(0, 999);
    for (auto& v : fv) v = rng.NextDouble();
    ints_ = Column::MakeInt64("ints", std::move(iv));
    floats_ = Column::MakeFloat64("floats", std::move(fv));
  }

  // select(ints) -> select(floats, candidates) -> fetchjoin(floats): the
  // three morselized operators in one pipeline.
  QueryPlan Pipeline(int64_t hi, double fhi) {
    PlanBuilder b("pipeline");
    int s1 = b.Select(ints_.get(), Predicate::RangeI64(0, hi));
    int s2 = b.Select(floats_.get(), Predicate::RangeF64(0.0, fhi), s1);
    int f = b.FetchJoin(floats_.get(), s2);
    return b.Result(f);
  }

  // Reference = reference_ops.h, recomputed per node; baseline =
  // whole-column kernels; subject = morsel execution at every (morsel size x
  // worker count) combination. Every run is checked against the reference.
  void ExpectMorselMatches(const QueryPlan& plan) {
    Evaluator whole;  // kernels, no morsels
    EvalResult base;
    ASSERT_TRUE(whole.Execute(plan, &base).ok());
    ASSERT_EQ(ref::CheckAgainstReference(plan, base), "");

    for (uint64_t rows : kMorselSizes) {
      for (int workers : {1, 2, 4, 8}) {
        ExecOptions o;
        o.morsel_rows = rows;
        Evaluator morsel(o, std::make_shared<MorselScheduler>(workers));
        EvalResult got;
        ASSERT_TRUE(morsel.Execute(plan, &got).ok())
            << "rows=" << rows << " workers=" << workers;
        EXPECT_EQ(DiffIntermediates(base.result, got.result), "")
            << "rows=" << rows << " workers=" << workers;
        EXPECT_EQ(ref::CheckAgainstReference(plan, got), "")
            << "rows=" << rows << " workers=" << workers;
        ASSERT_EQ(base.metrics.size(), got.metrics.size());
        for (size_t i = 0; i < base.metrics.size(); ++i) {
          EXPECT_EQ(base.metrics[i].tuples_in, got.metrics[i].tuples_in);
          EXPECT_EQ(base.metrics[i].tuples_out, got.metrics[i].tuples_out);
          EXPECT_EQ(base.metrics[i].random_accesses,
                    got.metrics[i].random_accesses);
        }
      }
    }
  }

  ColumnPtr ints_, floats_;
};

TEST_F(MorselDifferentialTest, MidSelectivityPipeline) {
  ExpectMorselMatches(Pipeline(499, 0.5));
}

TEST_F(MorselDifferentialTest, AllPassPredicate) {
  ExpectMorselMatches(Pipeline(999, 1.0));
}

TEST_F(MorselDifferentialTest, AllFailPredicate) {
  ExpectMorselMatches(Pipeline(-1, 0.5));
}

TEST_F(MorselDifferentialTest, EmptyTable) {
  auto empty_i = Column::MakeInt64("ei", {});
  auto empty_f = Column::MakeFloat64("ef", {});
  PlanBuilder b("empty");
  int s = b.Select(empty_i.get(), Predicate::RangeI64(0, 10));
  int f = b.FetchJoin(empty_f.get(), s);
  ExpectMorselMatches(b.Result(f));
}

TEST_F(MorselDifferentialTest, LikePredicateOverDictionary) {
  const std::vector<std::string> fruit = {"apple",   "banana", "cherry",
                                          "apricot", "plum",   "peach"};
  std::vector<std::string> data;
  data.reserve(18000);
  for (int i = 0; i < 3000; ++i) {
    data.insert(data.end(), fruit.begin(), fruit.end());
  }
  auto strs = Column::MakeString("s", data);
  PlanBuilder b("like");
  int s = b.Select(strs.get(), Predicate::Like("ap"));
  ExpectMorselMatches(b.Result(s));
}

TEST_F(MorselDifferentialTest, PerMorselTupleCountsSumToOperatorCounts) {
  QueryPlan plan = Pipeline(499, 0.5);
  ExecOptions o;
  o.morsel_rows = 1024;
  Evaluator eval(o, std::make_shared<MorselScheduler>(4));
  EvalResult er;
  ASSERT_TRUE(eval.Execute(plan, &er).ok());
  int morselized_ops = 0;
  for (const auto& m : er.metrics) {
    if (m.morsels.empty()) continue;
    ++morselized_ops;
    uint64_t in = 0, out = 0;
    for (const auto& ms : m.morsels) {
      in += ms.tuples_in;
      out += ms.tuples_out;
    }
    EXPECT_EQ(in, m.tuples_in) << "node " << m.node_id;
    EXPECT_EQ(out, m.tuples_out) << "node " << m.node_id;
  }
  // 20000 rows / 1024 per morsel: the dense select (and the candidate stages
  // while their inputs stay above one morsel) must have split — unless an
  // APQ_FORCE_MORSELS override raised the morsel size past the table.
  if (eval.EffectiveMorselRows() < 20000) {
    EXPECT_GE(morselized_ops, 1);
  }
}

TEST_F(MorselDifferentialTest, StrictMisalignmentReportsSameErrorAsSerial) {
  // A sliced fetch-join under kStrict whose candidates cross the slice: the
  // morsel path must fail with exactly the whole-column kernel's error.
  PlanBuilder b("strict");
  int s = b.Select(ints_.get(), Predicate::RangeI64(0, 999));
  int f = b.FetchJoin(floats_.get(), s);
  QueryPlan plan = b.Result(f);
  PlanNode& fetch = plan.node(f);
  fetch.has_slice = true;
  fetch.slice = RowRange{0, 5000};
  fetch.align = AlignPolicy::kStrict;

  Evaluator whole;
  EvalResult er;
  Status serial_st = whole.Execute(plan, &er);
  ASSERT_FALSE(serial_st.ok());

  for (uint64_t rows : kMorselSizes) {
    ExecOptions o;
    o.morsel_rows = rows;
    Evaluator morsel(o, std::make_shared<MorselScheduler>(4));
    EvalResult er2;
    Status st = morsel.Execute(plan, &er2);
    ASSERT_FALSE(st.ok()) << "rows=" << rows;
    EXPECT_EQ(st.code(), serial_st.code()) << "rows=" << rows;
    EXPECT_EQ(st.message(), serial_st.message()) << "rows=" << rows;
  }
}

// ---- wall-clock speedup (gated on real cores) ------------------------------

TEST(MorselSpeedupTest, MorselsBeatWholeColumnOnMulticore) {
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
  std::vector<int64_t> iv(1 << 24);  // 16M rows
  for (auto& v : iv) v = rng.UniformRange(0, 999);
  auto col = Column::MakeInt64("big", std::move(iv));
  PlanBuilder b("scan");
  int s = b.Select(col.get(), Predicate::RangeI64(0, 499));
  QueryPlan plan = b.Result(s);

  // Best-of-5 on both sides: on shared CI runners that report 4 hardware
  // threads a single sample loses to noisy neighbours; the minimum is the
  // contention-free estimate (morsel_test is also RUN_SERIAL under ctest).
  auto best_of = [&](Evaluator& eval) {
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      EvalResult er;
      EXPECT_TRUE(eval.Execute(plan, &er).ok());
      best = std::min(best, er.wall_ns);
    }
    return best;
  };
  Evaluator whole;  // kernels, whole-column
  ExecOptions o;
  Evaluator morsel(o, std::make_shared<MorselScheduler>(4));
  const double whole_ns = best_of(whole);
  const double morsel_ns = best_of(morsel);
  EXPECT_LT(morsel_ns, whole_ns)
      << "morsel-parallel dense select should beat whole-column on >= 4 cores";
}

// ---- shared scheduler across evaluators ------------------------------------

TEST(MorselSharingTest, EvaluatorsShareInjectedScheduler) {
  auto sched = std::make_shared<MorselScheduler>(2);
  Rng rng(11);
  std::vector<int64_t> iv(50000);
  for (auto& v : iv) v = rng.UniformRange(0, 99);
  auto col = Column::MakeInt64("c", std::move(iv));
  PlanBuilder b("q");
  int s = b.Select(col.get(), Predicate::RangeI64(0, 49));
  QueryPlan plan = b.Result(s);

  ExecOptions o;
  o.morsel_rows = 1024;
  Evaluator e1(o, sched), e2(o, sched);

  const uint64_t before = sched->total_tasks();
  std::thread t1([&] {
    EvalResult er;
    ASSERT_TRUE(e1.Execute(plan, &er).ok());
  });
  std::thread t2([&] {
    EvalResult er;
    ASSERT_TRUE(e2.Execute(plan, &er).ok());
  });
  t1.join();
  t2.join();
  // Both queries' morsels ran on the one injected fleet. The per-query count
  // follows the effective morsel size (APQ_FORCE_MORSELS may override it);
  // when the whole table fits in one morsel the evaluator takes the
  // whole-column path and schedules nothing.
  const uint64_t rows = e1.EffectiveMorselRows();
  const uint64_t per_query = (50000 + rows - 1) / rows;
  const uint64_t expected = per_query >= 2 ? 2 * per_query : 0;
  EXPECT_EQ(sched->total_tasks() - before, expected);
}

}  // namespace
}  // namespace apq

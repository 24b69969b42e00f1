// Fleet execution of exchange-parallelized plans: each dataflow level of
// clones runs as one MorselScheduler job, and must reproduce inline
// execution exactly (same intermediates, same metrics order) at every
// worker count; errors must come back deterministic from worker threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "adaptive/mutator.h"
#include "sched/morsel_scheduler.h"
#include "exec/compare.h"
#include "exec/evaluator.h"
#include "heuristic/parallelizer.h"
#include "plan/builder.h"
#include "reference_ops.h"
#include "workload/tpch.h"

namespace apq {
namespace {

// Vector equality with doubles compared by bit pattern.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Every member of two intermediates, bit for bit.
std::string BitDiff(const Intermediate& a, const Intermediate& b) {
  if (a.kind != b.kind) return "kind";
  if (a.rowids != b.rowids) return "rowids";
  if (a.rrowids != b.rrowids) return "rrowids";
  if (a.head != b.head) return "head";
  if (a.values.i64 != b.values.i64 || !SameBits(a.values.f64, b.values.f64)) {
    return "values";
  }
  if (a.group_ids != b.group_ids) return "group_ids";
  if (a.group_keys.i64 != b.group_keys.i64 ||
      !SameBits(a.group_keys.f64, b.group_keys.f64)) {
    return "group_keys";
  }
  if (!SameBits(a.agg_vals, b.agg_vals)) return "agg_vals";
  if (a.agg_counts != b.agg_counts) return "agg_counts";
  if (std::memcmp(&a.scalar, &b.scalar, sizeof(double)) != 0) return "scalar";
  if (a.scalar_count != b.scalar_count) return "scalar_count";
  return "";
}

std::shared_ptr<MorselScheduler> Fleet(int workers) {
  return std::make_shared<MorselScheduler>(workers);
}

class ParallelExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig cfg;
    cfg.lineitem_rows = 6000;
    cat_ = Tpch::Generate(cfg);
  }

  // Executes `plan` inline and on fleets of 1, 2, 4 and 8 workers; all must
  // succeed, agree bit for bit on every reachable intermediate, and return
  // metrics in the same (topological) order.
  void ExpectThreadedMatchesSerial(const QueryPlan& plan) {
    Evaluator serial;
    EvalResult a;
    ASSERT_TRUE(serial.Execute(plan, &a).ok());
    for (int workers : {1, 2, 4, 8}) {
      Evaluator threaded(ExecOptions(), Fleet(workers));
      EvalResult b;
      ASSERT_TRUE(threaded.Execute(plan, &b).ok()) << workers;
      EXPECT_EQ(BitDiff(a.result, b.result), "") << workers;
      ASSERT_EQ(a.intermediates.size(), b.intermediates.size());
      for (const auto& [id, inter] : a.intermediates) {
        ASSERT_TRUE(b.intermediates.count(id));
        EXPECT_EQ(BitDiff(inter, b.intermediates.at(id)), "")
            << "node " << id << " workers " << workers;
      }
      // Metrics come back in topological order regardless of which worker
      // ran which node (the simulator depends on this ordering).
      ASSERT_EQ(a.metrics.size(), b.metrics.size());
      for (size_t i = 0; i < a.metrics.size(); ++i) {
        EXPECT_EQ(a.metrics[i].node_id, b.metrics[i].node_id) << i;
        EXPECT_EQ(a.metrics[i].tuples_out, b.metrics[i].tuples_out) << i;
        // Hash-build cost lands on the topologically-first join regardless
        // of which worker raced to build (both evaluators are cold here).
        EXPECT_EQ(a.metrics[i].hash_build_rows, b.metrics[i].hash_build_rows)
            << i;
      }
    }
  }

  std::shared_ptr<Catalog> cat_;
};

TEST_F(ParallelExecTest, HeuristicPlansReproduceSerialResults) {
  for (const auto& name : Tpch::QueryNames()) {
    auto serial_plan = Tpch::Query(*cat_, name);
    ASSERT_TRUE(serial_plan.ok()) << name;
    for (int dop : {2, 8}) {
      HeuristicParallelizer hp(HeuristicConfig{.dop = dop});
      auto plan = hp.Parallelize(serial_plan.ValueOrDie());
      ASSERT_TRUE(plan.ok()) << name;
      ExpectThreadedMatchesSerial(plan.ValueOrDie()) ;
    }
  }
}

TEST_F(ParallelExecTest, HeuristicPlansMatchTheReferenceNodeByNode) {
  // Every referenced node of the seven queries' heuristic plans, recomputed
  // from its own inputs: the clones' partial aggregates and the aggr-merges
  // that recombine them included. Inline, and on fleets whose morsels split
  // every scan.
  size_t aggregates = 0, merges = 0;
  ExecOptions o;
  o.morsel_rows = 512;
  for (const auto& name : Tpch::QueryNames()) {
    auto serial_plan = Tpch::Query(*cat_, name);
    ASSERT_TRUE(serial_plan.ok()) << name;
    for (int dop : {2, 4, 8, 32}) {
      HeuristicParallelizer hp(HeuristicConfig{.dop = dop});
      auto plan = hp.Parallelize(serial_plan.ValueOrDie());
      ASSERT_TRUE(plan.ok()) << name;
      for (int workers : {0, 1, 4}) {
        Evaluator eval(o, workers > 0 ? Fleet(workers) : nullptr);
        EvalResult er;
        ASSERT_TRUE(eval.Execute(plan.ValueOrDie(), &er).ok())
            << name << " dop " << dop << " workers " << workers;
        EXPECT_EQ(ref::CheckAgainstReference(plan.ValueOrDie(), er), "")
            << name << " dop " << dop << " workers " << workers;
        for (const OpMetrics& m : er.metrics) {
          aggregates += m.kind == OpKind::kAggregate;
          merges += m.kind == OpKind::kAggrMerge;
        }
      }
    }
  }
  EXPECT_GT(aggregates, 0u);
  EXPECT_GT(merges, 0u);
}

TEST_F(ParallelExecTest, MutatedExchangePlanReproducesSerialResult) {
  auto q6 = Tpch::Q6(*cat_);
  ASSERT_TRUE(q6.ok());
  QueryPlan plan = q6.MoveValueOrDie();
  // Split the leaf select 4 ways: the clones are independent subtrees feeding
  // one exchange union, exactly the concurrency the fleet exploits.
  Mutator mutator;
  int sel = -1;
  for (int i = 0; i < plan.num_nodes(); ++i) {
    if (plan.node(i).kind == OpKind::kSelect) { sel = i; break; }
  }
  ASSERT_GE(sel, 0);
  ASSERT_TRUE(mutator.SplitNode(&plan, sel, 4).ok());
  ASSERT_TRUE(plan.Validate().ok());
  ExpectThreadedMatchesSerial(plan);
}

TEST_F(ParallelExecTest, ThreadedExecutionIsDeterministicAcrossRuns) {
  auto q14 = Tpch::Query(*cat_, "Q14");
  ASSERT_TRUE(q14.ok());
  HeuristicParallelizer hp(HeuristicConfig{.dop = 8});
  auto plan = hp.Parallelize(q14.ValueOrDie());
  ASSERT_TRUE(plan.ok());
  Evaluator threaded(ExecOptions(), Fleet(4));
  EvalResult first;
  ASSERT_TRUE(threaded.Execute(plan.ValueOrDie(), &first).ok());
  for (int rep = 0; rep < 5; ++rep) {
    EvalResult again;
    ASSERT_TRUE(threaded.Execute(plan.ValueOrDie(), &again).ok());
    EXPECT_EQ(BitDiff(first.result, again.result), "") << rep;
  }
}

TEST_F(ParallelExecTest, ErrorsPropagateFromWorkerThreads) {
  // Both plans split their select into exchange clones, so the failing run
  // and the recovery run each execute their clone level as one fleet job.
  std::vector<int64_t> iv(1024);
  for (size_t i = 0; i < iv.size(); ++i) iv[i] = static_cast<int64_t>(i) + 1;
  auto ints = Column::MakeInt64("ints", std::move(iv));
  Mutator mutator;
  PlanBuilder b("bad");
  int sel = b.Select(ints.get(), Predicate::Like("x"));  // LIKE on non-string
  QueryPlan plan = b.Result(sel);
  ASSERT_TRUE(mutator.SplitNode(&plan, sel, 2).ok());
  Evaluator threaded(ExecOptions(), Fleet(4));
  const std::shared_ptr<MorselScheduler>& fleet = threaded.morsel_scheduler();
  uint64_t before = fleet->total_tasks();
  EvalResult er;
  Status st = threaded.Execute(plan, &er);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_GT(fleet->total_tasks(), before);
  // The evaluator must remain usable after a failed fleet level.
  PlanBuilder b2("good");
  int sel2 = b2.Select(ints.get(), Predicate::RangeI64(512, 513));
  QueryPlan plan2 = b2.Result(sel2);
  ASSERT_TRUE(mutator.SplitNode(&plan2, sel2, 2).ok());
  before = fleet->total_tasks();
  EvalResult er2;
  ASSERT_TRUE(threaded.Execute(plan2, &er2).ok());
  EXPECT_GT(fleet->total_tasks(), before);
  // One match on each side of the 512-row clone boundary.
  EXPECT_EQ(er2.result.rowids, (std::vector<oid>{511, 512}));
}

TEST_F(ParallelExecTest, FailingClonesReturnTheSameErrorEveryRun) {
  // Every fetch-join clone gets an empty strict slice, so each one fails on
  // its own first candidate: the clones of one level fail with different
  // messages, and the level must report its lowest topological failure on
  // every run. All failures share one level here, so that is also the error
  // inline execution stops at.
  auto q6 = Tpch::Q6(*cat_);
  ASSERT_TRUE(q6.ok());
  HeuristicParallelizer hp(HeuristicConfig{.dop = 4});
  auto parallel = hp.Parallelize(q6.ValueOrDie());
  ASSERT_TRUE(parallel.ok());
  QueryPlan plan = parallel.MoveValueOrDie();
  int clones = 0;
  for (int i = 0; i < plan.num_nodes(); ++i) {
    PlanNode& node = plan.node(i);
    if (node.kind != OpKind::kFetchJoin) continue;
    node.has_slice = true;
    node.slice = RowRange{0, 0};
    node.align = AlignPolicy::kStrict;
    ++clones;
  }
  ASSERT_GE(clones, 2);

  Evaluator serial;
  EvalResult er;
  const Status want = serial.Execute(plan, &er);
  ASSERT_EQ(want.code(), StatusCode::kMisaligned);
  for (int workers : {1, 4}) {
    Evaluator threaded(ExecOptions(), Fleet(workers));
    for (int rep = 0; rep < 10; ++rep) {
      const Status st = threaded.Execute(plan, &er);
      EXPECT_EQ(st.code(), want.code()) << workers << " rep " << rep;
      EXPECT_EQ(st.message(), want.message()) << workers << " rep " << rep;
    }
  }
}

TEST_F(ParallelExecTest, FailuresOnTwoLevelsReturnTheFirstFailingLevel) {
  // Clone chains interleave in topological order, so a fetch clone (level 1)
  // can come before another chain's leaf select (level 0). With both failing,
  // inline execution stops at the fetch, while the fleet stops after level 0
  // and returns the select's error — on every run and at every worker count.
  auto q6 = Tpch::Q6(*cat_);
  ASSERT_TRUE(q6.ok());
  HeuristicParallelizer hp(HeuristicConfig{.dop = 4});
  auto parallel = hp.Parallelize(q6.ValueOrDie());
  ASSERT_TRUE(parallel.ok());
  QueryPlan plan = parallel.MoveValueOrDie();
  auto order_or = plan.TopologicalOrder();
  ASSERT_TRUE(order_or.ok());
  const std::vector<int>& order = order_or.ValueOrDie();
  std::vector<size_t> level(plan.num_nodes(), 0);
  for (int id : order) {
    for (int in : plan.node(id).inputs) {
      level[id] = std::max(level[id], level[in] + 1);
    }
  }
  int fetch = -1, select = -1;
  for (int id : order) {
    const PlanNode& node = plan.node(id);
    if (fetch < 0 && node.kind == OpKind::kFetchJoin) {
      fetch = id;
    } else if (fetch >= 0 && node.kind == OpKind::kSelect &&
               level[id] < level[fetch]) {
      select = id;
      break;
    }
  }
  ASSERT_GE(fetch, 0);
  ASSERT_GE(select, 0);
  plan.node(fetch).has_slice = true;
  plan.node(fetch).slice = RowRange{0, 0};
  plan.node(fetch).align = AlignPolicy::kStrict;
  plan.node(select).pred = Predicate::Like("x");  // LIKE on non-string

  Evaluator serial;
  EvalResult er;
  const Status inline_st = serial.Execute(plan, &er);
  // APQ_FORCE_MORSELS gives even a default evaluator a fleet, and then it
  // runs the levels too.
  if (serial.morsel_scheduler() == nullptr) {
    EXPECT_EQ(inline_st.code(), StatusCode::kMisaligned);
  }
  for (int workers : {1, 4}) {
    Evaluator threaded(ExecOptions(), Fleet(workers));
    for (int rep = 0; rep < 5; ++rep) {
      EXPECT_EQ(threaded.Execute(plan, &er).code(),
                StatusCode::kInvalidArgument)
          << workers << " rep " << rep;
    }
  }
}

TEST_F(ParallelExecTest, OnlyPlansWithAnExchangeUnionRunNodesOnTheFleet) {
  // The level rule: a serial plan runs inline, so when each of its
  // operators fits one morsel the fleet runs no task at all; the same
  // query's dop-8 heuristic plan runs its clone levels as fleet tasks.
  auto q9 = Tpch::Query(*cat_, "Q9");
  ASSERT_TRUE(q9.ok());
  HeuristicParallelizer hp(HeuristicConfig{.dop = 8});
  auto parallel = hp.Parallelize(q9.ValueOrDie());
  ASSERT_TRUE(parallel.ok());

  ExecOptions o;
  o.morsel_rows = uint64_t{1} << 20;  // far above any operator's input
  Evaluator eval(o, Fleet(4));
  const std::shared_ptr<MorselScheduler>& fleet = eval.morsel_scheduler();
  EvalResult er;
  uint64_t before = fleet->total_tasks();
  ASSERT_TRUE(eval.Execute(q9.ValueOrDie(), &er).ok());
  // APQ_FORCE_MORSELS with a row count overrides the morsel size, and then
  // the serial plan's operators split into morsel tasks.
  if (eval.EffectiveMorselRows() == o.morsel_rows) {
    EXPECT_EQ(fleet->total_tasks(), before);
  }
  before = fleet->total_tasks();
  ASSERT_TRUE(eval.Execute(parallel.ValueOrDie(), &er).ok());
  EXPECT_GT(fleet->total_tasks(), before);
}

TEST_F(ParallelExecTest, SharedHashCacheBuildsOnce) {
  auto q9 = Tpch::Query(*cat_, "Q9");
  ASSERT_TRUE(q9.ok());
  HeuristicParallelizer hp(HeuristicConfig{.dop = 8});
  auto plan = hp.Parallelize(q9.ValueOrDie());
  ASSERT_TRUE(plan.ok());
  Evaluator threaded(ExecOptions(), Fleet(4));
  EvalResult er1, er2;
  ASSERT_TRUE(threaded.Execute(plan.ValueOrDie(), &er1).ok());
  ASSERT_TRUE(threaded.Execute(plan.ValueOrDie(), &er2).ok());
  uint64_t builds1 = 0, builds2 = 0;
  for (const auto& m : er1.metrics) builds1 += m.hash_build_rows;
  for (const auto& m : er2.metrics) builds2 += m.hash_build_rows;
  EXPECT_GT(builds1, 0u);
  EXPECT_EQ(builds2, 0u);  // second run: all inners cached
}

// ---- morsel-driven intra-operator execution --------------------------------

TEST_F(ParallelExecTest, MorselExecutionIsDeterministicAcrossWorkerCounts) {
  // An *unmutated* serial plan: without morsels it runs on one core; with
  // them, its dense select / fetch-join split across the scheduler. Results
  // must be bit-identical to whole-column execution at every worker count.
  for (const auto& name : Tpch::QueryNames()) {
    auto plan = Tpch::Query(*cat_, name);
    ASSERT_TRUE(plan.ok()) << name;
    Evaluator whole;  // kernels, whole-column
    EvalResult base;
    ASSERT_TRUE(whole.Execute(plan.ValueOrDie(), &base).ok()) << name;
    for (int workers : {1, 2, 4, 8}) {
      ExecOptions o;
      o.morsel_rows = 512;  // lineitem_rows = 6000: every dense scan splits
      Evaluator morsel(o, Fleet(workers));
      EvalResult got;
      ASSERT_TRUE(morsel.Execute(plan.ValueOrDie(), &got).ok())
          << name << " workers=" << workers;
      EXPECT_EQ(DiffIntermediates(base.result, got.result), "")
          << name << " workers=" << workers;
      ASSERT_EQ(base.metrics.size(), got.metrics.size());
      for (size_t i = 0; i < base.metrics.size(); ++i) {
        EXPECT_EQ(base.metrics[i].tuples_out, got.metrics[i].tuples_out)
            << name << " workers=" << workers << " op " << i;
      }
    }
  }
}

TEST_F(ParallelExecTest, MorselsComposeWithCloneLevels) {
  // Both parallelism axes on one fleet: exchange clones as level tasks, each
  // clone's scan split into morsels that the same fleet runs.
  auto q6 = Tpch::Q6(*cat_);
  ASSERT_TRUE(q6.ok());
  HeuristicParallelizer hp(HeuristicConfig{.dop = 4});
  auto plan = hp.Parallelize(q6.ValueOrDie());
  ASSERT_TRUE(plan.ok());

  Evaluator serial;
  EvalResult base;
  ASSERT_TRUE(serial.Execute(plan.ValueOrDie(), &base).ok());

  ExecOptions o;
  o.morsel_rows = 256;
  Evaluator both(o, Fleet(4));
  for (int rep = 0; rep < 3; ++rep) {
    EvalResult got;
    ASSERT_TRUE(both.Execute(plan.ValueOrDie(), &got).ok()) << rep;
    EXPECT_EQ(BitDiff(base.result, got.result), "") << rep;
  }
}

TEST_F(ParallelExecTest, ConcurrentQueriesMultiplexOneScheduler) {
  // Two evaluators, two plans, one injected scheduler: the heavy-traffic
  // configuration. Every query's result must stay exact.
  auto sched = std::make_shared<MorselScheduler>(4);
  auto q6 = Tpch::Q6(*cat_);
  auto q14 = Tpch::Query(*cat_, "Q14");
  ASSERT_TRUE(q6.ok() && q14.ok());

  Evaluator whole;
  EvalResult base6, base14;
  ASSERT_TRUE(whole.Execute(q6.ValueOrDie(), &base6).ok());
  ASSERT_TRUE(whole.Execute(q14.ValueOrDie(), &base14).ok());

  ExecOptions o;
  o.morsel_rows = 512;
  Evaluator e6(o, sched), e14(o, sched);

  std::thread t6([&] {
    for (int rep = 0; rep < 4; ++rep) {
      EvalResult er;
      ASSERT_TRUE(e6.Execute(q6.ValueOrDie(), &er).ok());
      EXPECT_EQ(DiffIntermediates(base6.result, er.result), "");
    }
  });
  std::thread t14([&] {
    for (int rep = 0; rep < 4; ++rep) {
      EvalResult er;
      ASSERT_TRUE(e14.Execute(q14.ValueOrDie(), &er).ok());
      EXPECT_EQ(DiffIntermediates(base14.result, er.result), "");
    }
  });
  t6.join();
  t14.join();
  EXPECT_GT(sched->total_tasks(), 0u);
}

TEST_F(ParallelExecTest, ConcurrentFirstBuildsOfDifferentInnersDontSerialize) {
  // The per-column build latch: two joins over *different* inner columns,
  // parallelized so their clones share one dataflow level on the fleet — the
  // two first builds run concurrently, while clones of the same join race
  // for one build. Each inner is built exactly once and the cache stays warm
  // afterwards.
  auto fk1 = Column::MakeInt64("fk1", std::vector<int64_t>(4000, 1));
  auto fk2 = Column::MakeInt64("fk2", std::vector<int64_t>(4000, 2));
  std::vector<int64_t> pk1v(512), pk2v(1024);
  for (size_t i = 0; i < pk1v.size(); ++i) pk1v[i] = static_cast<int64_t>(i);
  for (size_t i = 0; i < pk2v.size(); ++i) pk2v[i] = static_cast<int64_t>(i);
  auto pk1 = Column::MakeInt64("pk1", std::move(pk1v));
  auto pk2 = Column::MakeInt64("pk2", std::move(pk2v));

  PlanBuilder b("two_inners");
  int j1 = b.JoinLeaf(fk1.get(), pk1.get());
  int j2 = b.JoinLeaf(fk2.get(), pk2.get());
  int c1 = b.AggScalar(AggFn::kCount, j1);
  int c2 = b.AggScalar(AggFn::kCount, j2);
  int sum = b.Map2(MapFn::kAdd, c1, c2);
  HeuristicParallelizer hp(HeuristicConfig{.dop = 4});
  auto plan = hp.Parallelize(b.Result(sum));
  ASSERT_TRUE(plan.ok());

  Evaluator threaded(ExecOptions(), Fleet(4));
  EvalResult er;
  ASSERT_TRUE(threaded.Execute(plan.ValueOrDie(), &er).ok());
  EXPECT_DOUBLE_EQ(er.result.scalar, 8000.0);
  uint64_t builds = 0;
  for (const auto& m : er.metrics) builds += m.hash_build_rows;
  EXPECT_EQ(builds, 512u + 1024u);  // both inners built, each exactly once
  EvalResult warm;
  ASSERT_TRUE(threaded.Execute(plan.ValueOrDie(), &warm).ok());
  uint64_t warm_builds = 0;
  for (const auto& m : warm.metrics) warm_builds += m.hash_build_rows;
  EXPECT_EQ(warm_builds, 0u);
}

TEST_F(ParallelExecTest, ParallelAggProbeCoversTpchAcrossWorkerCounts) {
  // The exec/agg tier on the full query suite: group-by ingest, grouped
  // aggregation, and hash-join probe run morsel-parallel at every worker
  // count, and every query's result must stay exact. Across the suite at a
  // 256-row morsel size, at least one group-by and one join must actually
  // have split (the whole point of the tier).
  bool saw_groupby = false, saw_join = false;
  for (const auto& name : Tpch::QueryNames()) {
    auto plan = Tpch::Query(*cat_, name);
    ASSERT_TRUE(plan.ok()) << name;
    Evaluator whole;  // kernels, whole-column
    EvalResult base;
    ASSERT_TRUE(whole.Execute(plan.ValueOrDie(), &base).ok()) << name;
    for (int workers : {1, 2, 4, 8}) {
      ExecOptions o;
      o.morsel_rows = 256;
      Evaluator par(o, Fleet(workers));
      EvalResult got;
      ASSERT_TRUE(par.Execute(plan.ValueOrDie(), &got).ok())
          << name << " workers=" << workers;
      EXPECT_EQ(DiffIntermediates(base.result, got.result), "")
          << name << " workers=" << workers;
      ASSERT_EQ(base.metrics.size(), got.metrics.size());
      for (size_t i = 0; i < base.metrics.size(); ++i) {
        EXPECT_EQ(base.metrics[i].tuples_out, got.metrics[i].tuples_out)
            << name << " workers=" << workers << " op " << i;
        if (got.metrics[i].morsels.empty()) continue;
        if (got.metrics[i].kind == OpKind::kGroupBy) saw_groupby = true;
        if (got.metrics[i].kind == OpKind::kJoin) saw_join = true;
      }
    }
  }
  EXPECT_TRUE(saw_groupby) << "no TPC-H group-by ingest ran morsel-parallel";
  EXPECT_TRUE(saw_join) << "no TPC-H join probe ran morsel-parallel";
}

TEST_F(ParallelExecTest, ParallelAggComposesWithCloneLevels) {
  // Exchange clones as level tasks while each clone's probe/ingest splits
  // into morsels on the same fleet — Q9 (join + group-by heavy) and Q14
  // (join heavy) under both axes at once.
  for (const char* name : {"Q9", "Q14"}) {
    auto q = Tpch::Query(*cat_, name);
    ASSERT_TRUE(q.ok()) << name;
    HeuristicParallelizer hp(HeuristicConfig{.dop = 4});
    auto plan = hp.Parallelize(q.ValueOrDie());
    ASSERT_TRUE(plan.ok()) << name;

    Evaluator serial;
    EvalResult base;
    ASSERT_TRUE(serial.Execute(plan.ValueOrDie(), &base).ok()) << name;

    ExecOptions o;
    o.morsel_rows = 256;
    Evaluator both(o, Fleet(4));
    for (int rep = 0; rep < 3; ++rep) {
      EvalResult got;
      ASSERT_TRUE(both.Execute(plan.ValueOrDie(), &got).ok())
          << name << " rep " << rep;
      EXPECT_EQ(BitDiff(base.result, got.result), "")
          << name << " rep " << rep;
    }
  }
}

TEST_F(ParallelExecTest, ParallelSortCoversOrderedTpchQueries) {
  // The exec/sort tier on the ordered queries (Q4 count-ordered, Q6/Q9/Q22
  // revenue-per-nation ordered). Their sorts order small grouped-aggregate
  // vectors (priorities, nations), so a tiny morsel size is what makes them
  // split; every query's result must stay exact at every worker count, and
  // at least one sort must actually have morselized.
  bool saw_sort = false;
  for (const char* name : {"Q4", "Q6", "Q9", "Q22"}) {
    auto plan = Tpch::Query(*cat_, name);
    ASSERT_TRUE(plan.ok()) << name;
    Evaluator whole;  // kernels, whole-column
    EvalResult base;
    ASSERT_TRUE(whole.Execute(plan.ValueOrDie(), &base).ok()) << name;
    for (int workers : {1, 2, 4, 8}) {
      ExecOptions o;
      o.morsel_rows = 4;  // splits even the 5-priority / 25-nation sorts
      Evaluator par(o, Fleet(workers));
      EvalResult got;
      ASSERT_TRUE(par.Execute(plan.ValueOrDie(), &got).ok())
          << name << " workers=" << workers;
      EXPECT_EQ(DiffIntermediates(base.result, got.result), "")
          << name << " workers=" << workers;
      ASSERT_EQ(base.metrics.size(), got.metrics.size());
      for (size_t i = 0; i < base.metrics.size(); ++i) {
        EXPECT_EQ(base.metrics[i].tuples_out, got.metrics[i].tuples_out)
            << name << " workers=" << workers << " op " << i;
        if ((got.metrics[i].kind == OpKind::kSort ||
             got.metrics[i].kind == OpKind::kTopN) &&
            !got.metrics[i].morsels.empty()) {
          saw_sort = true;
        }
      }
    }
  }
  // APQ_FORCE_MORSELS overrides the 4-row morsel size; the tiny grouped
  // sorts only split when the override is absent (or just as small).
  ExecOptions probe_o;
  probe_o.morsel_rows = 4;
  if (Evaluator(probe_o).EffectiveMorselRows() <= 8) {
    EXPECT_TRUE(saw_sort) << "no TPC-H sort ran morsel-parallel";
  }
}

TEST_F(ParallelExecTest, WallClockIsReported) {
  auto q6 = Tpch::Q6(*cat_);
  ASSERT_TRUE(q6.ok());
  Evaluator eval;
  EvalResult er;
  ASSERT_TRUE(eval.Execute(q6.ValueOrDie(), &er).ok());
  EXPECT_GT(er.wall_ns, 0.0);
}

}  // namespace
}  // namespace apq

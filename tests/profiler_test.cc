// Tests for profiling: sim-task construction, run profiles, the
// most-expensive-operator feedback, utilization, and the tomograph.
#include <gtest/gtest.h>

#include "exec/compare.h"
#include "profile/profiler.h"
#include "plan/builder.h"

namespace apq {
namespace {

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    col_ = Column::MakeInt64("c", std::vector<int64_t>(10'000, 5));
    fcol_ = Column::MakeFloat64("f", std::vector<double>(10'000, 1.5));
    PlanBuilder b("p");
    int sel = b.Select(col_.get(), Predicate::EqI64(5));
    int fetch = b.FetchJoin(fcol_.get(), sel);
    int sum = b.AggScalar(AggFn::kSum, fetch);
    plan_ = b.Result(sum);
    APQ_CHECK_OK(eval_.Execute(plan_, &er_));
  }

  ColumnPtr col_, fcol_;
  QueryPlan plan_;
  Evaluator eval_;
  EvalResult er_;
  CostModel cm_;
};

TEST_F(ProfilerTest, BuildSimTasksWiresDependencies) {
  auto tasks = BuildSimTasks(plan_, er_.metrics, cm_);
  ASSERT_EQ(tasks.size(), er_.metrics.size());
  // Tasks follow metric order (topological); each dep index points at the
  // producing task.
  for (size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(tasks[i].node_id, er_.metrics[i].node_id);
    for (int d : tasks[i].deps) {
      ASSERT_GE(d, 0);
      ASSERT_LT(d, static_cast<int>(i) + 1);
    }
    if (er_.metrics[i].kind != OpKind::kResult) {
      EXPECT_GT(tasks[i].work_ns, 0);
    }
    EXPECT_GE(tasks[i].mem_intensity, 0);
    EXPECT_LE(tasks[i].mem_intensity, 1);
  }
  // The linear chain select -> fetch -> sum -> result has 1 dep each after
  // the leaf.
  EXPECT_TRUE(tasks[0].deps.empty());
  EXPECT_EQ(tasks[1].deps.size(), 1u);
}

TEST_F(ProfilerTest, InstanceAndArrivalPropagate) {
  auto tasks = BuildSimTasks(plan_, er_.metrics, cm_, /*instance=*/3,
                             /*arrival_ns=*/500.0);
  for (const auto& t : tasks) {
    EXPECT_EQ(t.instance, 3);
    EXPECT_DOUBLE_EQ(t.arrival_ns, 500.0);
  }
}

TEST_F(ProfilerTest, RunProfileFindsMostExpensive) {
  auto tasks = BuildSimTasks(plan_, er_.metrics, cm_);
  Simulator sim(SimConfig::Cores(4, 4));
  auto outcome = sim.Run(tasks);
  RunProfile rp = MakeRunProfile(plan_, er_.metrics, cm_, outcome.timings,
                                 outcome.makespan_ns, outcome.utilization);
  ASSERT_EQ(rp.ops.size(), er_.metrics.size());
  int hot = rp.MostExpensiveIndex();
  ASSERT_GE(hot, 0);
  EXPECT_NE(rp.ops[hot].kind, OpKind::kResult);
  for (const auto& op : rp.ops) {
    if (op.kind == OpKind::kResult) continue;
    EXPECT_LE(op.duration_ns(), rp.ops[hot].duration_ns() + 1e-9);
  }
  EXPECT_EQ(rp.MostExpensiveNode(), rp.ops[hot].node_id);
  EXPECT_GT(rp.TotalBusyNs(), 0);
}

TEST_F(ProfilerTest, EmptyProfileHasNoMostExpensive) {
  RunProfile rp;
  EXPECT_EQ(rp.MostExpensiveIndex(), -1);
  EXPECT_EQ(rp.MostExpensiveNode(), -1);
}

TEST_F(ProfilerTest, TomographRendersAllBusyCores) {
  auto tasks = BuildSimTasks(plan_, er_.metrics, cm_);
  Simulator sim(SimConfig::Cores(4, 4));
  auto outcome = sim.Run(tasks);
  RunProfile rp = MakeRunProfile(plan_, er_.metrics, cm_, outcome.timings,
                                 outcome.makespan_ns, outcome.utilization);
  std::string tomo = RenderTomograph(rp, 40);
  EXPECT_NE(tomo.find("core 0"), std::string::npos);
  EXPECT_NE(tomo.find('S'), std::string::npos);  // select painted
  EXPECT_NE(tomo.find('F'), std::string::npos);  // fetchjoin painted
  EXPECT_NE(tomo.find("utilization"), std::string::npos);
}

TEST_F(ProfilerTest, OpReportListsOperatorsWithSkewColumn) {
  auto tasks = BuildSimTasks(plan_, er_.metrics, cm_);
  Simulator sim(SimConfig::Cores(4, 4));
  auto outcome = sim.Run(tasks);
  RunProfile rp = MakeRunProfile(plan_, er_.metrics, cm_, outcome.timings,
                                 outcome.makespan_ns, outcome.utilization);
  std::string report = RenderOpReport(rp);
  EXPECT_NE(report.find("skew"), std::string::npos);
  EXPECT_NE(report.find("morsels"), std::string::npos);
  EXPECT_NE(report.find("select"), std::string::npos);
  EXPECT_NE(report.find("fetchjoin"), std::string::npos);
  EXPECT_NE(report.find("max morsel skew"), std::string::npos);
}

TEST_F(ProfilerTest, OpReportSurfacesMorselSkewForMorselizedRuns) {
  // A morselized execution must show a per-operator morsel count and a
  // numeric skew (>= 1) in the printed report — the satellite requirement:
  // skew visible without reading AdaptiveRun programmatically.
  ExecOptions o;
  o.morsel_rows = 512;
  Evaluator eval(o, std::make_shared<MorselScheduler>(2));
  EvalResult er;
  APQ_CHECK_OK(eval.Execute(plan_, &er));
  auto tasks = BuildSimTasks(plan_, er.metrics, cm_);
  Simulator sim(SimConfig::Cores(4, 4));
  auto outcome = sim.Run(tasks);
  RunProfile rp = MakeRunProfile(plan_, er.metrics, cm_, outcome.timings,
                                 outcome.makespan_ns, outcome.utilization);
  ASSERT_GT(rp.MaxMorselSkew(), 0.0);  // 10'000 rows / 512 per morsel: split
  std::string report = RenderOpReport(rp);
  // At least one operator row reports its morsel count (> 0); whole-column
  // rows show "-" in the skew column.
  bool saw_morselized = false;
  for (const auto& op : rp.ops) {
    if (op.num_morsels > 0) {
      saw_morselized = true;
      EXPECT_GE(op.morsel_skew, 1.0);
    }
  }
  EXPECT_TRUE(saw_morselized);
  EXPECT_EQ(report.find("max morsel skew 0.00"), std::string::npos);
}

TEST_F(ProfilerTest, OpReportCoversMorselizedSorts) {
  // The sort tier's run/merge tasks must surface exactly like scan/agg
  // morsels: a morsel count and a skew >= 1 on the sort row of the report.
  PlanBuilder b("sorted");
  int srt = b.SortLeaf(fcol_.get());
  QueryPlan plan = b.Result(srt);
  ExecOptions o;
  o.morsel_rows = 512;
  Evaluator eval(o, std::make_shared<MorselScheduler>(2));
  EvalResult er;
  APQ_CHECK_OK(eval.Execute(plan, &er));
  auto tasks = BuildSimTasks(plan, er.metrics, cm_);
  Simulator sim(SimConfig::Cores(4, 4));
  auto outcome = sim.Run(tasks);
  RunProfile rp = MakeRunProfile(plan, er.metrics, cm_, outcome.timings,
                                 outcome.makespan_ns, outcome.utilization);
  bool saw_sort = false;
  for (const auto& op : rp.ops) {
    if (op.kind != OpKind::kSort) continue;
    saw_sort = true;
    EXPECT_GT(op.num_morsels, 0u);  // 10'000 rows / 512 per morsel: split
    EXPECT_GE(op.morsel_skew, 1.0);
  }
  EXPECT_TRUE(saw_sort);
  std::string report = RenderOpReport(rp);
  EXPECT_NE(report.find("sort"), std::string::npos);
}

TEST_F(ProfilerTest, TupleSkewIsDeterministicAndDomainGated) {
  // morsel_tuple_skew = max/min per-row weight density over the covered
  // domains: 3.0 when two of ten equal-size morsels produce full output,
  // independent of wall times; absent (0) without domain info.
  OpProfile op;
  for (int i = 0; i < 10; ++i) {
    MorselMetrics ms;
    ms.tuples_in = 1000;
    ms.tuples_out = (i == 4 || i == 5) ? 1000 : 0;
    ms.wall_ns = 100 + 37 * i;  // arbitrary: must not affect the signal
    ms.domain_begin = static_cast<uint64_t>(i) * 1000;
    ms.domain_end = ms.domain_begin + 1000;
    op.morsels.push_back(ms);
  }
  op.ComputeSkewFromMorsels();
  EXPECT_EQ(op.num_morsels, 10u);
  EXPECT_DOUBLE_EQ(op.morsel_tuple_skew, 3.0);

  // Unknown domains withhold the signal entirely.
  for (auto& ms : op.morsels) ms.domain_begin = ms.domain_end = 0;
  op.ComputeSkewFromMorsels();
  EXPECT_EQ(op.morsel_tuple_skew, 0.0);
  EXPECT_GT(op.morsel_skew, 0.0);  // wall skew still reported

  // Overlapping (non-monotone) domains are rejected too.
  for (size_t i = 0; i < op.morsels.size(); ++i) {
    op.morsels[i].domain_begin = 0;
    op.morsels[i].domain_end = 1000;
  }
  op.ComputeSkewFromMorsels();
  EXPECT_EQ(op.morsel_tuple_skew, 0.0);
}

TEST_F(ProfilerTest, OpReportShowsTupleSkewColumn) {
  ExecOptions o;
  o.morsel_rows = 512;
  Evaluator eval(o, std::make_shared<MorselScheduler>(2));
  EvalResult er;
  APQ_CHECK_OK(eval.Execute(plan_, &er));
  auto tasks = BuildSimTasks(plan_, er.metrics, cm_);
  Simulator sim(SimConfig::Cores(4, 4));
  auto outcome = sim.Run(tasks);
  RunProfile rp = MakeRunProfile(plan_, er.metrics, cm_, outcome.timings,
                                 outcome.makespan_ns, outcome.utilization);
  // The dense select's morsels carry domains, so the deterministic signal
  // exists and is >= 1 at run level.
  EXPECT_GE(rp.MaxMorselTupleSkew(), 1.0);
  std::string report = RenderOpReport(rp);
  EXPECT_NE(report.find("tskew"), std::string::npos);
  EXPECT_NE(report.find("tuple skew"), std::string::npos);
}

TEST_F(ProfilerTest, CostModelMonotoneInWork) {
  // More tuples -> more work, for each operator kind we use.
  OpMetrics small, big;
  small.kind = big.kind = OpKind::kSelect;
  small.tuples_in = 1'000;
  big.tuples_in = 100'000;
  EXPECT_LT(cm_.Work(small), cm_.Work(big));

  small.kind = big.kind = OpKind::kExchangeUnion;
  small.bytes_in = 1'000;
  big.bytes_in = 1'000'000;
  EXPECT_LT(cm_.Work(small), cm_.Work(big));
}

TEST_F(ProfilerTest, CostModelCacheHierarchy) {
  CostParams p;
  // Random access cost rises monotonically with working-set size.
  EXPECT_LE(p.RandomAccessNs(1024), p.RandomAccessNs(p.l2_bytes * 2));
  EXPECT_LE(p.RandomAccessNs(p.l2_bytes * 2), p.RandomAccessNs(p.l3_bytes * 2));
  EXPECT_LE(p.RandomAccessNs(p.l3_bytes * 2), p.RandomAccessNs(p.l3_bytes * 100));
  EXPECT_LE(p.RandomAccessNs(p.l3_bytes * 100), p.rand_mem_ns + 1e-9);
  // The hardware-scale variant has the Table 1 cache sizes.
  CostParams hw = CostParams::HardwareScale();
  EXPECT_DOUBLE_EQ(hw.l3_bytes, 20.0 * 1024 * 1024);
}

TEST_F(ProfilerTest, MemIntensityDependsOnWorkingSet) {
  OpMetrics m;
  m.kind = OpKind::kFetchJoin;
  m.random_working_set = 1024;  // cache resident
  double small_ws = cm_.MemIntensity(m);
  m.random_working_set = 1 << 30;  // memory resident
  double big_ws = cm_.MemIntensity(m);
  EXPECT_LT(small_ws, big_ws);
}

}  // namespace
}  // namespace apq

// Integration tests: the complete adaptive-parallelization loop over the
// TPC-H and TPC-DS workloads, with every run's result checked against the
// serial plan, plus engine-level HP/AP/VW comparisons.
#include <gtest/gtest.h>

#include <cstdlib>

#include "engine/engine.h"
#include "exec/compare.h"
#include "sched/morsel_scheduler.h"
#include "vwsim/vectorwise_sim.h"
#include "workload/skew.h"
#include "workload/tpcds.h"
#include "workload/tpch.h"

namespace apq {
namespace {

EngineConfig SmallEngine() {
  SimConfig sim = SimConfig::Cores(8, 4);
  EngineConfig cfg = EngineConfig::WithSim(sim);
  cfg.verify_results = true;
  cfg.mutator.min_partition_rows = 64;
  return cfg;
}

class AdaptiveTpchTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    TpchConfig cfg;
    cfg.lineitem_rows = 30'000;
    cat_ = Tpch::Generate(cfg);
  }
  std::shared_ptr<Catalog> cat_;
};

TEST_P(AdaptiveTpchTest, ConvergesAndPreservesResults) {
  Engine engine(SmallEngine());
  auto serial = Tpch::Query(*cat_, GetParam());
  ASSERT_TRUE(serial.ok());
  auto out = engine.RunAdaptive(serial.ValueOrDie());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const AdaptiveOutcome& o = out.ValueOrDie();
  // Convergence within the paper's bounds (cores=8 -> <= 8+1+8*8 + slack).
  EXPECT_LE(o.total_runs, 8 + 1 + 8 * 8 + 16);
  EXPECT_GE(o.total_runs, 2);
  // The converged plan must not be slower than serial (GME <= serial).
  EXPECT_LE(o.gme_time_ns, o.serial_time_ns * 1.05);
  // Runs recorded in order.
  ASSERT_EQ(static_cast<int>(o.runs.size()), o.total_runs);
  EXPECT_EQ(o.runs[0].run, 0);
  // GME plan is a valid plan.
  EXPECT_TRUE(o.gme_plan.Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(AllQueries, AdaptiveTpchTest,
                         ::testing::Values("Q4", "Q6", "Q8", "Q9", "Q14",
                                           "Q19", "Q22"),
                         [](const auto& info) { return info.param; });

class AdaptiveTpcdsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AdaptiveTpcdsTest, ConvergesAndPreservesResults) {
  TpcdsConfig cfg;
  cfg.store_sales_rows = 30'000;
  auto cat = Tpcds::Generate(cfg);
  Engine engine(SmallEngine());
  auto serial = Tpcds::Query(*cat, GetParam());
  ASSERT_TRUE(serial.ok());
  auto out = engine.RunAdaptive(serial.ValueOrDie());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_LE(out.ValueOrDie().gme_time_ns,
            out.ValueOrDie().serial_time_ns * 1.05);
}

INSTANTIATE_TEST_SUITE_P(AllQueries, AdaptiveTpcdsTest,
                         ::testing::Values("DS1", "DS2", "DS3", "DS4", "DS5"),
                         [](const auto& info) { return info.param; });

TEST(AdaptiveSpeedupTest, SelectPlanApproachesHeuristicPerformance) {
  TpchConfig cfg;
  cfg.lineitem_rows = 100'000;
  auto cat = Tpch::Generate(cfg);
  Engine engine(EngineConfig::WithSim(SimConfig::TwoSocket32()));
  auto serial = Tpch::Q6(*cat);
  ASSERT_TRUE(serial.ok());
  auto ap = engine.RunAdaptive(serial.ValueOrDie());
  ASSERT_TRUE(ap.ok());
  auto hp = engine.RunHeuristic(serial.ValueOrDie());
  ASSERT_TRUE(hp.ok());
  double ap_speedup = ap.ValueOrDie().Speedup();
  EXPECT_GT(ap_speedup, 2.0);  // parallelism clearly helps
  // AP within a small factor of HP in isolated execution (paper §4.2.1:
  // "similar performance").
  EXPECT_LT(ap.ValueOrDie().gme_time_ns, hp.ValueOrDie().time_ns * 3.0);
}

TEST(AdaptiveUtilizationTest, ApUsesFewerPartitionsAndLowerUtilization) {
  // Table 5's claim: the adaptive plan uses far fewer operator clones and
  // lower multi-core utilization than the heuristic plan.
  TpchConfig cfg;
  cfg.lineitem_rows = 60'000;
  auto cat = Tpch::Generate(cfg);
  Engine engine(EngineConfig::WithSim(SimConfig::TwoSocket32()));
  auto serial = Tpch::Q14(*cat);
  ASSERT_TRUE(serial.ok());
  auto ap = engine.RunAdaptive(serial.ValueOrDie());
  ASSERT_TRUE(ap.ok());
  auto hp = engine.RunHeuristic(serial.ValueOrDie());
  ASSERT_TRUE(hp.ok());
  PlanStats ap_stats = ap.ValueOrDie().gme_plan.Stats();
  PlanStats hp_stats = hp.ValueOrDie().stats;
  EXPECT_LT(ap_stats.num_selects, hp_stats.num_selects);
  EXPECT_LT(ap_stats.num_joins, hp_stats.num_joins);
}

TEST(ConcurrentWorkloadTest, BackgroundLoadSlowsQueriesDown) {
  TpchConfig cfg;
  cfg.lineitem_rows = 40'000;
  auto cat = Tpch::Generate(cfg);
  Engine engine(EngineConfig::WithSim(SimConfig::TwoSocket32()));
  auto q6 = Tpch::Q6(*cat);
  ASSERT_TRUE(q6.ok());
  auto hp_plan = engine.HeuristicPlan(q6.ValueOrDie());
  ASSERT_TRUE(hp_plan.ok());
  std::vector<const QueryPlan*> mix = {&hp_plan.ValueOrDie()};
  auto bg = engine.BuildBackground(mix, 16);
  ASSERT_TRUE(bg.ok());
  auto isolated = engine.RunHeuristic(q6.ValueOrDie());
  auto loaded = engine.RunHeuristic(q6.ValueOrDie(), -1, bg.ValueOrDie());
  ASSERT_TRUE(isolated.ok());
  ASSERT_TRUE(loaded.ok());
  EXPECT_GT(loaded.ValueOrDie().time_ns, isolated.ValueOrDie().time_ns * 1.5);
}

TEST(ConcurrentWorkloadTest, AdaptivePlansAreContentionAware) {
  // Under background load the adaptive process converges to fewer partitions
  // than it does in isolation (resource-contention awareness, paper §1).
  TpchConfig cfg;
  cfg.lineitem_rows = 40'000;
  auto cat = Tpch::Generate(cfg);
  auto q6 = Tpch::Q6(*cat);
  ASSERT_TRUE(q6.ok());

  Engine engine(EngineConfig::WithSim(SimConfig::TwoSocket32()));
  auto ap_iso = engine.RunAdaptive(q6.ValueOrDie());
  ASSERT_TRUE(ap_iso.ok());

  Engine engine2(EngineConfig::WithSim(SimConfig::TwoSocket32()));
  auto hp_plan = engine2.HeuristicPlan(q6.ValueOrDie());
  ASSERT_TRUE(hp_plan.ok());
  std::vector<const QueryPlan*> mix = {&hp_plan.ValueOrDie()};
  auto bg = engine2.BuildBackground(mix, 24);
  ASSERT_TRUE(bg.ok());
  auto ap_conc = engine2.RunAdaptive(q6.ValueOrDie(), bg.ValueOrDie());
  ASSERT_TRUE(ap_conc.ok());

  int iso_nodes = ap_iso.ValueOrDie().gme_plan.Stats().num_nodes;
  int conc_nodes = ap_conc.ValueOrDie().gme_plan.Stats().num_nodes;
  EXPECT_LE(conc_nodes, iso_nodes + 4);
}

TEST(VectorwiseSimTest, AdmissionControlDegradesLateClients) {
  TpchConfig cfg;
  cfg.lineitem_rows = 40'000;
  auto cat = Tpch::Generate(cfg);
  Engine engine(EngineConfig::WithSim(SimConfig::TwoSocket32()));
  auto q6 = Tpch::Q6(*cat);
  ASSERT_TRUE(q6.ok());
  VectorwiseSim vw;
  int dop_first = vw.ChooseDop(engine, q6.ValueOrDie(), 32, true);
  int dop_late = vw.ChooseDop(engine, q6.ValueOrDie(), 32, false);
  EXPECT_GT(dop_first, dop_late);
  EXPECT_EQ(dop_late, 1);  // 32 cores / 32 clients
}

TEST(VectorwiseSimTest, RunsAndPreservesResult) {
  TpchConfig cfg;
  cfg.lineitem_rows = 30'000;
  auto cat = Tpch::Generate(cfg);
  Engine engine(EngineConfig::WithSim(SimConfig::TwoSocket32()));
  auto q6 = Tpch::Q6(*cat);
  ASSERT_TRUE(q6.ok());
  auto serial = engine.RunSerial(q6.ValueOrDie());
  ASSERT_TRUE(serial.ok());
  VectorwiseSim vw;
  auto res = vw.Run(engine, q6.ValueOrDie(), 1, true);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(IntermediatesEqual(serial.ValueOrDie().result,
                                 res.ValueOrDie().result, 1e-6))
      << DiffIntermediates(serial.ValueOrDie().result,
                           res.ValueOrDie().result, 1e-6);
}

/// True when APQ_FORCE_MORSELS overrides the morsel size with a value that
/// does not divide the skew workload's 40960-row cluster width — boundary
/// morsels would then straddle density edges and the exact-skew assertions
/// below stop being deterministic. Uses the evaluator's own validated
/// parse, so rejected values (non-numeric, absurd) never cause a skip.
bool ForcedMorselSizeMisaligned() {
  const uint64_t forced = Evaluator::ForcedEnvMorselRows();
  if (forced <= 1) return false;  // off, or configured size kept
  return 40960 % forced != 0;
}

TEST(SkewFeedbackTest, RepartitioningHalvesConvergedSkewWithIdenticalResults) {
  // The closed loop of paper Fig 2 + Fig 12: morsel profiles observe the
  // skewed select's value clusters, the mutator re-partitions on the
  // profiled density edges, and the converged plan's intra-operator skew
  // collapses — while the uniform-halving baseline (skew_threshold = inf)
  // keeps a mixed partition with 3x tuple-weight imbalance. The Fig 13
  // layout at pct 40 concentrates 100% of the ~40% selectivity in the
  // clustered half (>= 60% skew on Fig 12's axis); the hot region
  // [204800, 368640) = 4 of the 5 40960-row clusters does not end on a
  // uniform-halving boundary, so only value-balanced split points can
  // isolate it.
  if (ForcedMorselSizeMisaligned()) {
    GTEST_SKIP() << "APQ_FORCE_MORSELS size does not divide the cluster "
                    "width; exact skew values need aligned morsels";
  }
  SkewConfig cfg;
  cfg.rows = 409'600;  // cluster width 40960 = multiple of every 2^k <= 4096
  auto cat = GenerateSkewed(cfg);
  auto plan = SkewedSelectPlan(*cat, cfg, 40);
  ASSERT_TRUE(plan.ok());

  auto run = [&](double skew_threshold, int workers) {
    EngineConfig ecfg = EngineConfig::WithSim(SimConfig::Cores(4, 4));
    ecfg.morsel_rows = 2048;
    ecfg.morsel_scheduler = std::make_shared<MorselScheduler>(workers);
    ecfg.verify_results = true;  // every run checked against the serial plan
    ecfg.mutator.skew_threshold = skew_threshold;
    Engine engine(ecfg);
    auto out = engine.RunAdaptive(plan.ValueOrDie());
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.MoveValueOrDie();
  };

  AdaptiveOutcome uniform = run(/*skew_threshold=*/1e30, /*workers=*/2);
  AdaptiveOutcome aware = run(MutatorConfig().skew_threshold, /*workers=*/2);

  // The skew feedback actually fired (and only when enabled).
  EXPECT_EQ(uniform.skew_mutations, 0);
  EXPECT_GE(aware.skew_mutations, 1);

  // Identical query results — re-partitioning only moves split points.
  EXPECT_TRUE(IntermediatesEqual(uniform.result, aware.result, 0.0))
      << DiffIntermediates(uniform.result, aware.result, 0.0);

  // Converged plans: the uniform baseline retains a >= 3x imbalanced
  // partition; the skew-aware plan's partitions are internally homogeneous.
  const double uniform_skew = uniform.gme_profile.MaxMorselTupleSkew();
  const double aware_skew = aware.gme_profile.MaxMorselTupleSkew();
  ASSERT_GT(aware_skew, 0.0);
  EXPECT_GE(uniform_skew, 2.5);
  EXPECT_LE(aware_skew, 1.25);
  EXPECT_GE(uniform_skew, 2.0 * aware_skew)
      << "uniform " << uniform_skew << " vs skew-aware " << aware_skew;

  // The skew-aware plan's select partitions sit exactly on the profiled
  // density edges (rows/2 = 204800 and the hot-region end 368640); uniform
  // halving could never produce 368640 (it is not on any dyadic grid of the
  // 409600-row range).
  std::vector<RowRange> slices =
      PartitionSlices(aware.gme_plan, OpKind::kSelect);
  ASSERT_GE(slices.size(), 2u);
  bool edge_lo = false, edge_hi = false;
  for (const RowRange& r : slices) {
    if (r.begin == 204800u) edge_lo = true;
    if (r.begin == 368640u) edge_hi = true;
  }
  EXPECT_TRUE(edge_lo && edge_hi) << "select slices missed the value edges";

  // The runtime response fired too: skewed operators got shrunken morsels.
  int hinted_runs = 0;
  for (const auto& r : aware.runs) hinted_runs += r.skew_hint_ops > 0 ? 1 : 0;
  EXPECT_GE(hinted_runs, 1);
  for (const auto& r : uniform.runs) EXPECT_EQ(r.skew_hint_ops, 0);

  // Bit-identical results across 1/2/4/8 morsel workers (workers only move
  // morsels between threads; fragments concatenate in morsel order).
  for (int workers : {1, 4, 8}) {
    AdaptiveOutcome o = run(MutatorConfig().skew_threshold, workers);
    EXPECT_TRUE(IntermediatesEqual(aware.result, o.result, 0.0))
        << "diverged at " << workers << " workers";
    EXPECT_GE(o.skew_mutations, 1);
  }
}

TEST(SkewAdaptationTest, DynamicPartitionsBeatStaticOnSkewedData) {
  // Fig 12's core claim: adaptive (dynamic) partitioning handles execution
  // skew better than static equi-range partitioning at the same DOP.
  SkewConfig cfg;
  cfg.rows = 200'000;
  auto cat = GenerateSkewed(cfg);
  SimConfig sim = SimConfig::Cores(8, 8);
  EngineConfig ecfg = EngineConfig::WithSim(sim);
  Engine engine(ecfg);
  auto plan = SkewedSelectPlan(*cat, cfg, 30);
  ASSERT_TRUE(plan.ok());
  auto hp = engine.RunHeuristic(plan.ValueOrDie(), 8);
  ASSERT_TRUE(hp.ok());
  auto ap = engine.RunAdaptive(plan.ValueOrDie());
  ASSERT_TRUE(ap.ok());
  // Adaptive should not be slower; typically it is faster under skew.
  EXPECT_LT(ap.ValueOrDie().gme_time_ns, hp.ValueOrDie().time_ns * 1.15);
}

}  // namespace
}  // namespace apq

// Engine facade tests: configuration plumbing, background workload
// construction, seed-salt determinism, and plan-builder error paths.
#include <gtest/gtest.h>

#include "engine/engine.h"
#include "plan/builder.h"
#include "workload/tpch.h"

namespace apq {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig cfg;
    cfg.lineitem_rows = 10'000;
    cat_ = Tpch::Generate(cfg);
  }
  std::shared_ptr<Catalog> cat_;
};

TEST_F(EngineTest, ConfigSyncsCoresToSimulator) {
  // The default heuristic DOP is the simulated machine's logical cores.
  Engine engine(EngineConfig::WithSim(SimConfig::Cores(12, 6)));
  auto q6 = Tpch::Q6(*cat_);
  ASSERT_TRUE(q6.ok());
  auto dflt = engine.HeuristicPlan(q6.ValueOrDie());
  auto dop12 = engine.HeuristicPlan(q6.ValueOrDie(), 12);
  auto dop8 = engine.HeuristicPlan(q6.ValueOrDie(), 8);
  ASSERT_TRUE(dflt.ok() && dop12.ok() && dop8.ok());
  EXPECT_EQ(dflt.ValueOrDie().ToString(), dop12.ValueOrDie().ToString());
  EXPECT_NE(dflt.ValueOrDie().ToString(), dop8.ValueOrDie().ToString());
}

TEST_F(EngineTest, RunPlanIsDeterministicPerSalt) {
  Engine engine(EngineConfig::WithSim(SimConfig::TwoSocket32()));
  auto q6 = Tpch::Q6(*cat_);
  ASSERT_TRUE(q6.ok());
  auto a = engine.RunSerial(q6.ValueOrDie(), 5);
  auto b = engine.RunSerial(q6.ValueOrDie(), 5);
  auto c = engine.RunSerial(q6.ValueOrDie(), 6);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_DOUBLE_EQ(a.ValueOrDie().time_ns, b.ValueOrDie().time_ns);
  EXPECT_NE(a.ValueOrDie().time_ns, c.ValueOrDie().time_ns);
}

TEST_F(EngineTest, BackgroundTasksHaveDistinctInstancesAndArrivals) {
  Engine engine(EngineConfig::WithSim(SimConfig::TwoSocket32()));
  auto q6 = Tpch::Q6(*cat_);
  ASSERT_TRUE(q6.ok());
  std::vector<const QueryPlan*> mix = {&q6.ValueOrDie()};
  auto bg = engine.BuildBackground(mix, 4, /*spacing_ns=*/1000.0);
  ASSERT_TRUE(bg.ok());
  const auto& tasks = bg.ValueOrDie();
  ASSERT_FALSE(tasks.empty());
  int max_inst = 0;
  for (const auto& t : tasks) {
    EXPECT_GE(t.instance, 1);  // instance 0 is the foreground query
    max_inst = std::max(max_inst, t.instance);
    EXPECT_DOUBLE_EQ(t.arrival_ns, (t.instance - 1) * 1000.0);
  }
  EXPECT_EQ(max_inst, 4);
  // Dependencies stay within each client's own task block.
  for (size_t i = 0; i < tasks.size(); ++i) {
    for (int d : tasks[i].deps) {
      EXPECT_EQ(tasks[d].instance, tasks[i].instance);
    }
  }
}

TEST_F(EngineTest, EmptyBackgroundIsEmpty) {
  Engine engine;
  auto bg = engine.BuildBackground({}, 8);
  ASSERT_TRUE(bg.ok());
  EXPECT_TRUE(bg.ValueOrDie().empty());
}

TEST_F(EngineTest, HeuristicPlanDoesNotMutateInput) {
  Engine engine(EngineConfig::WithSim(SimConfig::TwoSocket32()));
  auto q6 = Tpch::Q6(*cat_);
  ASSERT_TRUE(q6.ok());
  int before = q6.ValueOrDie().num_nodes();
  auto hp = engine.HeuristicPlan(q6.ValueOrDie(), 8);
  ASSERT_TRUE(hp.ok());
  EXPECT_EQ(q6.ValueOrDie().num_nodes(), before);
  EXPECT_GT(hp.ValueOrDie().num_nodes(), before);
}

TEST_F(EngineTest, UtilizationWithinUnitInterval) {
  Engine engine(EngineConfig::WithSim(SimConfig::TwoSocket32()));
  auto q14 = Tpch::Q14(*cat_);
  ASSERT_TRUE(q14.ok());
  auto hp = engine.RunHeuristic(q14.ValueOrDie());
  ASSERT_TRUE(hp.ok());
  EXPECT_GE(hp.ValueOrDie().utilization, 0.0);
  EXPECT_LE(hp.ValueOrDie().utilization, 1.0);
}

TEST_F(EngineTest, InvalidPlanIsRejected) {
  Engine engine;
  QueryPlan empty("empty");
  auto res = engine.RunSerial(empty);
  EXPECT_FALSE(res.ok());
}

TEST_F(EngineTest, AdaptiveRunsRecordMutationsInOrder) {
  EngineConfig cfg = EngineConfig::WithSim(SimConfig::Cores(8, 4));
  Engine engine(cfg);
  auto q6 = Tpch::Q6(*cat_);
  ASSERT_TRUE(q6.ok());
  auto ap = engine.RunAdaptive(q6.ValueOrDie());
  ASSERT_TRUE(ap.ok());
  const auto& runs = ap.ValueOrDie().runs;
  const auto& lineage = ap.ValueOrDie().lineage;
  ASSERT_EQ(lineage.size(), runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].run, static_cast<int>(i));
    EXPECT_GT(runs[i].time_ns, 0);
    // Every non-final run is followed by the operator it parallelized.
    if (i + 1 < runs.size()) {
      EXPECT_GE(lineage[i].victim, 0) << "run " << i;
      EXPECT_NE(lineage[i].action, "none") << "run " << i;
    }
  }
  // The plan monotonically grows (mutations only add operators).
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_GE(runs[i].plan_stats.num_nodes, runs[i - 1].plan_stats.num_nodes);
  }
}

TEST_F(EngineTest, SplitWaysReducesConvergenceRuns) {
  // The §4.3 extension: more partitions per invocation, fewer runs.
  auto q6 = Tpch::Q6(*cat_);
  ASSERT_TRUE(q6.ok());
  EngineConfig two = EngineConfig::WithSim(SimConfig::TwoSocket32());
  two.mutator.split_ways = 2;
  EngineConfig eight = EngineConfig::WithSim(SimConfig::TwoSocket32());
  eight.mutator.split_ways = 8;
  Engine e2(two), e8(eight);
  auto r2 = e2.RunAdaptive(q6.ValueOrDie());
  auto r8 = e8.RunAdaptive(q6.ValueOrDie());
  ASSERT_TRUE(r2.ok() && r8.ok());
  EXPECT_LE(r8.ValueOrDie().gme_run, r2.ValueOrDie().gme_run);
}

}  // namespace
}  // namespace apq

// Figure 11: the adaptive-parallelization convergence trace of a join
// operator plan — execution time per run, showing minima, plateaus, up-hill
// sections, and a noise peak, until the credit/debit balance converges.
//
// Paper: join micro-benchmark, ~35 runs, a visible OS-interference peak near
// run 30. Here: the same micro-benchmark shape with the simulator's noise and
// peak injection enabled.
#include "bench_util.h"
#include "plan/builder.h"
#include "util/rng.h"

using namespace apq;
using namespace apq::bench;

int main() {
  const uint64_t outer_rows = 400'000;
  const uint64_t inner_rows = 25'000;
  Banner("Figure 11: convergence-algorithm scenarios (join plan)",
         "Fig 11 (execution time vs run; minima, plateaus, noise peak)",
         "outer=" + std::to_string(outer_rows) +
             " inner=" + std::to_string(inner_rows) + " noise=4% peaks=1.2%");

  Rng rng(5);
  std::vector<int64_t> outer(outer_rows), inner(inner_rows);
  for (auto& v : outer) v = static_cast<int64_t>(rng.Uniform(inner_rows));
  for (uint64_t i = 0; i < inner_rows; ++i) inner[i] = static_cast<int64_t>(i);
  auto t_outer = std::make_shared<Table>("outer_t");
  APQ_CHECK_OK(t_outer->AddColumn(Column::MakeInt64("o_key", std::move(outer))));
  auto t_inner = std::make_shared<Table>("inner_t");
  APQ_CHECK_OK(t_inner->AddColumn(Column::MakeInt64("i_key", std::move(inner))));

  PlanBuilder b("join_micro");
  int jn = b.JoinLeaf(t_outer->GetColumn("o_key"), t_inner->GetColumn("i_key"));
  int cnt = b.AggScalar(AggFn::kCount, jn);
  QueryPlan serial = b.Result(cnt);

  SimConfig sim = SimConfig::TwoSocket32();
  sim.noise_sigma = 0.04;
  sim.peak_probability = 0.012;  // rare OS-interference peaks (paper §3.3.3)
  sim.peak_magnitude = 10.0;
  EngineConfig cfg = EngineConfig::WithSim(sim);
  Engine engine(cfg);

  auto ap = engine.RunAdaptive(serial);
  APQ_CHECK(ap.ok());
  const AdaptiveOutcome& o = ap.ValueOrDie();

  std::printf("\n# run  time_ms  mutation (execution-time series of Fig 11)\n");
  double maxt = 0;
  for (const auto& r : o.runs) maxt = std::max(maxt, r.time_ns);
  for (const auto& r : o.runs) {
    int bars = static_cast<int>(r.time_ns / maxt * 56);
    std::printf("%4d  %8.3f  %-7s |%s\n", r.run, r.time_ns / 1e6,
                o.lineage[r.run].action.c_str(),
                std::string(bars, '#').c_str());
  }
  std::printf(
      "\nserial %.3f ms -> GME %.3f ms at run %d (%.1fx); total %d runs\n",
      o.serial_time_ns / 1e6, o.gme_time_ns / 1e6, o.gme_run, o.Speedup(),
      o.total_runs);
  std::printf(
      "paper shape: steep initial descent, local minima and plateaus in the\n"
      "middle, an isolated noise peak that does not halt convergence.\n");
  return 0;
}

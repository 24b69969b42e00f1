// Figure 1: response-time variation of heuristically parallelized TPC-H
// queries under a heavy concurrent CPU-bound workload, for DOP 8 / 16 / 32.
//
// Paper: three TPC-H queries on SF-10, 32 hyper-threaded cores, 0% idleness;
// no DOP dominates across queries. Here: three complex queries from the
// paper's subset (stand-ins for Q9/Q13/Q17), a 32-client background load.
#include "bench_util.h"
#include "workload/tpch.h"

using namespace apq;
using namespace apq::bench;

int main() {
  TpchConfig cfg;
  cfg.lineitem_rows = 60'000;
  Banner("Figure 1: DOP sensitivity under concurrent workload",
         "Fig 1 (heuristic plans, DOP in {8,16,32}, 32 clients)",
         "lineitem=" + std::to_string(cfg.lineitem_rows) +
             " seed=" + std::to_string(cfg.seed) + " sim=2x16c/32t");
  auto cat = Tpch::Generate(cfg);
  EngineConfig ecfg = PaperEngine();
  ecfg.use_morsels = true;  // hardware truth: a fleet of one worker per
                           // hardware thread runs the clone levels
  Engine engine(ecfg);

  // Background: a mixed bag of heuristic plans invoked by 32 clients.
  std::vector<QueryPlan> bg_plans;
  for (const char* q : {"Q6", "Q14", "Q19"}) {
    auto serial = Tpch::Query(*cat, q);
    APQ_CHECK(serial.ok());
    auto hp = engine.HeuristicPlan(serial.ValueOrDie(), 32);
    APQ_CHECK(hp.ok());
    bg_plans.push_back(hp.MoveValueOrDie());
  }
  std::vector<const QueryPlan*> mix;
  for (const auto& p : bg_plans) mix.push_back(&p);
  // Steady load: client arrivals spaced so the machine stays busy for the
  // whole measurement (0% idleness) without a single thundering-herd bulge.
  auto bg = engine.BuildBackground(mix, 32, /*spacing_ns=*/0.4e6);
  APQ_CHECK(bg.ok());

  // Simulated times drive the paper shape; the "wall" column is hardware
  // truth: the evaluator's real wall-clock on this host, with clone levels
  // executed on one fleet worker per hardware thread (use_morsels above).
  TablePrinter table({"query", "dop 8 (ms)", "dop 16 (ms)", "dop 32 (ms)",
                      "best dop", "wall@32 (ms)"});
  for (const char* q : {"Q9", "Q8", "Q19"}) {
    auto serial = Tpch::Query(*cat, q);
    APQ_CHECK(serial.ok());
    std::vector<std::string> row = {q};
    double best = 1e300;
    int best_dop = 0;
    double wall32 = 0;
    for (int dop : {8, 16, 32}) {
      auto res = engine.RunHeuristic(serial.ValueOrDie(), dop,
                                     bg.ValueOrDie(), /*seed_salt=*/dop);
      APQ_CHECK(res.ok());
      double t = res.ValueOrDie().time_ns;
      row.push_back(Ms(t));
      if (dop == 32) wall32 = res.ValueOrDie().wall_ns;
      if (t < best) {
        best = t;
        best_dop = dop;
      }
    }
    row.push_back(std::to_string(best_dop));
    row.push_back(Ms(wall32));
    table.AddRow(row);
  }
  table.Print();
  std::printf(
      "\npaper shape: no single DOP wins for all queries under load; the\n"
      "best DOP varies per query, motivating feedback-driven adaptation.\n");
  return 0;
}

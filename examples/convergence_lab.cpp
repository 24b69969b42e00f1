// Convergence lab: watch the adaptive-parallelization feedback loop converge
// run by run, and inspect the converged plan and its tomograph.
//
//   $ ./example_convergence_lab [query] [lineitem_rows] [cores]
//   e.g. ./example_convergence_lab Q14 120000 32
#include <cstdio>
#include <cstdlib>
#include <string>

#include "engine/engine.h"
#include "profile/profiler.h"
#include "workload/tpch.h"

using namespace apq;

int main(int argc, char** argv) {
  std::string query = argc > 1 ? argv[1] : "Q6";
  uint64_t rows = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 60'000;
  int cores = argc > 3 ? std::atoi(argv[3]) : 32;

  TpchConfig cfg;
  cfg.lineitem_rows = rows;
  auto catalog = Tpch::Generate(cfg);

  SimConfig sim = SimConfig::Cores(cores, cores / 2);
  sim.noise_sigma = 0.03;
  Engine engine(EngineConfig::WithSim(sim));

  auto serial = Tpch::Query(*catalog, query);
  if (!serial.ok()) {
    std::fprintf(stderr, "unknown query '%s' (try Q4 Q6 Q8 Q9 Q14 Q19 Q22)\n",
                 query.c_str());
    return 1;
  }
  std::printf("serial plan:\n%s\n\n", serial.ValueOrDie().ToString().c_str());

  auto ap = engine.RunAdaptive(serial.ValueOrDie());
  APQ_CHECK(ap.ok());
  const AdaptiveOutcome& o = ap.ValueOrDie();

  std::printf("run-by-run convergence (%s, %lu rows, %d cores):\n",
              query.c_str(), static_cast<unsigned long>(rows), cores);
  double maxt = 0;
  for (const auto& r : o.runs) maxt = std::max(maxt, r.time_ns);
  for (const auto& r : o.runs) {
    int bars = static_cast<int>(r.time_ns / maxt * 48);
    std::printf("%4d %9.3f ms %-8s |%s\n", r.run, r.time_ns / 1e6,
                o.lineage[r.run].action.c_str(),
                std::string(bars, '#').c_str());
  }
  std::printf("\nGME %.3f ms at run %d (serial %.3f ms, %.1fx); %d runs\n",
              o.gme_time_ns / 1e6, o.gme_run, o.serial_time_ns / 1e6,
              o.Speedup(), o.total_runs);
  std::printf("converged plan: %s\n\n", o.gme_plan.Stats().ToString().c_str());
  std::printf("%s", RenderTomograph(o.gme_profile).c_str());
  return 0;
}

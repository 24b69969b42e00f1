// Parallel sort subsystem vs whole-column execution (google-benchmark, real
// wall-clock): 2M-row full sort and bounded top-N (limit 10 / 10K),
// sequential stable sort vs morsel-local runs + merge-path k-way merge
// across worker counts. Reports per-worker morsel throughput, steal rate,
// and the worst per-operator morsel skew of the last run, mirroring
// bench_morsels / bench_agg.
//
// The acceptance target (>= 2x sort throughput at 4 workers) is only
// demonstrable on hosts with >= 4 hardware threads; on smaller containers
// the >1-worker rows show scheduling overhead only.
//
// Run: build/bench_sort [--benchmark_filter=...]
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "exec/evaluator.h"
#include "plan/builder.h"
#include "sched/morsel_scheduler.h"
#include "util/rng.h"

namespace apq {
namespace {

constexpr uint64_t kRows = 1 << 21;  // 2M rows

struct Fixture {
  ColumnPtr keys;  // tied doubles: stability-relevant, merge-heavy
  Fixture() {
    Rng rng(42);
    std::vector<double> v(kRows);
    for (auto& x : v) {
      x = static_cast<double>(rng.UniformRange(0, 99999)) * 0.25;
    }
    keys = Column::MakeFloat64("keys", std::move(v));
  }
};

Fixture& F() {
  static Fixture f;
  return f;
}

QueryPlan SortPlan() {
  PlanBuilder b("sort");
  int s = b.SortLeaf(F().keys.get());
  return b.Result(s);
}

QueryPlan TopNPlan(uint64_t limit) {
  PlanBuilder b("topn");
  int t = b.TopNLeaf(F().keys.get(), limit, /*descending=*/true);
  return b.Result(t);
}

// Attaches per-worker throughput / steal counters from the scheduler's
// lifetime deltas plus the worst per-operator morsel skew of the last run.
void ReportSortCounters(benchmark::State& state, const MorselScheduler& sched,
                        const std::vector<MorselWorkerStats>& before,
                        uint64_t caller_before, double elapsed_s,
                        const EvalResult& last) {
  const auto after = sched.worker_stats();
  uint64_t tasks = 0, steals = 0;
  for (size_t w = 0; w < after.size(); ++w) {
    const uint64_t wt = after[w].tasks - before[w].tasks;
    tasks += wt;
    steals += after[w].steals - before[w].steals;
    state.counters["w" + std::to_string(w) + "_tasks/s"] =
        elapsed_s > 0 ? static_cast<double>(wt) / elapsed_s : 0;
  }
  const uint64_t ct = sched.caller_tasks() - caller_before;
  tasks += ct;
  state.counters["caller_tasks/s"] =
      elapsed_s > 0 ? static_cast<double>(ct) / elapsed_s : 0;
  state.counters["morsels/s"] =
      elapsed_s > 0 ? static_cast<double>(tasks) / elapsed_s : 0;
  state.counters["steal_pct"] =
      tasks > 0
          ? 100.0 * static_cast<double>(steals) / static_cast<double>(tasks)
          : 0;
  double skew = 0;
  for (const auto& m : last.metrics) {
    if (m.morsels.empty()) continue;
    double total = 0, peak = 0;
    for (const auto& ms : m.morsels) {
      total += ms.wall_ns;
      peak = std::max(peak, ms.wall_ns);
    }
    const double mean = total / static_cast<double>(m.morsels.size());
    skew = std::max(skew, mean > 0 ? peak / mean : 1.0);
  }
  state.counters["max_skew"] = skew;
}

void RunPlanBench(benchmark::State& state, const QueryPlan& plan,
                  bool parallel, int workers) {
  std::shared_ptr<MorselScheduler> sched =
      parallel ? std::make_shared<MorselScheduler>(workers) : nullptr;
  Evaluator eval(ExecOptions(), sched);
  std::vector<MorselWorkerStats> before;
  uint64_t caller_before = 0;
  if (parallel) {
    before = sched->worker_stats();
    caller_before = sched->caller_tasks();
  }
  EvalResult last;
  auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    EvalResult er;
    benchmark::DoNotOptimize(eval.Execute(plan, &er));
    last = std::move(er);
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  state.SetItemsProcessed(state.iterations() * kRows);
  if (parallel) {
    ReportSortCounters(state, *sched, before, caller_before, elapsed_s, last);
  }
}

void BM_SortWholeColumn(benchmark::State& state) {
  RunPlanBench(state, SortPlan(), /*parallel=*/false, 1);
}
BENCHMARK(BM_SortWholeColumn)->UseRealTime();

void BM_SortParallel(benchmark::State& state) {
  RunPlanBench(state, SortPlan(), /*parallel=*/true,
               static_cast<int>(state.range(0)));
}
// range(0) = morsel scheduler workers.
BENCHMARK(BM_SortParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_TopNWholeColumn(benchmark::State& state) {
  RunPlanBench(state, TopNPlan(static_cast<uint64_t>(state.range(0))),
               /*parallel=*/false, 1);
}
BENCHMARK(BM_TopNWholeColumn)->Arg(10)->Arg(10'000)->UseRealTime();

void BM_TopNParallel(benchmark::State& state) {
  RunPlanBench(state, TopNPlan(static_cast<uint64_t>(state.range(0))),
               /*parallel=*/true, static_cast<int>(state.range(1)));
}
// range(0) = limit, range(1) = morsel scheduler workers.
BENCHMARK(BM_TopNParallel)
    ->ArgsProduct({{10, 10'000}, {1, 2, 4, 8}})
    ->UseRealTime();

}  // namespace
}  // namespace apq

BENCHMARK_MAIN();

// Morsel-driven vs whole-column execution (google-benchmark, real
// wall-clock): dense select and fetch-join at 2M rows, whole-column kernels
// vs morsel execution across worker counts. Per-worker throughput is reported
// via counters (workerN_tasks/s plus a steal rate), so scheduler balance is
// visible even where wall-clock speedup isn't (single-core CI containers).
//
// Run: build/bench_morsels [--benchmark_filter=...]
#include <benchmark/benchmark.h>

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

struct Fixture {
  ColumnPtr ints, floats;
  Fixture() {
    Rng rng(42);
    const uint64_t n = 1 << 21;  // 2M rows
    std::vector<int64_t> iv(n);
    std::vector<double> fv(n);
    for (auto& v : iv) v = rng.UniformRange(0, 999);
    for (auto& v : fv) v = rng.NextDouble();
    ints = Column::MakeInt64("ints", std::move(iv));
    floats = Column::MakeFloat64("floats", std::move(fv));
  }
};

Fixture& F() {
  static Fixture f;
  return f;
}

QueryPlan SelectPlan() {
  PlanBuilder b("sel");
  int sel = b.Select(F().ints.get(), Predicate::RangeI64(0, 499));
  return b.Result(sel);
}

QueryPlan FetchJoinPlan() {
  PlanBuilder b("fetch");
  int sel = b.Select(F().ints.get(), Predicate::RangeI64(0, 499));
  int f = b.FetchJoin(F().floats.get(), sel);
  return b.Result(f);
}

// Attaches per-worker throughput counters from the scheduler's lifetime
// deltas over the timed region.
void ReportWorkerThroughput(benchmark::State& state,
                            const MorselScheduler& sched,
                            const std::vector<MorselWorkerStats>& before,
                            uint64_t caller_before, double elapsed_s) {
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
      tasks > 0 ? 100.0 * static_cast<double>(steals) /
                      static_cast<double>(tasks)
                : 0;
}

void RunPlanBench(benchmark::State& state, const QueryPlan& plan,
                  bool use_morsels) {
  const int workers = static_cast<int>(state.range(0));
  std::shared_ptr<MorselScheduler> sched =
      use_morsels ? std::make_shared<MorselScheduler>(workers) : nullptr;
  Evaluator eval(ExecOptions(), sched);
  std::vector<MorselWorkerStats> before;
  uint64_t caller_before = 0;
  if (use_morsels) {
    before = sched->worker_stats();
    caller_before = sched->caller_tasks();
  }
  auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    EvalResult er;
    benchmark::DoNotOptimize(eval.Execute(plan, &er));
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  state.SetItemsProcessed(state.iterations() * F().ints->size());
  if (use_morsels) {
    ReportWorkerThroughput(state, *sched, before, caller_before, elapsed_s);
  }
}

void BM_SelectWholeColumn(benchmark::State& state) {
  RunPlanBench(state, SelectPlan(), /*use_morsels=*/false);
}
BENCHMARK(BM_SelectWholeColumn)->Arg(1)->UseRealTime();

void BM_SelectMorsels(benchmark::State& state) {
  RunPlanBench(state, SelectPlan(), /*use_morsels=*/true);
}
// range(0) = morsel scheduler workers. On a single-core host the >1-worker
// rows show scheduling overhead only; wall-clock speedup needs real cores
// (the acceptance criterion gates on hardware_concurrency() >= 4).
BENCHMARK(BM_SelectMorsels)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_FetchJoinWholeColumn(benchmark::State& state) {
  RunPlanBench(state, FetchJoinPlan(), /*use_morsels=*/false);
}
BENCHMARK(BM_FetchJoinWholeColumn)->Arg(1)->UseRealTime();

void BM_FetchJoinMorsels(benchmark::State& state) {
  RunPlanBench(state, FetchJoinPlan(), /*use_morsels=*/true);
}
BENCHMARK(BM_FetchJoinMorsels)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace
}  // namespace apq

BENCHMARK_MAIN();

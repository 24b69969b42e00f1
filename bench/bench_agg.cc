// Parallel aggregation subsystem vs whole-column execution (google-benchmark,
// real wall-clock): 2M-row group-by ingest at 10 / 10K / 1M distinct groups
// and hash-join probe throughput, sequential vs morsel-parallel across worker
// counts. Reports per-worker morsel throughput, steal rate, and the worst
// per-operator morsel skew of the last run, mirroring bench_morsels.
//
// The acceptance target (>= 2x group-by ingest at 4 workers) is only
// demonstrable on hosts with >= 4 hardware threads; on smaller containers
// the >1-worker rows show scheduling overhead only.
//
// Run: build/bench_agg [--benchmark_filter=...]
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
  ColumnPtr groups10, groups10k, groups1m;  // group-by key columns
  ColumnPtr fk, pk;                         // join probe / build columns
  Fixture() {
    Rng rng(42);
    auto keys = [&](int64_t card) {
      std::vector<int64_t> v(kRows);
      for (auto& x : v) x = rng.UniformRange(0, card - 1);
      return v;
    };
    groups10 = Column::MakeInt64("g10", keys(10));
    groups10k = Column::MakeInt64("g10k", keys(10'000));
    groups1m = Column::MakeInt64("g1m", keys(1'000'000));
    fk = Column::MakeInt64("fk", keys(100'000));
    std::vector<int64_t> pkv(100'000);
    for (size_t i = 0; i < pkv.size(); ++i) pkv[i] = static_cast<int64_t>(i);
    pk = Column::MakeInt64("pk", std::move(pkv));
  }

  const Column* group_col(int64_t card) const {
    return card == 10 ? groups10.get()
           : card == 10'000 ? groups10k.get()
                            : groups1m.get();
  }
};

Fixture& F() {
  static Fixture f;
  return f;
}

QueryPlan GroupByPlan(int64_t card) {
  PlanBuilder b("group");
  int g = b.GroupByLeaf(F().group_col(card));
  return b.Result(g);
}

QueryPlan ProbePlan() {
  PlanBuilder b("probe");
  int j = b.JoinLeaf(F().fk.get(), F().pk.get());
  return b.Result(j);
}

// Attaches per-worker throughput / steal counters from the scheduler's
// lifetime deltas plus the worst per-operator morsel skew of the last run.
void ReportAggCounters(benchmark::State& state, const MorselScheduler& sched,
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
    ReportAggCounters(state, *sched, before, caller_before, elapsed_s, last);
  }
}

void BM_GroupByWholeColumn(benchmark::State& state) {
  RunPlanBench(state, GroupByPlan(state.range(0)), /*parallel=*/false, 1);
}
BENCHMARK(BM_GroupByWholeColumn)
    ->Arg(10)
    ->Arg(10'000)
    ->Arg(1'000'000)
    ->UseRealTime();

void BM_GroupByParallel(benchmark::State& state) {
  RunPlanBench(state, GroupByPlan(state.range(0)), /*parallel=*/true,
               static_cast<int>(state.range(1)));
}
// range(0) = distinct groups, range(1) = morsel scheduler workers.
BENCHMARK(BM_GroupByParallel)
    ->ArgsProduct({{10, 10'000, 1'000'000}, {1, 2, 4, 8}})
    ->UseRealTime();

void BM_JoinProbeWholeColumn(benchmark::State& state) {
  RunPlanBench(state, ProbePlan(), /*parallel=*/false, 1);
}
BENCHMARK(BM_JoinProbeWholeColumn)->Arg(1)->UseRealTime();

void BM_JoinProbeParallel(benchmark::State& state) {
  RunPlanBench(state, ProbePlan(), /*parallel=*/true,
               static_cast<int>(state.range(0)));
}
BENCHMARK(BM_JoinProbeParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace
}  // namespace apq

BENCHMARK_MAIN();

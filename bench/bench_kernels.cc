// Execution-backend microbenchmarks (google-benchmark, real wall-clock):
// the vectorized selection-vector kernels through the evaluator and as raw
// hot loops (against a bench-local scalar loop), per SIMD dispatch tier, and
// exchange-parallelized plans on 1/2/4/8-worker fleets. These are the
// hardware-truth numbers behind the simulated figures; baselines are
// recorded in CHANGES.md.
//
// Run: build/bench_kernels [--benchmark_filter=...]
#include <benchmark/benchmark.h>

#include "exec/evaluator.h"
#include "heuristic/parallelizer.h"
#include "exec/kernels.h"
#include "plan/builder.h"
#include "util/rng.h"

namespace apq {
namespace {

struct Fixture {
  ColumnPtr ints, floats, fk, pk;
  Fixture() {
    Rng rng(42);
    const uint64_t n = 1 << 21;
    std::vector<int64_t> iv(n), fkv(n), pkv(1 << 14);
    std::vector<double> fv(n);
    for (auto& v : iv) v = rng.UniformRange(0, 999);
    for (auto& v : fkv) v = rng.UniformRange(0, (1 << 14) - 1);
    for (auto& v : fv) v = rng.NextDouble();
    for (size_t i = 0; i < pkv.size(); ++i) pkv[i] = static_cast<int64_t>(i);
    ints = Column::MakeInt64("ints", std::move(iv));
    floats = Column::MakeFloat64("floats", std::move(fv));
    fk = Column::MakeInt64("fk", std::move(fkv));
    pk = Column::MakeInt64("pk", std::move(pkv));
  }
};

Fixture& F() {
  static Fixture f;
  return f;
}

// ---- select: dense scan ----------------------------------------------------
// range(0) = inclusive upper bound on values in [0,999] -> selectivity/10.

void BM_SelectDenseVectorized(benchmark::State& state) {
  Evaluator eval(ExecOptions{});
  PlanBuilder b("sel");
  int sel = b.Select(F().ints.get(),
                     Predicate::RangeI64(0, state.range(0)));
  QueryPlan plan = b.Result(sel);
  for (auto _ : state) {
    EvalResult er;
    benchmark::DoNotOptimize(eval.Execute(plan, &er));
  }
  state.SetItemsProcessed(state.iterations() * F().ints->size());
}
BENCHMARK(BM_SelectDenseVectorized)->Arg(99)->Arg(499)->Arg(899);

// ---- select hot loop, no plan machinery ------------------------------------
// The raw scalar inner loop (per-row lambda re-dispatching on predicate kind,
// push_back output) vs the SelectDense kernel, on the same column.

void BM_SelectLoopScalar(benchmark::State& state) {
  const Column& col = *F().ints;
  const int64_t hi = state.range(0);
  Predicate pred = Predicate::RangeI64(0, hi);
  for (auto _ : state) {
    std::vector<oid> out;
    auto test = [&](oid row) -> bool {
      if (pred.kind == Predicate::Kind::kRangeF64) {
        double v = static_cast<double>(col.i64()[row]);
        return v >= pred.flo && v <= pred.fhi;
      }
      if (pred.kind == Predicate::Kind::kRangeI64) {
        int64_t v = col.i64()[row];
        return v >= pred.lo && v <= pred.hi;
      }
      return col.i64()[row] == pred.lo;
    };
    for (oid row = 0; row < col.size(); ++row) {
      if (test(row)) out.push_back(row);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * col.size());
}
BENCHMARK(BM_SelectLoopScalar)->Arg(99)->Arg(499)->Arg(899);

void BM_SelectLoopKernel(benchmark::State& state) {
  const Column& col = *F().ints;
  Predicate pred = Predicate::RangeI64(0, state.range(0));
  for (auto _ : state) {
    std::vector<oid> out;
    SelectDense(col, col.full_range(), pred, nullptr, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * col.size());
}
BENCHMARK(BM_SelectLoopKernel)->Arg(99)->Arg(499)->Arg(899);

// ---- select: candidate list ------------------------------------------------

void BM_SelectCandidatesVectorized(benchmark::State& state) {
  Evaluator eval(ExecOptions{});
  PlanBuilder b("sel2");
  int s1 = b.Select(F().ints.get(), Predicate::RangeI64(0, 499));
  int s2 = b.Select(F().floats.get(), Predicate::RangeF64(0.0, 0.5), s1);
  QueryPlan plan = b.Result(s2);
  for (auto _ : state) {
    EvalResult er;
    benchmark::DoNotOptimize(eval.Execute(plan, &er));
  }
  state.SetItemsProcessed(state.iterations() * F().ints->size());
}
BENCHMARK(BM_SelectCandidatesVectorized);

// ---- fetchjoin gather ------------------------------------------------------

void BM_FetchJoinVectorized(benchmark::State& state) {
  Evaluator eval(ExecOptions{});
  PlanBuilder b("fetch");
  int sel = b.Select(F().ints.get(), Predicate::RangeI64(0, 499));
  int f = b.FetchJoin(F().floats.get(), sel);
  QueryPlan plan = b.Result(f);
  for (auto _ : state) {
    EvalResult er;
    benchmark::DoNotOptimize(eval.Execute(plan, &er));
  }
  state.SetItemsProcessed(state.iterations() * F().ints->size());
}
BENCHMARK(BM_FetchJoinVectorized);

// ---- hash-join probe (batched pair emission) -------------------------------

void BM_JoinProbeVectorized(benchmark::State& state) {
  Evaluator eval(ExecOptions{});
  PlanBuilder b("join");
  int jn = b.JoinLeaf(F().fk.get(), F().pk.get());
  QueryPlan plan = b.Result(jn);
  for (auto _ : state) {
    EvalResult er;
    benchmark::DoNotOptimize(eval.Execute(plan, &er));
  }
  state.SetItemsProcessed(state.iterations() * F().fk->size());
}
BENCHMARK(BM_JoinProbeVectorized);

// ---- fleet execution of an exchange-parallelized plan ----------------------
// range(0) = fleet workers. The serial select+fetch+sum pipeline is
// statically parallelized 8 ways (mitosis-style), yielding 8 independent
// clone subtrees feeding the final pack/merge: each dataflow level of clones
// runs as one fleet job, and each clone's morsels join the same fleet.

void BM_ExchangePlanThreads(benchmark::State& state) {
  Evaluator eval(ExecOptions(), std::make_shared<MorselScheduler>(
                                    static_cast<int>(state.range(0))));
  PlanBuilder b("xplan");
  int sel = b.Select(F().ints.get(), Predicate::RangeI64(0, 499));
  int f = b.FetchJoin(F().floats.get(), sel);
  int agg = b.AggScalar(AggFn::kSum, f);
  HeuristicParallelizer hp(HeuristicConfig{.dop = 8});
  auto plan_or = hp.Parallelize(b.Result(agg));
  APQ_CHECK(plan_or.ok());
  const QueryPlan& plan = plan_or.ValueOrDie();
  for (auto _ : state) {
    EvalResult er;
    benchmark::DoNotOptimize(eval.Execute(plan, &er));
  }
  state.SetItemsProcessed(state.iterations() * F().ints->size());
}
// Real time is the relevant axis for thread scaling. The calling thread
// works alongside the fleet, so the 1-worker row already uses two threads;
// on a host with fewer hardware threads than workers the larger rows show
// scheduling overhead, not speedup.
BENCHMARK(BM_ExchangePlanThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// ---- SIMD dispatch tier: per-tier kernel hot loops -------------------------
// Registered dynamically so only tiers the host cpuid reports show up; the
// "scalar" rows route through the all-null tier table and thus measure the
// generic loops (the pre-SIMD baseline — compare BM_SelectLoopKernel).
// Arg(99)/Arg(499) are the 10%/50% selectivity points of the committed
// acceptance criterion (>= 1.5x over the scalar-kernel select at both).

void BM_TierSelectDense(benchmark::State& state, simd::SimdLevel tier) {
  const Column& col = *F().ints;
  Predicate pred = Predicate::RangeI64(0, state.range(0));
  const simd::SimdOps* ops = &simd::OpsFor(tier);
  // The output buffer is reused across iterations (SelectDense appends from
  // the current size): a fresh 8 MB vector per iteration measures glibc mmap
  // churn, not the kernel.
  std::vector<oid> out;
  for (auto _ : state) {
    out.clear();
    SelectDense(col, col.full_range(), pred, nullptr, &out, ops);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * col.size());
}

void BM_TierSelectCandidates(benchmark::State& state, simd::SimdLevel tier) {
  const Column& col = *F().floats;
  // 50%-dense candidate list: every other row, the worst case for the
  // branchy generic loop and the masked-gather path alike.
  static const std::vector<oid>& cands = *[] {
    auto* c = new std::vector<oid>();
    for (oid i = 0; i < F().floats->size(); i += 2) c->push_back(i);
    return c;
  }();
  Predicate pred = Predicate::RangeF64(0.0, 0.5);
  const simd::SimdOps* ops = &simd::OpsFor(tier);
  std::vector<oid> out;
  for (auto _ : state) {
    out.clear();
    uint64_t acc = 0;
    SelectCandidatesSpan(col, col.full_range(), pred, nullptr, cands.data(),
                         cands.size(), &out, &acc, ops);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * cands.size());
}

void BM_TierGather(benchmark::State& state, simd::SimdLevel tier) {
  const Column& col = *F().floats;
  static const std::vector<oid>& ids = *[] {
    Rng rng(7);
    auto* v = new std::vector<oid>(1 << 20);
    for (auto& id : *v) id = rng.Uniform(F().floats->size());
    return v;
  }();
  const simd::SimdOps* ops = &simd::OpsFor(tier);
  std::vector<oid> head;
  ValueVec vals;
  for (auto _ : state) {
    head.clear();
    vals.i64.clear();
    vals.f64.clear();
    APQ_CHECK(GatherRowsSpan(col, ids.data(), ids.size(), col.full_range(),
                             false, AlignPolicy::kStrict, &head, &vals, ops)
                  .ok());
    benchmark::DoNotOptimize(vals.f64.data());
  }
  state.SetItemsProcessed(state.iterations() * ids.size());
}

void RegisterTierBenchmarks() {
  for (simd::SimdLevel tier :
       {simd::SimdLevel::kScalar, simd::SimdLevel::kAvx2,
        simd::SimdLevel::kAvx512}) {
    if (!simd::LevelSupported(tier)) continue;
    const std::string suffix = simd::LevelName(tier);
    benchmark::RegisterBenchmark(
        ("BM_TierSelectDense/" + suffix).c_str(),
        [tier](benchmark::State& s) { BM_TierSelectDense(s, tier); })
        ->Arg(99)
        ->Arg(499)
        ->Arg(899);
    benchmark::RegisterBenchmark(
        ("BM_TierSelectCandidates/" + suffix).c_str(),
        [tier](benchmark::State& s) { BM_TierSelectCandidates(s, tier); });
    benchmark::RegisterBenchmark(
        ("BM_TierGather/" + suffix).c_str(),
        [tier](benchmark::State& s) { BM_TierGather(s, tier); });
  }
}

}  // namespace
}  // namespace apq

int main(int argc, char** argv) {
  apq::RegisterTierBenchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

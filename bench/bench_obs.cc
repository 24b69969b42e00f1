// Observability-layer microbenchmarks (google-benchmark, real wall-clock):
// the cost contract of the always-on instrumentation, measured.
//
//   - BM_SpanSiteDisabled      the one relaxed load + branch every disabled
//                              span site pays — the overhead every query
//                              carries whether or not anyone is watching
//   - BM_SpanRecordEnabled     full span record (two clock reads + ring
//                              store) with tracing on
//   - BM_InstantRecordEnabled  instant-event record (steal/mutation events)
//   - BM_CounterInc            one metrics counter increment
//   - BM_HistogramObserve      one histogram observation (bucket search +
//                              two atomic adds)
//   - BM_MetricsRender         /metrics Prometheus render latency at 10/100
//                              registered instruments (what a scrape costs)
//   - BM_MetricsJsonRender     /metrics.json render at the same sizes
//   - BM_HandleDebugQueries    /debug/queries render with a full query ring
//   - BM_ChargeTransient       peak-visible transient charge with a query
//                              context and an operator block installed (the
//                              kernel-output-growth hot path)
//   - BM_BillTask              one scheduler task billed to its query
//                              context and operator (the task-epilogue hot
//                              path)
//
// The trajectory gate (tools/bench_trend.py vs BENCH_obs.json) watches
// BM_SpanSiteDisabled and the render latencies: the disabled site must stay
// in the ~1ns regime and a scrape must stay far below a morsel, or the
// "observability never perturbs execution" story quietly rots. The
// accounting rows extend the same contract to resource_tracker.h: a
// handful of relaxed atomic adds per charge or bill.
//
// Run: build/bench_obs [--benchmark_filter=...]
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/resource_tracker.h"
#include "obs/trace.h"

namespace apq {
namespace {

void BM_SpanSiteDisabled(benchmark::State& state) {
  obs::SetTraceEnabled(false);
  for (auto _ : state) {
    obs::SpanScope span(obs::SpanKind::kOperator, "bench-op", 1, 2);
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanSiteDisabled);

void BM_SpanRecordEnabled(benchmark::State& state) {
  obs::SetTraceEnabled(true);
  for (auto _ : state) {
    obs::SpanScope span(obs::SpanKind::kOperator, "bench-op", 1, 2);
    benchmark::DoNotOptimize(&span);
  }
  obs::SetTraceEnabled(false);
  obs::ClearTraceBuffers();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanRecordEnabled);

void BM_InstantRecordEnabled(benchmark::State& state) {
  obs::SetTraceEnabled(true);
  for (auto _ : state) {
    obs::EmitInstant(obs::SpanKind::kSteal, "steal", 1, 2);
  }
  obs::SetTraceEnabled(false);
  obs::ClearTraceBuffers();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InstantRecordEnabled);

void BM_CounterInc(benchmark::State& state) {
  obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("bench_obs_counter");
  for (auto _ : state) c->Inc();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterInc);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "bench_obs_hist", obs::Histogram::LatencyBoundsNs());
  double v = 250.0;
  for (auto _ : state) {
    h->Observe(v);
    v = v < 1e9 ? v * 1.001 : 250.0;  // walk the bucket ladder
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve);

// Registers `n` instruments once (registry instruments are process-lifetime;
// re-registration returns the cached pointer, so repeated bench runs don't
// grow the registry beyond the first).
void PopulateRegistry(int n) {
  auto& reg = obs::MetricsRegistry::Global();
  for (int i = 0; i < n; ++i) {
    const std::string suffix = std::to_string(i);
    reg.GetCounter("bench_obs_fill_counter_" + suffix)->Inc(i);
    reg.GetGauge("bench_obs_fill_gauge_" + suffix)->Set(i);
    obs::Histogram* h = reg.GetHistogram("bench_obs_fill_hist_" + suffix,
                                         obs::Histogram::LatencyBoundsNs());
    h->Observe(1000.0 * (i + 1));
  }
}

void BM_MetricsRender(benchmark::State& state) {
  PopulateRegistry(static_cast<int>(state.range(0)));
  size_t bytes = 0;
  for (auto _ : state) {
    int status = 0;
    std::string content_type, body;
    obs::HttpExporter::Handle("/metrics", &status, &content_type, &body);
    benchmark::DoNotOptimize(body.data());
    bytes = body.size();
  }
  state.counters["body_bytes"] = static_cast<double>(bytes);
  state.SetItemsProcessed(state.iterations());
}
// range(0) = instruments of each type registered before rendering.
BENCHMARK(BM_MetricsRender)->Arg(10)->Arg(100);

void BM_MetricsJsonRender(benchmark::State& state) {
  PopulateRegistry(static_cast<int>(state.range(0)));
  size_t bytes = 0;
  for (auto _ : state) {
    int status = 0;
    std::string content_type, body;
    obs::HttpExporter::Handle("/metrics.json", &status, &content_type, &body);
    benchmark::DoNotOptimize(body.data());
    bytes = body.size();
  }
  state.counters["body_bytes"] = static_cast<double>(bytes);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsJsonRender)->Arg(10)->Arg(100);

void BM_HandleDebugQueries(benchmark::State& state) {
  // A full ring of plausible records: what /debug/queries costs once the
  // process has been serving queries for a while.
  obs::QueryLog::Global().Clear();
  for (uint64_t i = 1; i <= obs::kQueryLogCapacity; ++i) {
    obs::QueryRecord rec;
    rec.id = i;
    rec.kind = i % 3 == 0 ? "adaptive" : "plan";
    rec.wall_ns = 1e6 + static_cast<double>(i);
    rec.time_ns = 5e5;
    rec.rows = 1000 * i;
    rec.runs = rec.kind == "adaptive" ? 7 : 1;
    rec.mutations = rec.kind == "adaptive" ? 4 : 0;
    obs::QueryLog::Global().Push(rec);
  }
  size_t bytes = 0;
  for (auto _ : state) {
    int status = 0;
    std::string content_type, body;
    obs::HttpExporter::Handle("/debug/queries", &status, &content_type,
                              &body);
    benchmark::DoNotOptimize(body.data());
    bytes = body.size();
  }
  state.counters["body_bytes"] = static_cast<double>(bytes);
  state.SetItemsProcessed(state.iterations());
  obs::QueryLog::Global().Clear();
}
BENCHMARK(BM_HandleDebugQueries);

void BM_ChargeTransient(benchmark::State& state) {
  // The realistic shape: a query context and an operator block are
  // installed, so the charge fans out to the query, the operator block, and
  // the process gauge — the kernel-output-growth path under a running query.
  obs::QueryContext query{obs::NextQueryId()};
  obs::QueryScope query_scope(&query);
  obs::OpAcct acct;
  obs::OpAcctScope acct_scope(&acct);
  for (auto _ : state) {
    obs::ChargeTransient(4096);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChargeTransient);

void BM_BillTask(benchmark::State& state) {
  // The scheduler task epilogue: bill one finished morsel task's duration
  // and queue-wait to its query context and operator block.
  obs::QueryContext query{obs::NextQueryId()};
  obs::OpAcct acct;
  for (auto _ : state) {
    obs::BillTask(&query, &acct, 25000.0, 400.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BillTask);

}  // namespace
}  // namespace apq

BENCHMARK_MAIN();

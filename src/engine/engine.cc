#include "engine/engine.h"

#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/resource_tracker.h"
#include "obs/trace.h"
#include "profile/profile_json.h"
#include "util/hash_clock.h"

namespace apq {

namespace {

// End-to-end hardware latency per query, both entry points. Resolved once;
// observation is a couple of relaxed atomics per query.
obs::Histogram* QueryLatencyHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "apq_query_latency_ns", obs::Histogram::LatencyBoundsNs());
  return h;
}

// Failed queries must leave a metric trail (satellite: every Engine query
// error path bumps this and records an error-status QueryRecord).
obs::Counter* QueryErrorsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("apq_query_errors_total");
  return c;
}

// Serializes `doc`, wraps it in a QueryRecord, and pushes it into the
// recent-query ring — the single recording point both entry points (and
// both their ok/error paths) funnel through.
void RecordQuery(const QueryProfileDoc& doc, int runs, int mutations) {
  obs::QueryRecord rec;
  rec.id = doc.query_id;
  rec.kind = doc.kind;
  rec.status = doc.status;
  rec.error = doc.error;
  rec.wall_ns = doc.wall_ns;
  rec.time_ns = doc.time_ns;
  rec.rows = doc.rows;
  rec.runs = runs;
  rec.mutations = mutations;
  rec.peak_bytes = doc.peak_bytes;
  rec.cpu_ns = doc.cpu_ns;
  rec.queue_wait_ns = doc.queue_wait_ns;
  rec.profile_json = QueryProfileJson(doc);
  obs::QueryLog::Global().Push(std::move(rec));
}

// Folds the query context's accounting into `doc` (peak bytes, CPU, queue
// wait). `workers` is the parallel-efficiency denominator: the
// morsel-scheduler fleet size when one exists, else 1 (whole-column
// execution runs on the calling thread).
void SnapshotResources(const obs::QueryContext& query,
                       const Evaluator& evaluator, QueryProfileDoc* doc) {
  const obs::OpAcct& a = query.acct;
  doc->peak_bytes = a.peak_bytes.load(std::memory_order_relaxed);
  doc->cpu_ns = static_cast<double>(a.cpu_ns.load(std::memory_order_relaxed));
  doc->queue_wait_ns =
      static_cast<double>(a.queue_wait_ns.load(std::memory_order_relaxed));
  const auto& sched = evaluator.morsel_scheduler();
  doc->workers = (sched != nullptr && sched->num_workers() > 0)
                     ? sched->num_workers()
                     : 1;
}

}  // namespace

StatusOr<QueryRunResult> Engine::RunPlanInner(
    const QueryPlan& plan, const std::vector<SimTask>& background,
    uint64_t seed_salt) {
  EvalResult er;
  APQ_RETURN_NOT_OK(evaluator_.Execute(plan, &er));
  SimulatedRun sim = SimulateRun(plan, er.metrics, cost_model_, simulator_,
                                 background, seed_salt);
  QueryRunResult out;
  out.time_ns = sim.time_ns;
  out.wall_ns = er.wall_ns;
  out.utilization = sim.profile.utilization;
  out.result = std::move(er.result);
  out.stats = plan.Stats();
  out.profile = std::move(sim.profile);
  return out;
}

StatusOr<QueryRunResult> Engine::RunPlan(const QueryPlan& plan,
                                         const std::vector<SimTask>& background,
                                         uint64_t seed_salt) {
  obs::QueryContext query{obs::NextQueryId()};
  obs::QueryScope query_scope(&query);
  const uint64_t qid = query.id;
  obs::SpanScope query_span(obs::SpanKind::kQuery, "query",
                            static_cast<int64_t>(qid));
  const double q0 = NowNs();
  auto out = RunPlanInner(plan, background, seed_salt);
  const double wall = NowNs() - q0;
  QueryLatencyHistogram()->Observe(wall);

  QueryProfileDoc doc;
  doc.query_id = qid;
  doc.kind = "plan";
  doc.wall_ns = wall;
  if (out.ok()) {
    QueryRunResult& r = out.ValueOrDie();
    r.query_id = qid;
    doc.time_ns = r.time_ns;
    doc.rows = r.result.NumRows();
    doc.profile = &r.profile;
  } else {
    QueryErrorsCounter()->Inc();
    doc.status = "error";
    doc.error = out.status().ToString();
  }
  SnapshotResources(query, evaluator_, &doc);
  RecordQuery(doc, /*runs=*/1, /*mutations=*/0);
  return out;
}

StatusOr<QueryPlan> Engine::HeuristicPlan(const QueryPlan& serial_plan,
                                          int dop) const {
  HeuristicConfig hc;
  hc.dop = dop > 0 ? dop : config_.hp_dop;
  HeuristicParallelizer hp(hc);
  return hp.Parallelize(serial_plan);
}

StatusOr<QueryRunResult> Engine::RunHeuristic(
    const QueryPlan& serial_plan, int dop,
    const std::vector<SimTask>& background, uint64_t seed_salt) {
  auto plan = HeuristicPlan(serial_plan, dop);
  if (!plan.ok()) return plan.status();
  return RunPlan(plan.ValueOrDie(), background, seed_salt);
}

StatusOr<AdaptiveOutcome> Engine::RunAdaptive(
    const QueryPlan& serial_plan, const std::vector<SimTask>& background) {
  obs::QueryContext query{obs::NextQueryId()};
  obs::QueryScope query_scope(&query);
  const uint64_t qid = query.id;
  obs::SpanScope query_span(obs::SpanKind::kQuery, "adaptive-query",
                            static_cast<int64_t>(qid));
  const double q0 = NowNs();
  AdaptiveParams params;
  params.convergence = config_.convergence;
  params.convergence.cores = config_.sim.logical_cores;
  params.mutator = config_.mutator;
  params.verify_results = config_.verify_results;
  AdaptiveExecutor exec(&evaluator_, cost_model_, simulator_, params);
  auto out = exec.Run(serial_plan, background);
  const double wall = NowNs() - q0;
  QueryLatencyHistogram()->Observe(wall);

  QueryProfileDoc doc;
  doc.query_id = qid;
  doc.kind = "adaptive";
  doc.wall_ns = wall;
  int runs = 0;
  int mutations = 0;
  if (out.ok()) {
    const AdaptiveOutcome& a = out.ValueOrDie();
    query_span.set_args(static_cast<int64_t>(qid), a.total_runs, a.gme_run);
    doc.time_ns = a.gme_time_ns;
    doc.rows = a.result.NumRows();
    doc.profile = &a.gme_profile;
    doc.adaptive = &a;
    runs = a.total_runs;
    for (const auto& entry : a.lineage) {
      if (entry.action != "none") ++mutations;
    }
  } else {
    QueryErrorsCounter()->Inc();
    doc.status = "error";
    doc.error = out.status().ToString();
  }
  SnapshotResources(query, evaluator_, &doc);
  RecordQuery(doc, runs, mutations);
  return out;
}

StatusOr<std::vector<SimTask>> Engine::BuildBackground(
    const std::vector<const QueryPlan*>& mix, int clients, double spacing_ns) {
  std::vector<SimTask> out;
  if (mix.empty() || clients <= 0) return out;
  // Evaluate each distinct plan once; replicate tasks per client.
  std::vector<std::vector<SimTask>> per_plan;
  per_plan.reserve(mix.size());
  for (const QueryPlan* p : mix) {
    EvalResult er;
    APQ_RETURN_NOT_OK(evaluator_.Execute(*p, &er));
    per_plan.push_back(BuildSimTasks(*p, er.metrics, cost_model_));
  }
  for (int c = 0; c < clients; ++c) {
    const auto& tmpl = per_plan[c % per_plan.size()];
    int base = static_cast<int>(out.size());
    for (SimTask t : tmpl) {
      t.instance = c + 1;
      t.arrival_ns = spacing_ns * c;
      for (int& d : t.deps) d += base;
      out.push_back(std::move(t));
    }
  }
  return out;
}

}  // namespace apq

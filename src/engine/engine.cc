#include "engine/engine.h"

#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/resource_tracker.h"
#include "obs/trace.h"
#include "profile/profile_json.h"
#include "util/hash_clock.h"

namespace apq {

namespace {

// The one recording point of a finished query, for both entry points and
// both their ok and error paths: observes its end-to-end latency, counts a
// failure (every error leaves a metric trail), folds in the query context's
// accounting, renders the profile document from the record and pushes the
// record into the recent-query ring. `workers` is the parallel-efficiency
// denominator: the fleet size when the evaluator has one, else 1
// (whole-column execution runs on the calling thread).
void RecordQuery(const obs::QueryContext& query, const Evaluator& evaluator,
                 const Status& status, QueryProfileDoc doc) {
  static obs::Histogram* const latency =
      obs::MetricsRegistry::Global().GetHistogram(
          "apq_query_latency_ns", obs::Histogram::LatencyBoundsNs());
  static obs::Counter* const errors =
      obs::MetricsRegistry::Global().GetCounter("apq_query_errors_total");
  obs::QueryRecord& rec = doc.record;
  latency->Observe(rec.wall_ns);
  if (!status.ok()) {
    errors->Inc();
    rec.status = "error";
    rec.error = status.ToString();
  }
  const obs::OpAcct& a = query.acct;
  rec.peak_bytes = a.peak_bytes.load(std::memory_order_relaxed);
  rec.cpu_ns = static_cast<double>(a.cpu_ns.load(std::memory_order_relaxed));
  rec.queue_wait_ns =
      static_cast<double>(a.queue_wait_ns.load(std::memory_order_relaxed));
  const auto& fleet = evaluator.morsel_scheduler();
  rec.workers = fleet != nullptr && fleet->num_workers() > 0
                    ? fleet->num_workers()
                    : 1;
  rec.profile_json = QueryProfileJson(doc);
  obs::QueryLog::Global().Push(std::move(rec));
}

}  // namespace

StatusOr<QueryRunResult> Engine::RunPlanInner(
    const QueryPlan& plan, const std::vector<SimTask>& background,
    uint64_t seed_salt, uint64_t morsel_rows) {
  EvalResult er;
  APQ_RETURN_NOT_OK(evaluator_.Execute(plan, &er, {}, morsel_rows));
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
                                         uint64_t seed_salt,
                                         uint64_t morsel_rows) {
  obs::QueryContext query{obs::NextQueryId()};
  obs::QueryScope query_scope(&query);
  obs::SpanScope query_span(obs::SpanKind::kQuery, "query",
                            static_cast<int64_t>(query.id));
  const double q0 = NowNs();
  auto out = RunPlanInner(plan, background, seed_salt, morsel_rows);
  QueryProfileDoc doc;
  doc.record.id = query.id;
  doc.record.wall_ns = NowNs() - q0;
  if (out.ok()) {
    QueryRunResult& r = out.ValueOrDie();
    r.query_id = query.id;
    doc.record.time_ns = r.time_ns;
    doc.record.rows = r.result.NumRows();
    doc.profile = &r.profile;
  }
  RecordQuery(query, evaluator_, out.status(), std::move(doc));
  return out;
}

StatusOr<QueryPlan> Engine::HeuristicPlan(const QueryPlan& serial_plan,
                                          int dop) const {
  HeuristicConfig hc;
  hc.dop = dop > 0 ? dop : config_.sim.logical_cores;
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
  obs::SpanScope query_span(obs::SpanKind::kQuery, "adaptive-query",
                            static_cast<int64_t>(query.id));
  const double q0 = NowNs();
  AdaptiveParams params;
  params.convergence = config_.convergence;
  params.convergence.cores = config_.sim.logical_cores;
  params.mutator = config_.mutator;
  params.verify_results = config_.verify_results;
  AdaptiveExecutor exec(&evaluator_, cost_model_, simulator_, params);
  auto out = exec.Run(serial_plan, background);
  QueryProfileDoc doc;
  doc.record.id = query.id;
  doc.record.kind = "adaptive";
  doc.record.wall_ns = NowNs() - q0;
  doc.record.runs = 0;  // a failed loop reports no runs
  if (out.ok()) {
    const AdaptiveOutcome& a = out.ValueOrDie();
    query_span.set_args(static_cast<int64_t>(query.id), a.total_runs,
                        a.gme_run);
    doc.record.time_ns = a.gme_time_ns;
    doc.record.rows = a.result.NumRows();
    doc.record.runs = a.total_runs;
    for (const AdaptiveLineage& entry : a.lineage) {
      if (entry.action != "none") ++doc.record.mutations;
    }
    doc.profile = &a.gme_profile;
    doc.adaptive = &a;
  }
  RecordQuery(query, evaluator_, out.status(), std::move(doc));
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

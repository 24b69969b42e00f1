#include "workloads.h"

#include "profile/profile_json.h"
#include "workload/tpch.h"

namespace perfbench {

void AddSetupMetrics(Report* r, const SetupTimes& t) {
  r->EndToEnd("setup_s", "s", Median(t.total_s), &t.total_s);
  r->Layer("workload.gen_s", "s", Median(t.gen_s), &t.gen_s);
  r->Layer("workload.warm_s", "s", Median(t.warm_s), &t.warm_s);
}

std::unique_ptr<EngineSetup> SetUpEngines(
    const std::string& workload, uint64_t rows, uint64_t seed,
    const std::vector<std::string>& queries, int workers, SetupTimes* times) {
  std::unique_ptr<EngineSetup> s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    s = std::make_unique<EngineSetup>();
    const double t0 = NowNs();
    apq::TpchConfig tc;
    tc.lineitem_rows = rows;
    tc.seed = seed;
    s->catalog = apq::Tpch::Generate(tc);
    const double t1 = NowNs();
    for (const std::string& name : queries) {
      auto plan = apq::Tpch::Query(*s->catalog, name);
      if (!plan.ok()) {
        std::fprintf(stderr, "%s: building %s: %s\n", workload.c_str(),
                     name.c_str(), plan.status().ToString().c_str());
        return nullptr;
      }
      s->plans.emplace(name, plan.MoveValueOrDie());
    }
    s->sched = std::make_shared<apq::MorselScheduler>(workers);
    apq::EngineConfig cfg;
    cfg.use_morsels = true;
    cfg.morsel_scheduler = s->sched;
    s->engine = std::make_unique<apq::Engine>(cfg);
    const double t2 = NowNs();
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& [name, plan] : s->plans) {
        auto run = s->engine->RunPlan(plan);
        if (!run.ok()) {
          std::fprintf(stderr, "%s: warm-up %s: %s\n", workload.c_str(),
                       name.c_str(), run.status().ToString().c_str());
          return nullptr;
        }
      }
    }
    const double t3 = NowNs();
    times->Add(t3 - t0, t1 - t0, t3 - t2);
  }
  return s;
}

Replay ReplayBookkeeping(const apq::QueryPlan& plan,
                         const std::vector<apq::OpMetrics>& metrics,
                         const apq::Engine& engine) {
  Replay r;
  r.sim_start = NowNs();
  const std::vector<apq::SimTask> tasks =
      apq::BuildSimTasks(plan, metrics, engine.cost_model(), /*instance=*/0);
  const apq::SimOutcome sim = engine.simulator().Run(tasks);
  r.sim_end = NowNs();
  const apq::RunProfile profile =
      apq::MakeRunProfile(plan, metrics, engine.cost_model(), sim.timings,
                          sim.makespan_ns, sim.utilization);
  apq::QueryProfileDoc doc;
  doc.profile = &profile;
  const std::string json = apq::QueryProfileJson(doc);
  (void)json;
  r.doc_start = r.sim_end;
  r.doc_end = NowNs();
  return r;
}

bool PlanMetrics(apq::Engine* engine, const apq::QueryPlan& plan,
                 std::vector<apq::OpMetrics>* out) {
  apq::EvalResult er;
  if (!engine->evaluator()->Execute(plan, &er).ok()) return false;
  *out = std::move(er.metrics);
  return true;
}

Replay TraceRunPlan(SpanLog* spans, const std::string& name,
                    const std::string& exec_name, double t0, double t1,
                    double exec_wall_ns, const apq::QueryPlan& plan,
                    const std::vector<apq::OpMetrics>& metrics,
                    const apq::Engine& engine) {
  const uint64_t req = spans->NewRequest();
  const uint64_t root = spans->Add(name, 0, req, t0, t1);
  spans->Add(exec_name, root, req, t0, t0 + exec_wall_ns, /*derived=*/true);
  const Replay r = ReplayBookkeeping(plan, metrics, engine);
  spans->Add("sched.sim", root, req, r.sim_start, r.sim_end);
  spans->Add("profile.doc", root, req, r.doc_start, r.doc_end);
  return r;
}

void AddSchedInfo(Report* r, const WindowCounters& w,
                  const std::vector<double>& queue_wait_ns) {
  const double tasks = w.sched.tasks > 0 ? w.sched.tasks : 1;
  r->Info("sched.tasks_per_query", "count",
          w.queries > 0 ? w.sched.tasks / w.queries : 0);
  r->Info("sched.steal_pct", "%", 100.0 * w.sched.steals / tasks);
  r->Info("sched.task_us", "us", w.sched.busy_ns / tasks / 1e3);
  r->Info("sched.util_pct", "%",
          w.wall_ns > 0 && w.threads > 0
              ? 100.0 * w.sched.busy_ns / (w.wall_ns * w.threads)
              : 0);
  // The mean, not the median: most requests wait for no task at all.
  std::vector<double> us;
  for (double v : queue_wait_ns) us.push_back(v / 1e3);
  r->Info("sched.queue_wait_us", "us", us.empty() ? 0 : Sum(us) / us.size(),
          &us);
}

void AddOpKindLayer(Report* r, const OpTotals& ops) {
  for (const char* kind : {"select", "fetchjoin", "join", "groupby",
                           "aggregate", "map", "sort"}) {
    r->Layer(std::string("exec.") + kind + ".ns_per_row", "ns",
             ops.NsPerRow(kind));
  }
}

bool QueryRecordOf(uint64_t id, apq::obs::QueryRecord* out) {
  for (apq::obs::QueryRecord& rec : apq::obs::QueryLog::Global().Snapshot()) {
    if (rec.id == id) {
      *out = std::move(rec);
      return true;
    }
  }
  return false;
}

void LayerUs(Report* r, const std::string& name,
             const std::vector<double>& ns) {
  std::vector<double> us;
  us.reserve(ns.size());
  for (double v : ns) us.push_back(v / 1e3);
  r->Layer(name, "us", Median(us), &us);
}

void LayerMs(Report* r, const std::string& name,
             const std::vector<double>& ns) {
  std::vector<double> ms;
  ms.reserve(ns.size());
  for (double v : ns) ms.push_back(v / 1e6);
  r->Layer(name, "ms", Median(ms), &ms);
}

}  // namespace perfbench

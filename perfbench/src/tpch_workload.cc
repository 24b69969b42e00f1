// `tpch`: the seven Table-4 queries through Engine::RunPlan, closed loop, one
// client thread, on a morsel fleet of the caller plus three workers. Kernel,
// join, allocation and scheduler changes show here. A traced run also adapts
// Q4, Q6, Q14 and Q22 with Engine::RunAdaptive on the same engine, for the
// adaptive layer's readings.
#include <algorithm>
#include <map>
#include <memory>

#include "exec/compare.h"
#include "sched/morsel_scheduler.h"
#include "workload/tpch.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint64_t kLineitemRows = 250'000;
constexpr int kWorkers = 3;  // plus the calling thread: 4 busy threads
// The morsel/whole-column differentials compare at DiffIntermediates'
// default tolerance.
constexpr double kTolerance = 1e-9;
// The adaptive executor verifies mutated plans at this tolerance.
constexpr double kAdaptTolerance = 1e-6;
// Share of a traced run's traced half spent on the adaptive readings.
constexpr double kAdaptShare = 0.5;
// The converged and serial plans are timed for at least this long.
constexpr double kMinTimePlansS = 2;

// Latency classes. Q4 and Q22 never touch lineitem; they enter only
// geomean_ms and qps.
const std::vector<std::string> kLight = {"Q6", "Q14"};
const std::vector<std::string> kHeavy = {"Q8", "Q9", "Q19"};

const char* ClassOf(const std::string& q) {
  if (std::count(kLight.begin(), kLight.end(), q)) return "light";
  if (std::count(kHeavy.begin(), kHeavy.end(), q)) return "heavy";
  return "other";
}

// Q8/Q9/Q19 need 150-200 runs each and are timed by the RunPlan loop; the
// skewed select converges in a varying number of runs.
const std::vector<std::string>& AdaptInstances() {
  static const std::vector<std::string> kNames = {"Q4", "Q6", "Q14", "Q22"};
  return kNames;
}

// What the traced window adds up besides its spans.
struct TracedSums {
  std::vector<double> sim_ns, doc_ns, residual_ns;  // light requests
  std::vector<double> sched_wait_ns;                // light requests
  double heavy_faults = 0, heavy_calls = 0;
  double heavy_utime_ns = 0, heavy_stime_ns = 0;
  double nvcsw = 0;
  OpTotals ops;
  double peak_bytes = 0;
  WindowCounters window;
};

// Runs rounds of the seven queries in seed-shuffled order until `seconds`
// have passed; latencies go to `lat` by query. With `traced` set, each call
// is also recorded as spans and counters. Returns the window's length in s.
double Measure(EngineSetup* s,
               const std::map<std::string, apq::Intermediate>& refs,
               double seconds, apq::Rng* rng, Tally* tally, ByQuery* lat,
               SpanLog* spans, TracedSums* traced,
               const std::map<std::string, std::vector<apq::OpMetrics>>*
                   metrics) {
  std::vector<std::string> order = apq::Tpch::QueryNames();
  const SchedSnap sched0 = ReadSched(*s->sched);
  const double start = NowNs();
  const double end = start + seconds * 1e9;
  double queries = 0;
  while (NowNs() < end) {
    Shuffle(&order, rng);
    for (const std::string& name : order) {
      const apq::QueryPlan& plan = s->plans.at(name);
      const Usage u0 = traced ? ReadUsage() : Usage();
      const double t0 = NowNs();
      auto run = s->engine->RunPlan(plan);
      const double t1 = NowNs();
      const Usage du = traced ? ReadUsage() - u0 : Usage();
      ++queries;
      if (!run.ok()) {
        tally->Fail("status");
        continue;
      }
      const apq::QueryRunResult& r = run.ValueOrDie();
      if (!apq::DiffIntermediates(refs.at(name), r.result, kTolerance)
               .empty()) {
        tally->Fail(kWrongResult);
        continue;
      }
      tally->Ok();
      (*lat)[name].push_back(t1 - t0);
      if (traced == nullptr) continue;

      const std::string cls = ClassOf(name);
      const Replay rp =
          TraceRunPlan(spans, "tpch.run_plan." + cls, "exec." + cls, t0, t1,
                       r.wall_ns, plan, metrics->at(name), *s->engine);
      apq::obs::QueryRecord rec;
      const bool have_rec = QueryRecordOf(r.query_id, &rec);
      if (cls == "light") {
        traced->sim_ns.push_back(rp.sim_ns());
        traced->doc_ns.push_back(rp.doc_ns());
        traced->residual_ns.push_back((t1 - t0 - r.wall_ns) - rp.sim_ns() -
                                      rp.doc_ns());
        if (have_rec) traced->sched_wait_ns.push_back(rec.queue_wait_ns);
      } else if (cls == "heavy") {
        traced->heavy_faults += du.minflt;
        traced->heavy_calls += 1;
        traced->heavy_utime_ns += du.utime_ns;
        traced->heavy_stime_ns += du.stime_ns;
      }
      traced->nvcsw += du.nvcsw;
      for (const apq::OpProfile& op : r.profile.ops) {
        traced->ops.Add(apq::OpKindName(op.kind),
                        static_cast<double>(op.cpu_ns),
                        static_cast<double>(op.tuples_in));
      }
      if (have_rec) {
        traced->peak_bytes =
            std::max(traced->peak_bytes, static_cast<double>(rec.peak_bytes));
      }
    }
  }
  const double wall_ns = NowNs() - start;
  if (traced != nullptr) {
    traced->window.wall_ns = wall_ns;
    traced->window.queries = queries;
    traced->window.sched = ReadSched(*s->sched) - sched0;
    traced->window.threads = kWorkers + 1;
  }
  return wall_ns / 1e9;
}

// ---- the adaptive readings of a traced run ----------------------------------

struct AdaptSums {
  // By instance.
  std::map<std::string, double> runs, mutations, plan_nodes;
  std::map<std::string, apq::QueryPlan> gme;
  ByQuery converged_ns, serial_ns;
  double wall_ns = 0, runs_wall_ns = 0, total_runs = 0;
};

// Adapts each instance once from its serial plan, in seed order. A
// RunAdaptive span's self time is the loop's own work: simulation,
// profiling, plan cloning and mutation.
void Adapt(EngineSetup* s,
           const std::map<std::string, apq::Intermediate>& refs,
           apq::Rng* rng, Tally* tally, SpanLog* spans, AdaptSums* a) {
  std::vector<std::string> order = AdaptInstances();
  Shuffle(&order, rng);
  for (const std::string& name : order) {
    const double t0 = NowNs();
    auto out = s->engine->RunAdaptive(s->plans.at(name));
    const double t1 = NowNs();
    if (!out.ok()) {
      tally->Fail("status");
      continue;
    }
    const apq::AdaptiveOutcome& o = out.ValueOrDie();
    if (!apq::DiffIntermediates(refs.at(name), o.result, kAdaptTolerance)
             .empty()) {
      tally->Fail(kWrongResult);
      continue;
    }
    tally->Ok();
    double mutations = 0, runs_wall = 0;
    for (const auto& entry : o.lineage) mutations += entry.action != "none";
    for (const apq::AdaptiveRun& r : o.runs) runs_wall += r.wall_ns;
    a->runs[name] = o.total_runs;
    a->mutations[name] = mutations;
    a->plan_nodes[name] = o.gme_plan.num_nodes();
    a->gme[name] = o.gme_plan;
    a->wall_ns += t1 - t0;
    a->runs_wall_ns += runs_wall;
    a->total_runs += o.total_runs;
    const uint64_t req = spans->NewRequest();
    const uint64_t root = spans->Add("adapt.converge", 0, req, t0, t1);
    spans->Add("exec.adaptive", root, req, t0, t0 + runs_wall, true);
  }
}

// Times each instance's converged and serial plans interleaved, alternating
// which goes first, until `seconds` have passed.
void TimePlans(EngineSetup* s,
               const std::map<std::string, apq::Intermediate>& refs,
               double seconds, apq::Rng* rng, Tally* tally, SpanLog* spans,
               AdaptSums* a) {
  std::vector<std::string> order = AdaptInstances();
  const double end = NowNs() + seconds * 1e9;
  uint64_t round = 0;
  while (NowNs() < end) {
    Shuffle(&order, rng);
    for (const std::string& name : order) {
      if (a->gme.count(name) == 0) continue;  // its adaptation failed
      for (int k = 0; k < 2; ++k) {
        const bool converged = (k + round) % 2 == 0;
        const apq::QueryPlan& plan =
            converged ? a->gme.at(name) : s->plans.at(name);
        const double t0 = NowNs();
        auto run = s->engine->RunPlan(plan);
        const double t1 = NowNs();
        if (!run.ok()) {
          tally->Fail("status");
          continue;
        }
        const apq::QueryRunResult& r = run.ValueOrDie();
        if (!apq::DiffIntermediates(refs.at(name), r.result, kAdaptTolerance)
                 .empty()) {
          tally->Fail(kWrongResult);
          continue;
        }
        tally->Ok();
        (converged ? a->converged_ns : a->serial_ns)[name].push_back(t1 -
                                                                      t0);
        const std::string kind = converged ? "converged" : "serial";
        const uint64_t req = spans->NewRequest();
        const uint64_t root =
            spans->Add("adapt.run_plan." + kind, 0, req, t0, t1);
        spans->Add("exec." + kind, root, req, t0, t0 + r.wall_ns, true);
      }
    }
    ++round;
  }
}

double SumOf(const std::map<std::string, double>& m) {
  double sum = 0;
  for (const auto& [name, v] : m) sum += v;
  return sum;
}

// Adaptive-layer readings, printed for context: every workload's JSON line
// carries the same metrics, and only this one adapts.
void AddAdaptInfo(Report* report, const AdaptSums& a,
                  std::map<std::string, std::vector<double>>* self) {
  report->Info("adaptive.runs", "count", SumOf(a.runs));
  report->Info("adaptive.mutations", "count", SumOf(a.mutations));
  report->Info("adaptive.plan_nodes", "count", SumOf(a.plan_nodes));
  report->Info("adaptive.converge_s", "s", a.wall_ns / 1e9);
  report->Info("adaptive.exec_share_pct", "%",
               a.wall_ns > 0 ? 100.0 * a.runs_wall_ns / a.wall_ns : 0);
  report->Info("adaptive.overhead_us_per_run", "us",
               Sum((*self)["adapt.converge"]) /
                   std::max(a.total_runs, 1.0) / 1e3);
  // Instances whose adaptation failed have no converged plan to time.
  const std::vector<std::string> timed = Names(a.converged_ns);
  report->Info("adaptive.converged_ms", "ms",
               GeoMeanOfMedians(a.converged_ns, timed) / 1e6);
  std::vector<double> ratios;
  for (const std::string& name : timed) {
    auto serial = a.serial_ns.find(name);
    if (serial == a.serial_ns.end()) continue;  // every serial run failed
    ratios.push_back(Median(serial->second) /
                     Median(a.converged_ns.at(name)));
  }
  // A ratio rewards slowing its base, so it is never a gate.
  report->Info("adaptive.speedup", "ratio", GeoMean(ratios));
}

}  // namespace

bool RunTpch(const Options& opt, Report* report, Tally* tally,
             SpanLog* spans) {
  report->Fact("lineitem_rows", std::to_string(kLineitemRows));
  report->Fact("morsel_workers", std::to_string(kWorkers));
  report->Fact("executors", std::to_string(kWorkers + 1));
  report->Fact("clients", "1");

  SetupTimes times;
  const std::unique_ptr<EngineSetup> s =
      SetUpEngines("tpch", kLineitemRows, opt.seed, apq::Tpch::QueryNames(),
                   kWorkers, &times);
  if (s == nullptr) return false;

  // Output-check references from a default-config engine, outside any timing.
  std::map<std::string, apq::Intermediate> refs;
  {
    apq::Engine reference;
    for (const auto& [name, plan] : s->plans) {
      auto run = reference.RunPlan(plan);
      if (!run.ok()) {
        std::fprintf(stderr, "tpch: reference %s: %s\n", name.c_str(),
                     run.status().ToString().c_str());
        return false;
      }
      refs.emplace(name, run.ValueOrDie().result);
    }
  }

  apq::Rng rng(opt.seed);
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  ByQuery lat;
  const double window_s = Measure(s.get(), refs, untraced_s, &rng, tally,
                                  &lat, nullptr, nullptr, nullptr);

  AddSetupMetrics(report, times);
  report->EndToEnd("rss_mb", "MB", PeakRssMb());
  const std::vector<std::string> all = apq::Tpch::QueryNames();
  EndToEndClassMs(report, "geomean_ms", lat, all);
  EndToEndClassMs(report, "light_p50_ms", lat, kLight);
  EndToEndClassMs(report, "heavy_p50_ms", lat, kHeavy);
  report->EndToEnd("qps", "requests/s", Pooled(lat, all).size() / window_s);
  for (const auto& [name, samples] : lat) {
    InfoMs(report, "p50_ms." + name, samples);
  }
  if (!opt.trace) return true;

  std::map<std::string, std::vector<apq::OpMetrics>> metrics;
  for (const auto& [name, plan] : s->plans) {
    if (!PlanMetrics(s->engine.get(), plan, &metrics[name])) return false;
  }
  const double traced_s = opt.seconds - untraced_s;
  ByQuery traced_lat;
  TracedSums t;
  Measure(s.get(), refs, (1 - kAdaptShare) * traced_s, &rng, tally,
          &traced_lat, spans, &t, &metrics);
  // The adaptive readings come after the traced RunPlan window, so their
  // spans and plans leave its figures alone.
  AdaptSums a;
  const double adapt0 = NowNs();
  Adapt(s.get(), refs, &rng, tally, spans, &a);
  const double left_s = kAdaptShare * traced_s - (NowNs() - adapt0) / 1e9;
  TimePlans(s.get(), refs, std::max(left_s, kMinTimePlansS), &rng, tally,
            spans, &a);

  auto self = spans->SelfTimes();
  LayerMs(report, "engine.overhead_ms.light", self["tpch.run_plan.light"]);
  LayerMs(report, "engine.overhead_ms.heavy", self["tpch.run_plan.heavy"]);
  LayerUs(report, "sched.sim_us", t.sim_ns);
  LayerUs(report, "profile.doc_us", t.doc_ns);
  LayerUs(report, "engine.residual_us", t.residual_ns);
  LayerMs(report, "exec.wall_ms.light", self["exec.light"]);
  LayerMs(report, "exec.wall_ms.heavy", self["exec.heavy"]);
  AddOpKindLayer(report, t.ops);
  report->Layer("exec.faults_per_query.heavy", "count",
                t.heavy_calls > 0 ? t.heavy_faults / t.heavy_calls : 0);
  const double heavy_cpu = t.heavy_utime_ns + t.heavy_stime_ns;
  report->Layer("exec.sys_pct", "%",
                heavy_cpu > 0 ? 100.0 * t.heavy_stime_ns / heavy_cpu : 0);
  report->Layer("exec.peak_mb", "MB", t.peak_bytes / (1024.0 * 1024.0));
  report->Layer("sched.csw_per_query", "count",
                t.window.queries > 0 ? t.nvcsw / t.window.queries : 0);
  const double untraced = GeoMeanOfMedians(lat, all);
  report->Layer("trace.overhead_pct", "%",
                100.0 * (GeoMeanOfMedians(traced_lat, all) - untraced) /
                    untraced);
  AddSchedInfo(report, t.window, t.sched_wait_ns);
  AddAdaptInfo(report, a, &self);
  return true;
}

}  // namespace perfbench

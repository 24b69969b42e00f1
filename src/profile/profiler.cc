#include "profile/profiler.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

#include "obs/metrics.h"
#include "util/table_printer.h"

namespace apq {

int RunProfile::MostExpensiveIndex() const {
  int best = -1;
  double best_time = -1;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == OpKind::kResult) continue;
    double d = ops[i].duration_ns();
    if (d > best_time) {
      best_time = d;
      best = static_cast<int>(i);
    }
  }
  return best;
}

int RunProfile::MostExpensiveNode() const {
  int idx = MostExpensiveIndex();
  return idx < 0 ? -1 : ops[idx].node_id;
}

double RunProfile::TotalBusyNs() const {
  double total = 0;
  for (const auto& op : ops) total += op.duration_ns();
  return total;
}

double RunProfile::MaxMorselSkew() const {
  double worst = 0;
  for (const auto& op : ops) worst = std::max(worst, op.morsel_skew);
  return worst;
}

double RunProfile::MaxMorselTupleSkew() const {
  double worst = 0;
  for (const auto& op : ops) worst = std::max(worst, op.morsel_tuple_skew);
  return worst;
}

void OpProfile::ComputeSkewFromMorsels() {
  num_morsels = morsels.size();
  morsel_skew = 0;
  morsel_tuple_skew = 0;
  if (morsels.empty()) return;

  // Wall-time skew: max/mean morsel wall time. 1 = balanced, >1 = some
  // morsel (a dense value cluster, a hot dictionary range) dominated — skew
  // invisible at whole-operator granularity. Hardware truth; varies run to
  // run.
  double total = 0, peak = 0;
  for (const auto& ms : morsels) {
    total += ms.wall_ns;
    peak = std::max(peak, ms.wall_ns);
  }
  double mean = total / static_cast<double>(morsels.size());
  morsel_skew = mean > 0 ? peak / mean : 1.0;

  // Tuple-weight skew: deterministic max/min per-row weight density over the
  // covered base-row domains. Weight models scan cost per covered row plus
  // materialization cost per produced tuple; requires every morsel to carry
  // a valid, strictly ascending domain (otherwise the densities are not
  // comparable and the signal is reported as absent).
  double dmin = 0, dmax = 0;
  uint64_t prev_end = 0;
  for (size_t i = 0; i < morsels.size(); ++i) {
    const auto& ms = morsels[i];
    if (ms.domain_end <= ms.domain_begin) return;
    if (i > 0 && ms.domain_begin < prev_end) return;
    prev_end = ms.domain_end;
    double d = (static_cast<double>(ms.tuples_in) +
                2.0 * static_cast<double>(ms.tuples_out)) /
               static_cast<double>(ms.domain_end - ms.domain_begin);
    if (i == 0) {
      dmin = dmax = d;
    } else {
      dmin = std::min(dmin, d);
      dmax = std::max(dmax, d);
    }
  }
  morsel_tuple_skew = dmin > 0 ? dmax / dmin : (dmax > 0 ? dmax * 1e9 : 1.0);
}

std::vector<SimTask> BuildSimTasks(const QueryPlan& plan,
                                   const std::vector<OpMetrics>& metrics,
                                   const CostModel& cost_model, int instance,
                                   double arrival_ns) {
  std::unordered_map<int, int> node_to_task;
  node_to_task.reserve(metrics.size());
  for (size_t i = 0; i < metrics.size(); ++i) {
    node_to_task[metrics[i].node_id] = static_cast<int>(i);
  }
  std::vector<SimTask> tasks(metrics.size());
  for (size_t i = 0; i < metrics.size(); ++i) {
    const OpMetrics& m = metrics[i];
    SimTask& t = tasks[i];
    t.node_id = m.node_id;
    t.instance = instance;
    t.work_ns = cost_model.Work(m);
    t.mem_intensity = cost_model.MemIntensity(m);
    t.arrival_ns = arrival_ns;
    for (int in : plan.node(m.node_id).inputs) {
      auto it = node_to_task.find(in);
      if (it != node_to_task.end()) t.deps.push_back(it->second);
    }
  }
  return tasks;
}

RunProfile MakeRunProfile(const QueryPlan& plan,
                          const std::vector<OpMetrics>& metrics,
                          const CostModel& cost_model,
                          const std::vector<SimTaskTiming>& timings,
                          double makespan_ns, double utilization) {
  RunProfile rp;
  rp.makespan_ns = makespan_ns;
  rp.utilization = utilization;
  rp.ops.reserve(metrics.size());
  for (size_t i = 0; i < metrics.size(); ++i) {
    OpProfile op;
    static_cast<OpMetrics&>(op) = metrics[i];
    op.label = plan.node(op.node_id).label;
    op.work_ns = cost_model.Work(metrics[i]);
    op.start_ns = timings[i].start_ns;
    op.end_ns = timings[i].end_ns;
    op.core = timings[i].core;
    op.ComputeSkewFromMorsels();
    rp.ops.push_back(std::move(op));
  }
  return rp;
}

SimulatedRun SimulateRun(const QueryPlan& plan,
                         const std::vector<OpMetrics>& metrics,
                         const CostModel& cost_model,
                         const Simulator& simulator,
                         const std::vector<SimTask>& background,
                         uint64_t seed_salt) {
  std::vector<SimTask> tasks =
      BuildSimTasks(plan, metrics, cost_model, /*instance=*/0);
  const int own = static_cast<int>(tasks.size());
  for (SimTask t : background) {
    for (int& d : t.deps) d += own;
    if (t.instance == 0) t.instance = 1;
    tasks.push_back(std::move(t));
  }
  const SimOutcome sim = simulator.Run(tasks, seed_salt);
  SimulatedRun out;
  out.time_ns = sim.instance_response_ns[0];
  // The query's own tasks come first, so timings[i] still matches
  // metrics[i].
  out.profile = MakeRunProfile(plan, metrics, cost_model, sim.timings,
                               out.time_ns, /*utilization=*/0);
  if (out.time_ns > 0) {
    out.profile.utilization =
        out.profile.TotalBusyNs() /
        (out.time_ns * simulator.config().logical_cores);
  }
  return out;
}

std::string RenderOpReport(const RunProfile& profile) {
  TablePrinter tp({"node", "op", "label", "time_ms", "tuples_in", "tuples_out",
                   "morsels", "p50_ms", "p95_ms", "tskew"});
  for (const auto& op : profile.ops) {
    // Per-morsel wall-time distribution through the registry's histogram
    // type: p50/p95 make a fat tail (one hot morsel) directly readable where
    // the old single max/mean figure only hinted at it. The max/mean skew
    // scalar still drives the mutator and the summary line below.
    std::string p50 = "-", p95 = "-";
    if (!op.morsels.empty()) {
      obs::Histogram h(obs::Histogram::LatencyBoundsNs());
      for (const auto& ms : op.morsels) h.Observe(ms.wall_ns);
      p50 = TablePrinter::Fmt(h.Percentile(0.50) / 1e6, 3);
      p95 = TablePrinter::Fmt(h.Percentile(0.95) / 1e6, 3);
    }
    tp.AddRow({std::to_string(op.node_id), OpKindName(op.kind), op.label,
               TablePrinter::Fmt(op.duration_ns() / 1e6, 3),
               std::to_string(op.tuples_in), std::to_string(op.tuples_out),
               std::to_string(op.num_morsels), p50, p95,
               op.morsel_tuple_skew > 0
                   ? TablePrinter::Fmt(op.morsel_tuple_skew, 2)
                   : "-"});
  }
  std::ostringstream os;
  os << tp.ToString();
  os << "makespan " << TablePrinter::Fmt(profile.makespan_ns / 1e6, 3)
     << " ms, utilization " << TablePrinter::Fmt(profile.utilization * 100, 1)
     << "%, max morsel skew "
     << TablePrinter::Fmt(profile.MaxMorselSkew(), 2) << " (tuple skew "
     << TablePrinter::Fmt(profile.MaxMorselTupleSkew(), 2) << ")\n";
  return os.str();
}

std::string RenderTomograph(const RunProfile& profile, int width) {
  // One row per core; each operator paints its kind's letter over its
  // execution interval. '.' = idle.
  char glyph[16];
  glyph[static_cast<int>(OpKind::kSelect)] = 'S';
  glyph[static_cast<int>(OpKind::kFetchJoin)] = 'F';
  glyph[static_cast<int>(OpKind::kJoin)] = 'J';
  glyph[static_cast<int>(OpKind::kGroupBy)] = 'G';
  glyph[static_cast<int>(OpKind::kAggregate)] = 'A';
  glyph[static_cast<int>(OpKind::kAggrMerge)] = 'M';
  glyph[static_cast<int>(OpKind::kExchangeUnion)] = 'U';
  glyph[static_cast<int>(OpKind::kMap)] = 'm';
  glyph[static_cast<int>(OpKind::kSort)] = 'O';
  glyph[static_cast<int>(OpKind::kTopN)] = 'T';
  glyph[static_cast<int>(OpKind::kResult)] = 'r';

  int max_core = 0;
  for (const auto& op : profile.ops) max_core = std::max(max_core, op.core);
  double span = profile.makespan_ns > 0 ? profile.makespan_ns : 1.0;

  std::vector<std::string> rows(max_core + 1, std::string(width, '.'));
  for (const auto& op : profile.ops) {
    if (op.core < 0 || op.kind == OpKind::kResult) continue;
    int b = static_cast<int>(op.start_ns / span * width);
    int e = static_cast<int>(op.end_ns / span * width);
    if (e <= b) e = b + 1;
    if (e > width) e = width;
    for (int x = b; x < e; ++x) rows[op.core][x] = glyph[static_cast<int>(op.kind)];
  }

  std::ostringstream os;
  os << "tomograph: makespan=" << profile.makespan_ns / 1e6
     << " ms, utilization=" << profile.utilization * 100 << "%\n";
  os << "  S=select F=fetchjoin J=join G=groupby A=aggr M=merge U=union "
        "m=map O=sort\n";
  for (size_t c = 0; c < rows.size(); ++c) {
    os << (c < 10 ? " core " : "core ") << c << " |" << rows[c] << "|\n";
  }
  return os.str();
}

}  // namespace apq

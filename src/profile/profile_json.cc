#include "profile/profile_json.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "exec/op_kind.h"

namespace apq {

namespace {

std::ostringstream MakeStream() {
  std::ostringstream os;
  os.precision(15);
  return os;
}

// JSON has no NaN/Infinity literals; clamp the (never-expected) cases to 0
// rather than emitting an unparseable document.
double Finite(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

double MorselWallPercentileNs(const OpProfile& op, double q) {
  if (op.morsels.empty()) return 0.0;
  std::vector<double> walls;
  walls.reserve(op.morsels.size());
  for (const auto& m : op.morsels) walls.push_back(m.wall_ns);
  std::sort(walls.begin(), walls.end());
  const double rank = q * static_cast<double>(walls.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, walls.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return walls[lo] + (walls[hi] - walls[lo]) * frac;
}

std::string OpProfileJson(const OpProfile& op) {
  std::ostringstream os = MakeStream();
  os << "{\"node_id\":" << op.node_id << ",\"kind\":\"" << OpKindName(op.kind)
     << "\",\"label\":\"";
  obs::JsonEscapeInto(os, op.label);
  os << "\",\"work_ns\":" << Finite(op.work_ns)
     << ",\"start_ns\":" << Finite(op.start_ns)
     << ",\"end_ns\":" << Finite(op.end_ns)
     << ",\"wall_ns\":" << Finite(op.duration_ns())
     << ",\"core\":" << op.core << ",\"tuples_in\":" << op.tuples_in
     << ",\"tuples_out\":" << op.tuples_out
     << ",\"peak_bytes\":" << op.peak_bytes << ",\"cpu_ns\":" << op.cpu_ns
     << ",\"queue_wait_ns\":" << op.queue_wait_ns
     << ",\"num_morsels\":" << op.num_morsels
     << ",\"morsel_skew\":" << Finite(op.morsel_skew)
     << ",\"morsel_tuple_skew\":" << Finite(op.morsel_tuple_skew)
     << ",\"morsel_wall_p50_ns\":" << Finite(MorselWallPercentileNs(op, 0.50))
     << ",\"morsel_wall_p95_ns\":" << Finite(MorselWallPercentileNs(op, 0.95))
     << ",\"morsels\":[";
  bool first = true;
  for (const auto& m : op.morsels) {
    if (!first) os << ",";
    os << "{\"tuples_in\":" << m.tuples_in << ",\"tuples_out\":" << m.tuples_out
       << ",\"wall_ns\":" << Finite(m.wall_ns) << ",\"worker\":" << m.worker
       << ",\"domain_begin\":" << m.domain_begin
       << ",\"domain_end\":" << m.domain_end << "}";
    first = false;
  }
  os << "]}";
  return os.str();
}

std::string RunProfileJson(const RunProfile& profile) {
  std::ostringstream os = MakeStream();
  os << "{\"makespan_ns\":" << Finite(profile.makespan_ns)
     << ",\"utilization\":" << Finite(profile.utilization) << ",\"ops\":[";
  bool first = true;
  for (const auto& op : profile.ops) {
    if (!first) os << ",";
    os << OpProfileJson(op);
    first = false;
  }
  os << "]}";
  return os.str();
}

std::string AdaptiveLineageJson(const AdaptiveRun& run,
                                const AdaptiveLineage& entry) {
  std::ostringstream os = MakeStream();
  os << "{\"run\":" << run.run << ",\"time_ns\":" << Finite(run.time_ns)
     << ",\"wall_ns\":" << Finite(run.wall_ns)
     << ",\"max_morsel_skew\":" << Finite(run.max_morsel_skew)
     << ",\"max_morsel_tuple_skew\":" << Finite(run.max_morsel_tuple_skew)
     << ",\"skew_hint_ops\":" << run.skew_hint_ops
     << ",\"victim\":" << entry.victim << ",\"action\":\"";
  obs::JsonEscapeInto(os, entry.action);
  os << "\",\"skew_aware\":" << (entry.skew_aware ? "true" : "false")
     << ",\"split_rows\":[";
  bool first = true;
  for (uint64_t row : entry.split_rows) {
    if (!first) os << ",";
    os << row;
    first = false;
  }
  os << "]}";
  return os.str();
}

std::string QueryProfileJson(const QueryProfileDoc& doc) {
  const obs::QueryRecord& r = doc.record;
  std::ostringstream os = MakeStream();
  os << "{\"query_id\":" << r.id << ",\"kind\":\"";
  obs::JsonEscapeInto(os, r.kind);
  os << "\",\"status\":\"";
  obs::JsonEscapeInto(os, r.status);
  os << "\",\"error\":\"";
  obs::JsonEscapeInto(os, r.error);
  // parallel_efficiency = cpu / (wall * workers): 1.0 = every worker busy
  // for the whole query; 0 when the denominator is unknown.
  const double denom = r.wall_ns * static_cast<double>(r.workers);
  const double efficiency = denom > 0 ? r.cpu_ns / denom : 0.0;
  os << "\",\"wall_ns\":" << Finite(r.wall_ns)
     << ",\"time_ns\":" << Finite(r.time_ns) << ",\"rows\":" << r.rows
     << ",\"runs\":" << r.runs << ",\"mutations\":" << r.mutations
     << ",\"peak_bytes\":" << r.peak_bytes
     << ",\"cpu_ns\":" << Finite(r.cpu_ns)
     << ",\"queue_wait_ns\":" << Finite(r.queue_wait_ns)
     << ",\"workers\":" << r.workers
     << ",\"parallel_efficiency\":" << Finite(efficiency)
     << ",\"adaptive\":";
  if (doc.adaptive == nullptr) {
    os << "null";
  } else {
    const AdaptiveOutcome& a = *doc.adaptive;
    os << "{\"serial_time_ns\":" << Finite(a.serial_time_ns)
       << ",\"gme_time_ns\":" << Finite(a.gme_time_ns)
       << ",\"gme_run\":" << a.gme_run << ",\"best_run\":" << a.best_run
       << ",\"best_time_ns\":" << Finite(a.best_time_ns)
       << ",\"total_runs\":" << a.total_runs
       << ",\"skew_mutations\":" << a.skew_mutations
       << ",\"speedup\":" << Finite(a.Speedup()) << "}";
  }
  os << ",\"lineage\":[";
  if (doc.adaptive != nullptr) {
    const AdaptiveOutcome& a = *doc.adaptive;
    for (size_t i = 0; i < a.lineage.size(); ++i) {
      if (i > 0) os << ",";
      os << AdaptiveLineageJson(a.runs[i], a.lineage[i]);
    }
  }
  os << "],\"profile\":";
  if (doc.profile == nullptr) {
    os << "null";
  } else {
    os << RunProfileJson(*doc.profile);
  }
  os << "}";
  return os.str();
}

}  // namespace apq

// Structured EXPLAIN-ANALYZE export: serializes run profiles and the
// adaptive-convergence lineage as JSON, so "what did this query do, which
// operators dominated, how skewed were their morsels, and what did
// adaptation change run-over-run" is answerable from one machine-readable
// document instead of by eyeballing trace dumps.
//
// The document schema (validated by tools/profile_check.py, served by the
// HTTP introspection endpoint as /debug/profile/<query-id>, and dumped at
// process exit via APQ_PROFILE=<path>):
//
//   {"query_id": 7, "kind": "adaptive", "status": "ok", "error": "",
//    "wall_ns": ..., "time_ns": ..., "rows": ..., "runs": R,
//    "mutations": M,
//    "peak_bytes": ..., "cpu_ns": ..., "queue_wait_ns": ...,
//    "workers": W, "parallel_efficiency": ...,   // cpu/(wall*W), 0 unknown
//    "adaptive": {"serial_time_ns":..., "gme_time_ns":..., "gme_run":...,
//                 "best_run":..., "best_time_ns":..., "total_runs": R,
//                 "skew_mutations":..., "speedup":...} | null,
//    "lineage": [{"run":0, "time_ns":..., "wall_ns":...,
//                 "max_morsel_skew":..., "max_morsel_tuple_skew":...,
//                 "skew_hint_ops":..., "victim":..., "action":"basic-skew",
//                 "skew_aware":true, "split_rows":[...]}, ...],   // R entries
//    -- lineage object i is run i's measurements (AdaptiveRun, "run"
//       through "skew_hint_ops") followed by the decision taken after it
//       (AdaptiveLineage, "victim" onward).
//    "profile": {"makespan_ns":..., "utilization":...,
//                "ops": [{"node_id":..., "kind":"select", "label":"...",
//                         "work_ns":..., "start_ns":..., "end_ns":...,
//                         "wall_ns":..., "core":..., "tuples_in":...,
//                         "tuples_out":..., "peak_bytes":..., "cpu_ns":...,
//                         "queue_wait_ns":..., "num_morsels":...,
//                         "morsel_skew":..., "morsel_tuple_skew":...,
//                         "morsel_wall_p50_ns":..., "morsel_wall_p95_ns":...,
//                         "morsels":[{"tuples_in":..., "tuples_out":...,
//                                     "wall_ns":..., "worker":...,
//                                     "domain_begin":...,
//                                     "domain_end":...}, ...]}]} | null}
//
// Conventions: the fields up to "workers" are the query's obs::QueryRecord,
// so /debug/queries and this document print the same values; "lineage" is
// [] and "adaptive" null for plain (non-adaptive) queries; "profile" is
// null when execution failed before producing one.
// Historical/GME profiles have their raw morsel histograms stripped
// (executor.h), so num_morsels > 0 with "morsels":[] is valid — the exact
// p50/p95 then serialize as 0.
#ifndef APQ_PROFILE_PROFILE_JSON_H_
#define APQ_PROFILE_PROFILE_JSON_H_

#include <cstdint>
#include <string>

#include "adaptive/executor.h"
#include "obs/query_log.h"
#include "profile/profiler.h"

namespace apq {

/// Exact (sorted, nearest-rank interpolated) percentile of an operator's
/// per-morsel wall times; 0 when the histogram is empty or stripped. Unlike
/// RenderOpReport's bucketed estimate this is exact — the JSON document is
/// for machines, not column alignment.
double MorselWallPercentileNs(const OpProfile& op, double q);

/// One operator as a JSON object (schema above).
std::string OpProfileJson(const OpProfile& op);

/// A whole run as a JSON object: makespan, utilization, "ops" array.
std::string RunProfileJson(const RunProfile& profile);

/// One lineage entry as a JSON object (schema above): `run`'s measurements,
/// then `entry`, the decision taken after that run.
std::string AdaptiveLineageJson(const AdaptiveRun& run,
                                const AdaptiveLineage& entry);

/// \brief Everything the engine knows about one finished query, bundled for
/// serialization: its record, and the profile and adaptive outcome it
/// borrows for the call's duration. Null `adaptive` means a plain plan
/// query, null `profile` means execution failed before a profile existed.
struct QueryProfileDoc {
  obs::QueryRecord record;  // profile_json is not read
  const RunProfile* profile = nullptr;
  const AdaptiveOutcome* adaptive = nullptr;
};

/// The full per-query document (schema above). "parallel_efficiency" is
/// record.cpu_ns / (record.wall_ns * record.workers), 0 when unknown.
std::string QueryProfileJson(const QueryProfileDoc& doc);

}  // namespace apq

#endif  // APQ_PROFILE_PROFILE_JSON_H_

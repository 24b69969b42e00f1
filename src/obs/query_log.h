// Recent-query introspection ring + process-wide query-id allocation.
//
// Every Engine query (RunPlan / RunAdaptive) draws one monotonically
// increasing id from NextQueryId(); the id is threaded — as the id of the
// query context the engine installs (obs/resource_tracker.h QueryScope) —
// into the trace spans (query / adaptive-run / execute span args), the
// adaptive lineage, and the per-query profile JSON, so a single id
// correlates every observability surface: grep the Chrome trace for
// a0 == id, curl /debug/profile/<id>, and read the same query.
//
// Completed (or failed) queries push a QueryRecord — summary scalars plus
// the pre-serialized profile JSON document — into the fixed-capacity global
// QueryLog ring. The record is the one home of a query's summary: the
// engine fills it once per query and renders the profile document from it
// (profile/profile_json.h QueryProfileDoc::record), so /debug/queries and
// /debug/profile/<id> cannot disagree. The HTTP exporter
// (obs/http_exporter.h) serves the ring as /debug/queries and
// /debug/profile/<id>, and a valid APQ_PROFILE=<path> dumps it as one JSON
// document at process exit, no HTTP required.
//
// The log deliberately stores *serialized* JSON: src/obs stays independent
// of the plan/profile layers (the engine serializes via
// profile/profile_json.h and hands the finished string down), and the
// exporter thread never touches live engine state — it only copies strings
// under the log's mutex.
#ifndef APQ_OBS_QUERY_LOG_H_
#define APQ_OBS_QUERY_LOG_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace apq {
namespace obs {

/// Draws the next process-wide query id (1, 2, 3, ...). Ids are never
/// reused; 0 means "no query".
uint64_t NextQueryId();

/// Writes `s` as the body of a JSON string: '"' and '\\' are escaped, and
/// each control character becomes a space. The query log, the profile
/// document and the Chrome trace all escape through this one routine.
void JsonEscapeInto(std::ostream& os, std::string_view s);

/// \brief One finished query, as the introspection surface remembers it.
struct QueryRecord {
  uint64_t id = 0;
  std::string kind = "plan"; // "plan" | "adaptive"
  std::string status = "ok"; // "ok" | "error"
  std::string error;         // status message when status == "error"
  double wall_ns = 0;        // hardware wall-clock of the whole invocation
  double time_ns = 0;        // simulated response time (0 on error)
  uint64_t rows = 0;         // result cardinality
  int runs = 1;              // adaptive runs executed (1 for a plain plan)
  int mutations = 0;         // runs that mutated the plan
  uint64_t peak_bytes = 0;   // peak charged bytes (obs/resource_tracker.h)
  double cpu_ns = 0;         // summed task/operator execution time
  double queue_wait_ns = 0;  // summed scheduler queue-wait
  /// Morsel-scheduler workers the query ran with (1 without a fleet; 0
  /// unknown): the parallel-efficiency denominator of the profile document,
  /// which the summary leaves out.
  int workers = 0;
  /// The full per-query JSON document served by /debug/profile/<id>
  /// (profile/profile_json.h schema).
  std::string profile_json;
};

/// Queries remembered by the ring; older records are evicted.
constexpr size_t kQueryLogCapacity = 64;

/// \brief Fixed-capacity ring of recent queries, mutex-protected (pushes
/// happen once per query, reads once per scrape — nowhere near a hot path).
class QueryLog {
 public:
  QueryLog() = default;
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// The process-wide log the engine records into.
  static QueryLog& Global();

  void Push(QueryRecord rec);

  /// Newest-first copies of the current records.
  std::vector<QueryRecord> Snapshot() const;

  /// Copies record `id`'s profile JSON into `*json`; false when evicted or
  /// never recorded.
  bool FindProfile(uint64_t id, std::string* json) const;

  /// {"queries":[{summary fields}...]} newest first — the /debug/queries
  /// body. Summaries exclude the (potentially large) profile documents.
  std::string SummaryJson() const;

  /// {"queries":[<full profile documents>]} oldest first — the APQ_PROFILE
  /// dump, schema-validated by tools/profile_check.py.
  std::string DumpJson() const;

  void Clear();  // tests

 private:
  mutable std::mutex mu_;
  std::deque<QueryRecord> recent_;  // oldest at front
};

}  // namespace obs
}  // namespace apq

#endif  // APQ_OBS_QUERY_LOG_H_

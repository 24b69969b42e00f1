// The query service's wire format: a deliberately tiny line-oriented
// protocol (one request line in, one response block out) so any client —
// the bench replayer, netcat, a CI script — can drive the engine without a
// client library.
//
// Request (one LF-terminated line per query, pipelining allowed):
//
//   RUN <query> [key=value ...]
//
// where <query> is a workload query name (TPC-H "Q4".."Q22", see
// workload/tpch.h) and the optional parameters are:
//
//   tag=<n>        decimal digits only (0..2^64-1; util/env.h ParseDecimal),
//                  echoed verbatim in the response header, so a client can
//                  correlate pipelined responses with requests
//   sel=<frac>     Q6 only: selectivity-controlled variant (Q6Selectivity)
//
// Response block:
//
//   OK id=<qid> tag=<n> kind=<kind> rows=<r> workers=<w> wall_ns=<ns>
//      queue_wait_ns=<ns>           (one header line, wrapped here)
//   ROW <v1> [<v2> [<v3>]]          (one line per result row)
//   END
//
// or, on failure, a typed single-line error followed by END:
//
//   ERR <type> tag=<n> <message>
//   END
//
// <type> is a machine-parseable token: SHED (admission queue full — retry
// later), PARSE (malformed request line), PLAN (unknown query name /
// bad parameter), EXEC (the engine failed; <message> carries the Status).
// Result rows serialize every value with enough precision that two
// responses are byte-identical iff the results are bit-identical — the
// service determinism tests diff the serialized form directly against
// Engine::RunPlan output.
#ifndef APQ_SERVICE_PROTOCOL_H_
#define APQ_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/intermediate.h"
#include "util/status.h"

namespace apq {
namespace service {

/// Typed error tokens (the <type> of an ERR line).
enum class ErrType { kShed, kParse, kPlan, kExec };
const char* ErrTypeName(ErrType t);

/// \brief One parsed request line.
struct Request {
  std::string query;          // e.g. "Q6"
  uint64_t tag = 0;           // client correlation tag (0 = none given)
  double sel = -1.0;          // sel=<frac> parameter (-1 = absent)
};

/// Parses "RUN <query> [key=value ...]". Unknown keys are rejected (a typo
/// silently ignored would be a misconfiguration, the house hardening rule).
Status ParseRequest(const std::string& line, Request* out);

/// Serializes one query result as the ROW lines of a response block
/// (excluding the OK header and END trailer). Deterministic: bit-identical
/// intermediates produce byte-identical text, making the wire form directly
/// diffable for the determinism tests.
std::string SerializeResult(const Intermediate& result);

/// The full OK response block: header + ROW lines + END.
std::string OkResponse(uint64_t query_id, uint64_t tag, int workers,
                       double wall_ns, double queue_wait_ns,
                       const Intermediate& result);

/// The full ERR response block: "ERR <type> tag=<n> <message>\nEND\n".
/// Newlines inside `message` are flattened to spaces so the block stays
/// line-parseable.
std::string ErrResponse(ErrType type, uint64_t tag, const std::string& message);

}  // namespace service
}  // namespace apq

#endif  // APQ_SERVICE_PROTOCOL_H_

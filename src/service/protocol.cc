#include "service/protocol.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/env.h"

namespace apq {
namespace service {

namespace {

// %.17g round-trips every double exactly, so serialized results are
// byte-identical iff the values are bit-identical.
void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

void AppendInt(std::string* out, int64_t v) {
  out->append(std::to_string(v));
}

bool ParseFrac(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  if (!(v >= 0.0 && v <= 1.0)) return false;  // NaN fails too
  *out = v;
  return true;
}

}  // namespace

const char* ErrTypeName(ErrType t) {
  switch (t) {
    case ErrType::kShed: return "SHED";
    case ErrType::kParse: return "PARSE";
    case ErrType::kPlan: return "PLAN";
    case ErrType::kExec: return "EXEC";
  }
  return "?";
}

Status ParseRequest(const std::string& line, Request* out) {
  *out = Request();
  std::istringstream is(line);
  std::string verb;
  if (!(is >> verb) || verb != "RUN") {
    return Status::InvalidArgument("expected 'RUN <query> [key=value ...]'");
  }
  if (!(is >> out->query)) {
    return Status::InvalidArgument("RUN without a query name");
  }
  std::string kv;
  while (is >> kv) {
    const size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("malformed parameter '" + kv +
                                     "' (expected key=value)");
    }
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    if (key == "tag") {
      if (!ParseDecimal(val.c_str(), 0, UINT64_MAX, &out->tag)) {
        return Status::InvalidArgument("bad tag '" + val + "'");
      }
    } else if (key == "sel") {
      if (!ParseFrac(val, &out->sel)) {
        return Status::InvalidArgument("bad sel '" + val +
                                       "' (expected a fraction in [0,1])");
      }
    } else {
      return Status::InvalidArgument("unknown parameter '" + key + "'");
    }
  }
  return Status::OK();
}

std::string SerializeResult(const Intermediate& result) {
  std::string out;
  out.reserve(result.NumRows() * 16 + 16);
  switch (result.kind) {
    case Intermediate::Kind::kScalar:
      out.append("ROW ");
      AppendDouble(&out, result.scalar);
      out.push_back(' ');
      AppendInt(&out, result.scalar_count);
      out.push_back('\n');
      break;
    case Intermediate::Kind::kGroupedAgg:
      for (uint64_t g = 0; g < result.agg_vals.size(); ++g) {
        out.append("ROW ");
        if (result.group_keys.is_f64()) {
          AppendDouble(&out, result.group_keys.f64[g]);
        } else {
          AppendInt(&out, result.group_keys.i64[g]);
        }
        out.push_back(' ');
        AppendDouble(&out, result.agg_vals[g]);
        out.push_back(' ');
        AppendInt(&out, result.agg_counts[g]);
        out.push_back('\n');
      }
      break;
    case Intermediate::Kind::kValues:
      for (uint64_t i = 0; i < result.values.size(); ++i) {
        out.append("ROW ");
        if (result.values.is_f64()) {
          AppendDouble(&out, result.values.f64[i]);
        } else {
          AppendInt(&out, result.values.i64[i]);
        }
        if (i < result.head.size()) {
          out.push_back(' ');
          AppendInt(&out, static_cast<int64_t>(result.head[i]));
        }
        out.push_back('\n');
      }
      break;
    case Intermediate::Kind::kRowIds:
      for (const oid id : result.rowids) {
        out.append("ROW ");
        AppendInt(&out, static_cast<int64_t>(id));
        out.push_back('\n');
      }
      break;
    case Intermediate::Kind::kPairs:
      for (uint64_t i = 0; i < result.rowids.size(); ++i) {
        out.append("ROW ");
        AppendInt(&out, static_cast<int64_t>(result.rowids[i]));
        out.push_back(' ');
        AppendInt(&out, static_cast<int64_t>(result.rrowids[i]));
        out.push_back('\n');
      }
      break;
    case Intermediate::Kind::kGroups:
      for (uint64_t i = 0; i < result.group_ids.size(); ++i) {
        out.append("ROW ");
        AppendInt(&out, result.group_ids[i]);
        out.push_back('\n');
      }
      break;
    case Intermediate::Kind::kNone:
      break;
  }
  return out;
}

std::string OkResponse(uint64_t query_id, uint64_t tag, int workers,
                       double wall_ns, double queue_wait_ns,
                       const Intermediate& result) {
  std::string out = "OK id=" + std::to_string(query_id) +
                    " tag=" + std::to_string(tag) +
                    " kind=" + Intermediate::KindName(result.kind) +
                    " rows=" + std::to_string(result.NumRows()) +
                    " workers=" + std::to_string(workers) + " wall_ns=";
  AppendDouble(&out, wall_ns);
  out.append(" queue_wait_ns=");
  AppendDouble(&out, queue_wait_ns);
  out.push_back('\n');
  out.append(SerializeResult(result));
  out.append("END\n");
  return out;
}

std::string ErrResponse(ErrType type, uint64_t tag,
                        const std::string& message) {
  std::string flat = message;
  for (char& c : flat) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return std::string("ERR ") + ErrTypeName(type) +
         " tag=" + std::to_string(tag) + " " + flat + "\nEND\n";
}

}  // namespace service
}  // namespace apq

#include "obs/query_log.h"

#include <atomic>
#include <sstream>

namespace apq {
namespace obs {

namespace {

std::atomic<uint64_t> g_next_query_id{1};

void AppendSummary(std::ostringstream& os, const QueryRecord& r) {
  os.precision(15);
  os << "{\"id\":" << r.id << ",\"kind\":\"";
  JsonEscapeInto(os, r.kind);
  os << "\",\"status\":\"";
  JsonEscapeInto(os, r.status);
  os << "\",\"error\":\"";
  JsonEscapeInto(os, r.error);
  os << "\",\"wall_ns\":" << r.wall_ns << ",\"time_ns\":" << r.time_ns
     << ",\"rows\":" << r.rows << ",\"runs\":" << r.runs
     << ",\"mutations\":" << r.mutations
     << ",\"peak_bytes\":" << r.peak_bytes << ",\"cpu_ns\":" << r.cpu_ns
     << ",\"queue_wait_ns\":" << r.queue_wait_ns << "}";
}

}  // namespace

uint64_t NextQueryId() {
  return g_next_query_id.fetch_add(1, std::memory_order_relaxed);
}

void JsonEscapeInto(std::ostream& os, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
}

QueryLog& QueryLog::Global() {
  static QueryLog* g = new QueryLog();  // leaked: atexit dumps still read it
  return *g;
}

void QueryLog::Push(QueryRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  recent_.push_back(std::move(rec));
  while (recent_.size() > kQueryLogCapacity) recent_.pop_front();
}

std::vector<QueryRecord> QueryLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<QueryRecord>(recent_.rbegin(), recent_.rend());
}

bool QueryLog::FindProfile(uint64_t id, std::string* json) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = recent_.rbegin(); it != recent_.rend(); ++it) {
    if (it->id == id) {
      *json = it->profile_json;
      return true;
    }
  }
  return false;
}

std::string QueryLog::SummaryJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"queries\":[";
  bool first = true;
  for (auto it = recent_.rbegin(); it != recent_.rend(); ++it) {
    if (!first) os << ",";
    AppendSummary(os, *it);
    first = false;
  }
  os << "]}";
  return os.str();
}

std::string QueryLog::DumpJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"queries\":[";
  bool first = true;
  for (const QueryRecord& r : recent_) {
    if (!first) os << ",\n";
    // Records always carry a document (the engine serializes one even for
    // failed queries); guard anyway so a hand-pushed record cannot corrupt
    // the dump.
    if (r.profile_json.empty()) {
      AppendSummary(os, r);
    } else {
      os << r.profile_json;
    }
    first = false;
  }
  os << "]}";
  return os.str();
}

void QueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  recent_.clear();
}

}  // namespace obs
}  // namespace apq

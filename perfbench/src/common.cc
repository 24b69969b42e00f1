#include "common.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sched.h>
#include <sys/resource.h>

#include "exec/simd/simd_ops.h"
#include "obs/metrics.h"
#include "sched/morsel_scheduler.h"

namespace perfbench {

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty() || s[0] == '-' || s[0] == '+') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size() || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

// %.17g round-trips a double, so every digit the run measured is kept.
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Short(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double TimevalNs(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e9 +
         static_cast<double>(tv.tv_usec) * 1e3;
}

}  // namespace

std::string ParseOptions(int argc, char** argv, Options* out) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return "missing value for " + flag;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (value != "tpch" && value != "serve") {
        return "unknown workload '" + value + "' (tpch or serve)";
      }
      out->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseU64(value, &out->seed)) return "bad --seed '" + value + "'";
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseDouble(value, &out->seconds) || out->seconds <= 0 ||
          out->seconds > 600) {
        return "bad --seconds '" + value + "' (want 0 < s <= 600)";
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return "bad --trace '" + value + "'";
      out->trace = value == "1";
    } else if (flag == "--trace-out") {
      out->trace_out = value;
    } else {
      return "unknown flag " + flag;
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    return "--workload, --seed and --seconds are required";
  }
  return "";
}

// ---- Tally ------------------------------------------------------------------

void Tally::Merge(const Tally& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const auto& [reason, n] : other.reasons_) reasons_[reason] += n;
}

uint64_t Tally::wrong() const {
  auto it = reasons_.find(kWrongResult);
  return it == reasons_.end() ? 0 : it->second;
}

// ---- response parsing -------------------------------------------------------

bool ParseOkHeader(const std::string& line, OkHeader* out) {
  std::istringstream in(line);
  std::string tok;
  if (!(in >> tok) || tok != "OK") return false;
  OkHeader h;
  int seen = 0;
  while (in >> tok) {
    const size_t eq = tok.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    uint64_t u = 0;
    bool ok = true;
    if (key == "id") {
      ok = ParseU64(value, &h.id);
    } else if (key == "tag") {
      ok = ParseU64(value, &h.tag);
    } else if (key == "kind") {
      ok = !value.empty();
      h.kind = value;
    } else if (key == "rows") {
      ok = ParseU64(value, &h.rows);
    } else if (key == "workers") {
      ok = ParseU64(value, &u) && u < 1u << 20;
      h.workers = static_cast<int>(u);
    } else if (key == "wall_ns") {
      ok = ParseDouble(value, &h.wall_ns) && h.wall_ns >= 0;
    } else if (key == "queue_wait_ns") {
      ok = ParseDouble(value, &h.queue_wait_ns) && h.queue_wait_ns >= 0;
    } else {
      continue;  // a field added later does not break the client
    }
    if (!ok) return false;
    ++seen;
  }
  if (seen != 7) return false;
  *out = h;
  return true;
}

std::string CheckResponse(const std::string& block,
                          const std::string& expected_rows, OkHeader* header) {
  const size_t nl = block.find('\n');
  if (nl == std::string::npos) return "malformed";
  const std::string first = block.substr(0, nl);
  if (first.rfind("ERR ", 0) == 0) {
    const size_t sp = first.find(' ', 4);
    return "ERR " + first.substr(4, sp == std::string::npos ? sp : sp - 4);
  }
  if (!ParseOkHeader(first, header)) return "malformed";
  const std::string body = block.substr(nl + 1);
  constexpr const char* kEnd = "END\n";
  if (body.size() < 4 || body.compare(body.size() - 4, 4, kEnd) != 0) {
    return "malformed";
  }
  const std::string rows = body.substr(0, body.size() - 4);
  uint64_t lines = 0;
  for (char c : rows) lines += c == '\n';
  if (lines != header->rows) return "malformed";
  return rows == expected_rows ? "" : kWrongResult;
}

// ---- operator profiles ------------------------------------------------------

void OpTotals::Add(const std::string& kind, double cpu_ns, double tuples_in) {
  auto& t = by_kind[kind];
  t.first += cpu_ns;
  t.second += tuples_in;
}

double OpTotals::NsPerRow(const std::string& kind) const {
  auto it = by_kind.find(kind);
  return it == by_kind.end() || !(it->second.second > 0)
             ? 0
             : it->second.first / it->second.second;
}

int AddProfileOps(const std::string& doc, OpTotals* out) {
  // Each operator object starts with "node_id" and lists kind, tuples_in and
  // cpu_ns before its "morsels" array, whose entries carry their own
  // tuples_in; so each field is taken from before the operator's morsels.
  static const std::string kOp = "{\"node_id\":";
  auto number_after = [&doc](const std::string& key, size_t from, size_t to,
                             double* v) {
    const size_t at = doc.find(key, from);
    if (at == std::string::npos || at >= to) return false;
    const char* begin = doc.c_str() + at + key.size();
    char* end = nullptr;
    *v = std::strtod(begin, &end);
    return end != begin && std::isfinite(*v);
  };
  int found = 0;
  size_t pos = doc.find(kOp);
  while (pos != std::string::npos) {
    const size_t next = doc.find(kOp, pos + 1);
    size_t stop = doc.find("\"morsels\":", pos);
    stop = std::min(stop, next);
    const std::string kind_key = "\"kind\":\"";
    const size_t k = doc.find(kind_key, pos);
    double tuples = 0, cpu = 0;
    if (k != std::string::npos && k < stop &&
        number_after("\"tuples_in\":", pos, stop, &tuples) &&
        number_after("\"cpu_ns\":", pos, stop, &cpu)) {
      const size_t kb = k + kind_key.size();
      const size_t ke = doc.find('"', kb);
      if (ke != std::string::npos && ke < stop) {
        out->Add(doc.substr(kb, ke - kb), cpu, tuples);
        ++found;
      }
    }
    pos = next;
  }
  return found;
}

// ---- snapshots --------------------------------------------------------------

Usage ReadUsage() {
  rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.minflt = static_cast<double>(ru.ru_minflt);
  u.nvcsw = static_cast<double>(ru.ru_nvcsw);
  u.utime_ns = TimevalNs(ru.ru_utime);
  u.stime_ns = TimevalNs(ru.ru_stime);
  return u;
}

Usage operator-(const Usage& a, const Usage& b) {
  Usage d;
  d.minflt = a.minflt - b.minflt;
  d.nvcsw = a.nvcsw - b.nvcsw;
  d.utime_ns = a.utime_ns - b.utime_ns;
  d.stime_ns = a.stime_ns - b.stime_ns;
  return d;
}

double PeakRssMb() {
  rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

SchedSnap ReadSched(const apq::MorselScheduler& sched) {
  SchedSnap s;
  for (const auto& w : sched.worker_stats()) {
    s.steals += static_cast<double>(w.steals);
    s.busy_ns += static_cast<double>(w.busy_ns);
  }
  s.tasks = static_cast<double>(sched.total_tasks());
  s.busy_ns += static_cast<double>(sched.caller_busy_ns());
  return s;
}

SchedSnap ReadSchedRegistry(int workers) {
  auto& reg = apq::obs::MetricsRegistry::Global();
  SchedSnap s;
  s.tasks =
      static_cast<double>(reg.GetCounter("apq_sched_tasks_total")->Value());
  s.steals =
      static_cast<double>(reg.GetCounter("apq_sched_steals_total")->Value());
  for (int i = 0; i < workers; ++i) {
    s.busy_ns += static_cast<double>(
        reg.GetCounter("apq_sched_worker_busy_ns_total{worker=\"" +
                       std::to_string(i) + "\"}")
            ->Value());
  }
  return s;
}

SchedSnap operator-(const SchedSnap& a, const SchedSnap& b) {
  SchedSnap d;
  d.tasks = a.tasks - b.tasks;
  d.steals = a.steals - b.steals;
  d.busy_ns = a.busy_ns - b.busy_ns;
  return d;
}

// ---- SpanLog ----------------------------------------------------------------

uint64_t SpanLog::Add(const std::string& name, uint64_t parent,
                      uint64_t request, double start_ns, double end_ns,
                      bool derived) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.id = next_id_++;
  s.parent = parent;
  s.request = request;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.derived = derived;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

uint64_t SpanLog::NewRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

std::vector<Span> SpanLog::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, std::vector<double>> SpanLog::SelfTimes() const {
  const std::vector<Span> spans = Spans();
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>> iv;
    for (const Span* c : children[s.id]) {
      const double a = std::max(c->start_ns, s.start_ns);
      const double b = std::min(c->end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, run_a = 0, run_b = -1;
    for (const auto& [a, b] : iv) {
      if (a > run_b) {
        if (run_b > run_a) covered += run_b - run_a;
        run_a = a;
        run_b = b;
      } else {
        run_b = std::max(run_b, b);
      }
    }
    if (run_b > run_a) covered += run_b - run_a;
    out[s.name].push_back((s.end_ns - s.start_ns) - covered);
  }
  return out;
}

bool SpanLog::Write(const std::string& path, const std::string& facts) const {
  const std::vector<Span> spans = Spans();
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"facts\":{" << facts << "},\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << (i ? ",\n" : "\n") << "{\"name\":" << JsonString(s.name)
      << ",\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"request\":" << s.request << ",\"start_ns\":" << Num(s.start_ns)
      << ",\"end_ns\":" << Num(s.end_ns)
      << ",\"derived\":" << (s.derived ? "true" : "false") << "}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

// ---- Report -----------------------------------------------------------------

void Report::Fact(const std::string& key, const std::string& value) {
  facts_.emplace_back(key, value);
}

void Report::Add(Kind kind, const std::string& name, const std::string& unit,
                 double value, const std::vector<double>* samples) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.value = value;
  m.kind = kind;
  if (samples != nullptr) {
    m.samples = samples->size();
    m.tail = TailPercentile(*samples);
  }
  metrics_.push_back(std::move(m));
}

void Report::EndToEnd(const std::string& name, const std::string& unit,
                      double value, const std::vector<double>* samples) {
  Add(Kind::kEndToEnd, name, unit, value, samples);
}

void Report::Layer(const std::string& name, const std::string& unit,
                   double value, const std::vector<double>* samples) {
  Add(Kind::kLayer, name, unit, value, samples);
}

void Report::Info(const std::string& name, const std::string& unit,
                  double value, const std::vector<double>* samples) {
  Add(Kind::kInfo, name, unit, value, samples);
}

std::string Report::FactsJson() const {
  std::string out;
  for (const auto& [k, v] : facts_) {
    if (!out.empty()) out += ",";
    out += JsonString(k) + ":" + JsonString(v);
  }
  return out;
}

bool Report::Print(std::FILE* out, bool traced, const Tally& tally) const {
  for (const auto& [k, v] : facts_) {
    std::fprintf(out, "fact   %s=%s\n", k.c_str(), v.c_str());
  }
  for (const Metric& m : metrics_) {
    std::string extra;
    if (m.samples > 0) {
      extra = "  n=" + std::to_string(m.samples);
      if (m.tail.found) {
        extra += "  p" + Short(m.tail.q * 100) + "=" + Short(m.tail.value);
      } else {
        extra += "  (no percentile has 10 samples beyond)";
      }
    }
    const char* kind = m.kind == Kind::kEndToEnd ? "e2e"
                       : m.kind == Kind::kLayer  ? "layer"
                                                 : "info";
    std::fprintf(out, "%-6s %-34s %14s %-6s%s\n", kind, m.name.c_str(),
                 Short(m.value).c_str(), m.unit.c_str(), extra.c_str());
  }
  std::fprintf(out, "ops    attempted=%" PRIu64 " failed=%" PRIu64 "\n",
               tally.attempted(), tally.failed());
  for (const auto& [reason, n] : tally.reasons()) {
    std::fprintf(out, "fail   %s=%" PRIu64 "\n", reason.c_str(), n);
  }

  std::string metrics;
  for (const Metric& m : metrics_) {
    if (m.kind != (traced ? Kind::kLayer : Kind::kEndToEnd)) continue;
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return false;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + Num(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  const bool correct = tally.attempted() > 0 && tally.wrong() == 0;
  std::fprintf(out,
               "{\"correct\": %s, \"attempted\": %" PRIu64
               ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
               correct ? "true" : "false", tally.attempted(), tally.failed(),
               metrics.c_str());
  std::fflush(out);
  return true;
}

namespace {
std::vector<double> ToMs(const std::vector<double>& ns) {
  std::vector<double> ms;
  ms.reserve(ns.size());
  for (double v : ns) ms.push_back(v / 1e6);
  return ms;
}
}  // namespace

void EndToEndClassMs(Report* r, const std::string& name, const ByQuery& lat,
                     const std::vector<std::string>& queries) {
  const std::vector<double> ms = ToMs(Pooled(lat, queries));
  r->EndToEnd(name, "ms", GeoMeanOfMedians(lat, queries) / 1e6, &ms);
}

void InfoMs(Report* r, const std::string& name,
            const std::vector<double>& samples_ns, double q) {
  const std::vector<double> ms = ToMs(samples_ns);
  r->Info(name, "ms", Percentile(ms, q), &ms);
}

void AddHostFacts(Report* r, const Options& opt) {
  r->Fact("workload", opt.workload);
  r->Fact("seed", std::to_string(opt.seed));
  r->Fact("seconds", Short(opt.seconds));
  r->Fact("traced", opt.trace ? "1" : "0");
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc =
      sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  r->Fact("nproc", std::to_string(nproc));
  r->Fact("simd",
          apq::simd::LevelName(
              apq::simd::Resolve(apq::simd::SimdLevel::kAuto).level));
}

}  // namespace perfbench

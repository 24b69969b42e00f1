#include "obs/trace.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "util/env.h"

namespace apq {
namespace obs {

namespace internal {
std::atomic<bool> g_trace_enabled{false};
}  // namespace internal

namespace {

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One thread's ring. Owned by a shared_ptr held both thread_locally (writer)
// and by the global registry (reader), so buffers survive thread exit and
// drains never race a destructor.
struct ThreadRing {
  TraceEvent ring[kTraceRingCapacity];
  std::atomic<uint64_t> head{0};  // total events ever written
  uint32_t tid = 0;
};

struct RingRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadRing>> rings;
  std::atomic<uint32_t> next_tid{1};
  // Calibration anchor: (ticks, steady ns) captured at registry creation;
  // the exporter takes a second sample to solve ns-per-tick.
  uint64_t anchor_ticks = 0;
  uint64_t anchor_ns = 0;
};

RingRegistry& Registry() {
  static RingRegistry* g = [] {
    auto* r = new RingRegistry();  // leaked: atexit exporters still drain it
    r->anchor_ticks = TraceTicks();
    r->anchor_ns = SteadyNowNs();
    return r;
  }();
  return *g;
}

ThreadRing* LocalRing() {
  thread_local std::shared_ptr<ThreadRing> ring = [] {
    auto r = std::make_shared<ThreadRing>();
    RingRegistry& reg = Registry();
    r->tid = reg.next_tid.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.rings.push_back(r);
    return r;
  }();
  return ring.get();
}

void Emit(const TraceEvent& e) {
  ThreadRing* r = LocalRing();
  const uint64_t h = r->head.load(std::memory_order_relaxed);
  TraceEvent slot = e;
  slot.tid = r->tid;
  r->ring[h % kTraceRingCapacity] = slot;
  r->head.store(h + 1, std::memory_order_release);
}

// Converts raw ticks to microseconds relative to the calibration anchor.
struct TickConverter {
  uint64_t anchor_ticks;
  double us_per_tick;
  double ToUs(uint64_t ticks) const {
    return ticks >= anchor_ticks
               ? static_cast<double>(ticks - anchor_ticks) * us_per_tick
               : -static_cast<double>(anchor_ticks - ticks) * us_per_tick;
  }
};

TickConverter MakeConverter() {
  RingRegistry& reg = Registry();
  const uint64_t t1 = TraceTicks();
  const uint64_t n1 = SteadyNowNs();
  const uint64_t dt = t1 > reg.anchor_ticks ? t1 - reg.anchor_ticks : 0;
  const uint64_t dn = n1 > reg.anchor_ns ? n1 - reg.anchor_ns : 0;
  double ns_per_tick = 1.0;  // non-TSC clocks already tick in ns
  if (dt > 0 && dn > 0) ns_per_tick = static_cast<double>(dn) /
                                      static_cast<double>(dt);
  return TickConverter{reg.anchor_ticks, ns_per_tick / 1000.0};
}

Status WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open '" + path +
                                   "': " + std::strerror(errno));
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (written != body.size()) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

// The at-exit export targets, probed once (util/env.h). "" = off.
struct ExportPaths {
  std::string trace, metrics, profile;
};

const ExportPaths& EnvExportPaths() {
  static const ExportPaths paths{EnvPath("APQ_TRACE"), EnvPath("APQ_METRICS"),
                                 EnvPath("APQ_PROFILE")};
  return paths;
}

// An export that fails at exit warns; it never changes the exit status.
void ExportOrWarn(const char* what, const std::string& path,
                  const std::string& body) {
  Status st = WriteFile(path, body);
  if (!st.ok()) {
    std::fprintf(stderr, "apq: %s export failed: %s\n", what,
                 st.ToString().c_str());
  }
}

void ExportAtExit() {
  const ExportPaths& p = EnvExportPaths();
  if (!p.trace.empty()) ExportOrWarn("trace", p.trace, ChromeTraceJson());
  if (!p.metrics.empty()) {
    // A ".json" suffix selects registry JSON; anything else Prometheus text.
    const bool json = p.metrics.size() >= 5 &&
                      p.metrics.rfind(".json") == p.metrics.size() - 5;
    ExportOrWarn("metrics", p.metrics,
                 json ? MetricsRegistry::Global().ToJson()
                      : MetricsRegistry::Global().ToPrometheus());
  }
  if (!p.profile.empty()) {
    ExportOrWarn("profile", p.profile, QueryLog::Global().DumpJson());
  }
}

}  // namespace

const char* SpanKindName(SpanKind k) {
  switch (k) {
    case SpanKind::kQuery: return "query";
    case SpanKind::kRun: return "run";
    case SpanKind::kOperator: return "operator";
    case SpanKind::kMorsel: return "morsel";
    case SpanKind::kSteal: return "steal";
    case SpanKind::kMutation: return "mutation";
    case SpanKind::kScheduler: return "scheduler";
  }
  return "?";
}

uint64_t TraceTicks() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return SteadyNowNs();
#endif
}

void SetTraceEnabled(bool on) {
  if (on) Registry();  // pin the calibration anchor before the first span
  internal::g_trace_enabled.store(on, std::memory_order_relaxed);
}

void EmitSpan(SpanKind kind, const char* name, uint64_t start_ticks,
              uint64_t end_ticks, int64_t a0, int64_t a1, int64_t a2) {
  if (!TraceEnabled()) return;
  TraceEvent e;
  e.start_ticks = start_ticks;
  e.end_ticks = end_ticks >= start_ticks ? end_ticks : start_ticks;
  e.name = name;
  e.kind = kind;
  e.a0 = a0;
  e.a1 = a1;
  e.a2 = a2;
  Emit(e);
}

void EmitInstant(SpanKind kind, const char* name, int64_t a0, int64_t a1,
                 int64_t a2) {
  if (!TraceEnabled()) return;
  const uint64_t t = TraceTicks();
  EmitSpan(kind, name, t, t, a0, a1, a2);
}

std::vector<TraceEvent> DrainEvents(uint64_t* dropped) {
  RingRegistry& reg = Registry();
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    rings = reg.rings;
  }
  std::vector<TraceEvent> out;
  uint64_t lost = 0;
  for (const auto& r : rings) {
    const uint64_t head = r->head.load(std::memory_order_acquire);
    const uint64_t n = head < kTraceRingCapacity ? head : kTraceRingCapacity;
    lost += head - n;
    // Oldest-first: the ring holds events [head - n, head).
    for (uint64_t i = head - n; i < head; ++i) {
      const TraceEvent& e = r->ring[i % kTraceRingCapacity];
      if (e.name == nullptr) continue;  // torn/unwritten slot
      out.push_back(e);
    }
  }
  if (dropped != nullptr) *dropped = lost;
  return out;
}

std::string ChromeTraceJson() {
  uint64_t dropped = 0;
  const std::vector<TraceEvent> events = DrainEvents(&dropped);
  const TickConverter conv = MakeConverter();
  std::ostringstream os;
  // Default stream precision is 6 significant digits: a ts of 1000167.244 µs
  // would round to 1000170 while its dur kept sub-µs precision, making
  // sequential spans appear to overlap in long traces. 15 digits keeps ts
  // exact over any realistic run length.
  os.precision(15);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    const double ts = conv.ToUs(e.start_ticks);
    if (ts < 0) continue;  // predates the calibration anchor: unconvertible
    os << (first ? "" : ",\n") << "{\"ph\":\""
       << (e.end_ticks > e.start_ticks ? 'X' : 'i') << "\",\"name\":\"";
    JsonEscapeInto(os, e.name);
    os << "\",\"cat\":\"" << SpanKindName(e.kind) << "\",\"pid\":1,\"tid\":"
       << e.tid << ",\"ts\":" << ts;
    if (e.end_ticks > e.start_ticks) {
      os << ",\"dur\":" << conv.ToUs(e.end_ticks) - ts;
    } else {
      os << ",\"s\":\"t\"";  // thread-scoped instant
    }
    os << ",\"args\":{\"a0\":" << e.a0 << ",\"a1\":" << e.a1
       << ",\"a2\":" << e.a2 << "}}";
    first = false;
  }
  os << "],\"metadata\":{\"apq_dropped_events\":" << dropped << "}}";
  return os.str();
}

Status WriteChromeTrace(const std::string& path) {
  return WriteFile(path, ChromeTraceJson());
}

void ClearTraceBuffers() {
  RingRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& r : reg.rings) {
    // Resetting head is enough: DrainEvents only reads [head - n, head), and
    // stale slots past the new head are unreachable until overwritten.
    r->head.store(0, std::memory_order_release);
    for (auto& slot : r->ring) slot.name = nullptr;
  }
}

void InitFromEnv() {
  static const bool once = [] {
    const ExportPaths& p = EnvExportPaths();
    if (!p.trace.empty()) SetTraceEnabled(true);
    if (!p.trace.empty() || !p.metrics.empty() || !p.profile.empty()) {
      std::atexit(ExportAtExit);
    }
    InitHttpFromEnv();
    return true;
  }();
  (void)once;
}

}  // namespace obs
}  // namespace apq

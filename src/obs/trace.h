// Always-on span tracer: the paper's tomograph (Figs 19/20), for real.
//
// Every worker thread records spans (query / adaptive-run / operator /
// morsel-batch) and instant events (steals, mutations, skew re-partitions)
// into a lock-free per-thread fixed-capacity ring buffer; a post-run drain
// exports them as Chrome trace-event JSON, loadable in Perfetto or
// chrome://tracing.
//
// Cost contract:
//   - Tracing disabled (the default): every span site is ONE relaxed atomic
//     load + branch. No clock reads, no stores, no allocation.
//   - Tracing enabled: two TSC reads + one ring slot store per span. Morsel
//     spans are additionally sampled (every 8th morsel by deterministic
//     morsel index) so sub-microsecond tasks stay cheap.
//   - Tracing NEVER perturbs results: it only observes timings. Differential
//     tests assert bit-identical output with tracing on/off.
//
// Ring buffers are single-writer (the owning thread) / snapshot-reader: the
// writer publishes each slot with a release store of the head; the drain
// reads heads with acquire loads. A drain concurrent with active writers can
// observe a torn in-flight slot — drains are documented post-run
// (quiescent) operations, and the exporter drops obviously invalid slots.
//
// Clocking: raw TSC on x86-64 (rdtsc, ~20 cycles, monotonic on every
// invariant-TSC CPU this code targets), steady_clock elsewhere. Ticks are
// converted to wall nanoseconds at export time by two-point calibration
// against steady_clock, so the hot path never multiplies.
#ifndef APQ_OBS_TRACE_H_
#define APQ_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace apq {
namespace obs {

/// \brief Event category; becomes the Chrome trace "cat" field.
enum class SpanKind : uint8_t {
  kQuery = 0,     // one Engine::RunPlan / RunAdaptive invocation
  kRun,           // one adaptive-loop iteration (execute + profile + mutate)
  kOperator,      // one plan-node execution
  kMorsel,        // one (sampled) morsel task
  kSteal,         // instant: a worker stole a task (a0=thief, a1=victim)
  kMutation,      // instant: plan mutation / skew re-partition split point
  kScheduler,     // scheduler-internal spans
};

/// Chrome trace category name for a kind (static storage).
const char* SpanKindName(SpanKind k);

/// \brief One ring-buffer slot. POD; `name` must point to static-storage
/// strings (operator kind names, literal labels) — the exporter reads it
/// long after the emitting scope died, and escapes it with
/// obs::JsonEscapeInto (obs/query_log.h). Names hold no control characters,
/// which that escaper would turn into spaces.
struct TraceEvent {
  uint64_t start_ticks = 0;
  uint64_t end_ticks = 0;  // == start_ticks for instant events
  const char* name = nullptr;
  SpanKind kind = SpanKind::kOperator;
  uint32_t tid = 0;  // small per-thread id (assigned at first emit)
  int64_t a0 = 0, a1 = 0, a2 = 0;  // event args (node id, tuples, ...)
};

/// Events kept per thread; oldest are overwritten (dropped counts are
/// reported by Drain). 8192 events x ~64B = 512KB per recording thread.
constexpr size_t kTraceRingCapacity = 8192;

/// Morsel spans are recorded when (morsel_index & kMorselSampleMask) == 0.
constexpr uint64_t kMorselSampleMask = 7;

/// Raw timestamp: TSC on x86-64, steady_clock ns elsewhere.
uint64_t TraceTicks();

/// The one branch every disabled span site pays.
inline bool TraceEnabled();

/// Turns collection on/off process-wide. Enabling is sticky until disabled;
/// a valid APQ_TRACE environment variable calls this at first use.
void SetTraceEnabled(bool on);

/// Appends a span to the calling thread's ring (no-op when disabled).
void EmitSpan(SpanKind kind, const char* name, uint64_t start_ticks,
              uint64_t end_ticks, int64_t a0 = 0, int64_t a1 = 0,
              int64_t a2 = 0);

/// Appends an instant event (ph:"i" in the export).
void EmitInstant(SpanKind kind, const char* name, int64_t a0 = 0,
                 int64_t a1 = 0, int64_t a2 = 0);

/// \brief RAII span: reads the clock on construction/destruction when (and
/// only when) tracing was enabled at construction. Args may be filled late
/// (tuple counts are only known when the operator finishes).
class SpanScope {
 public:
  SpanScope(SpanKind kind, const char* name, int64_t a0 = 0, int64_t a1 = 0)
      : kind_(kind), name_(name), a0_(a0), a1_(a1) {
    if (TraceEnabled()) {
      active_ = true;
      start_ = TraceTicks();
    }
  }
  ~SpanScope() {
    if (active_) EmitSpan(kind_, name_, start_, TraceTicks(), a0_, a1_, a2_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  void set_args(int64_t a0, int64_t a1, int64_t a2 = 0) {
    a0_ = a0;
    a1_ = a1;
    a2_ = a2;
  }

 private:
  SpanKind kind_;
  const char* name_;
  int64_t a0_, a1_;
  int64_t a2_ = 0;
  uint64_t start_ = 0;
  bool active_ = false;
};

/// Snapshots every thread's ring (oldest-first per thread). `dropped`, when
/// non-null, receives the number of events lost to ring overwrites.
std::vector<TraceEvent> DrainEvents(uint64_t* dropped = nullptr);

/// Renders the current snapshot as Chrome trace-event JSON
/// ({"traceEvents":[...]}, "X" duration + "i" instant events, microsecond
/// timestamps calibrated against steady_clock).
std::string ChromeTraceJson();

/// Writes ChromeTraceJson() to `path`.
Status WriteChromeTrace(const std::string& path);

/// Clears every ring buffer and drop counter (tests; also used between
/// adaptive experiments to keep exports scoped to one run).
void ClearTraceBuffers();

/// Reads APQ_TRACE / APQ_METRICS / APQ_PROFILE / APQ_HTTP once through
/// util/env.h (an unwritable path or invalid value warns and keeps the
/// default): a valid APQ_TRACE enables collection, and an atexit exporter
/// flushes the trace, the metrics snapshot (APQ_METRICS; a ".json" suffix
/// selects JSON, anything else Prometheus text), and the recent-query
/// profile dump (APQ_PROFILE, obs/query_log.h) when the process ends, so
/// benches and examples get observability without Engine plumbing. A valid
/// APQ_HTTP starts the live introspection endpoint (obs/http_exporter.h).
/// Idempotent and cheap after the first call; every Evaluator calls this
/// once, when it is built.
void InitFromEnv();

// ---- implementation details (header-inline for the hot-path branch) ----

namespace internal {
extern std::atomic<bool> g_trace_enabled;
}  // namespace internal

inline bool TraceEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace apq

#endif  // APQ_OBS_TRACE_H_

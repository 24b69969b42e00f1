// Per-query resource accounting: the measurement substrate admission
// control needs — how much memory and CPU each query actually consumes.
//
// Three things live here:
//
//   1. MEMORY. Allocation sites (kernel output growth, agg-table slabs,
//      sort runs, hash builds, intermediate columns) charge bytes against
//      the query context installed on the thread (QueryScope: the engine
//      installs the context it owns, and the morsel scheduler re-installs
//      it inside worker tasks). Each query tracks current and peak charged
//      bytes; the process tracks an aggregate current gauge
//      (apq_mem_current_bytes) and an all-time high watermark
//      (apq_mem_peak_bytes).
//   2. CPU. The scheduler bills every finished morsel task's duration and
//      queue-wait to the owning query (BillTask); whole-column operators
//      bill their node wall time from the evaluator. Per query that yields
//      cpu_ns, queue_wait_ns, and task counts — enough to compute parallel
//      efficiency (cpu_ns / wall_ns / workers).
//   3. PER-OPERATOR ATTRIBUTION. The evaluator installs an OpAcct block
//      around each plan-node execution (OpAcctScope); charges and task
//      bills made while it is installed also land there, so the
//      EXPLAIN-ANALYZE document carries peak_bytes / cpu_ns /
//      queue_wait_ns per operator.
//
// Cost contract: a handful of relaxed atomic adds per *operator or morsel
// task*, never per row, and accounting NEVER perturbs results: differential
// tests assert bit-identical TPC-H output with and without a query context
// installed at every worker count.
//
// Lifetime: a QueryContext lives on its engine entry point's frame, and a
// scheduler task bills before it signals its ParallelFor done, so no charge
// or bill reaches a context after the query returns.
//
// Charge discipline (the zero-drift invariant, asserted by
// tests/resource_tracker_test.cc): every durable ChargeBytes is matched by
// exactly one UnchargeBytes before the query ends, so a query's current
// bytes return to 0 at query end. Short-lived buffers use
// ChargeTransient (peak-visible, net zero). Cross-query state (the hash
// index cache) is charged transiently during the build and then parked in
// its own steady-state gauge (apq_hash_cache_bytes) instead of leaking
// into per-query drift.
#ifndef APQ_OBS_RESOURCE_TRACKER_H_
#define APQ_OBS_RESOURCE_TRACKER_H_

#include <atomic>
#include <cstdint>

namespace apq {
namespace obs {

/// \brief An accounting block: one per plan-node execution, owned by the
/// evaluator, installed thread-locally by OpAcctScope and propagated into
/// scheduler tasks, so morsel-task charges and bills from any worker land
/// on the operator that spawned them; and one per query, in its
/// QueryContext.
struct OpAcct {
  std::atomic<uint64_t> cur_bytes{0};
  std::atomic<uint64_t> peak_bytes{0};
  std::atomic<uint64_t> cpu_ns{0};
  std::atomic<uint64_t> queue_wait_ns{0};
  std::atomic<uint64_t> tasks{0};
};

/// \brief One query's accounting context: its process-wide id
/// (obs/query_log.h NextQueryId) and the query-wide sums of the same
/// counters an operator block keeps. Engine::RunPlan and Engine::RunAdaptive
/// own one on their frames for the whole query.
struct QueryContext {
  explicit QueryContext(uint64_t query_id) : id(query_id) {}

  const uint64_t id;
  OpAcct acct;
};

/// The query context installed on this thread (nullptr outside any
/// QueryScope / scheduler task).
QueryContext* CurrentQuery();

/// The installed query's id (0 when no query is installed). Span sites read
/// this to tag events.
uint64_t CurrentQueryId();

/// \brief RAII: installs `query` as this thread's query context, restoring
/// the previous one on exit (nesting-safe: an engine invoked from inside
/// another engine's callback keeps both queries straight). The scheduler
/// installs the submitting thread's context around each task it runs.
class QueryScope {
 public:
  explicit QueryScope(QueryContext* query);
  ~QueryScope();
  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

 private:
  QueryContext* prev_;
};

/// The operator block installed on this thread (nullptr outside any
/// OpAcctScope / scheduler task).
OpAcct* CurrentOpAcct();

/// \brief RAII: installs `acct` as this thread's operator block, restoring
/// the previous one on exit (nesting-safe). The scheduler performs the
/// equivalent install/restore around each task it runs.
class OpAcctScope {
 public:
  explicit OpAcctScope(OpAcct* acct);
  ~OpAcctScope();
  OpAcctScope(const OpAcctScope&) = delete;
  OpAcctScope& operator=(const OpAcctScope&) = delete;

 private:
  OpAcct* prev_;
};

/// Bills `n` bytes to the current query (and current operator block).
/// Durable: the caller owes a matching UnchargeBytes before query end.
void ChargeBytes(uint64_t n);

/// Returns `n` previously charged bytes.
void UnchargeBytes(uint64_t n);

/// Charge + immediate uncharge: records `n` in the query/operator/process
/// peaks without moving the steady-state gauges. For short-lived working
/// buffers (kernel output growth, merge-chunk scratch) where holding the
/// charge across the call would be indistinguishable from a leak.
void ChargeTransient(uint64_t n);

/// \brief RAII guard for durable charges: whatever is held at destruction
/// is uncharged, so early returns and error paths cannot drift.
class ScopedMemCharge {
 public:
  ScopedMemCharge() = default;
  explicit ScopedMemCharge(uint64_t n) { Add(n); }
  ~ScopedMemCharge() { Release(); }
  ScopedMemCharge(const ScopedMemCharge&) = delete;
  ScopedMemCharge& operator=(const ScopedMemCharge&) = delete;

  /// Charges `n` more bytes onto the guard.
  void Add(uint64_t n) {
    ChargeBytes(n);
    held_ += n;
  }
  /// Adopts `n` bytes that were already charged elsewhere (e.g. by morsel
  /// tasks running under this operator), so this guard's destructor is the
  /// single matching uncharge.
  void AssumeCharged(uint64_t n) { held_ += n; }
  /// Uncharges everything held now (idempotent; the destructor otherwise
  /// does it).
  void Release() {
    if (held_ > 0) UnchargeBytes(held_);
    held_ = 0;
  }
  uint64_t held() const { return held_; }

 private:
  uint64_t held_ = 0;
};

/// Adds `delta` (signed) to the cross-query hash-index-cache gauge
/// (apq_hash_cache_bytes). The cache outlives queries, so its steady state
/// is tracked process-wide instead of being charged to the builder.
void AddHashCacheBytes(int64_t delta);

/// Bills one finished scheduler task to `query` and to `acct` (each
/// nullable; a null one is skipped): `cpu_ns` of execution and
/// `queue_wait_ns` spent between submit and claim. Negative readings (clock
/// skew) clamp to zero.
void BillTask(QueryContext* query, OpAcct* acct, double cpu_ns,
              double queue_wait_ns);

}  // namespace obs
}  // namespace apq

#endif  // APQ_OBS_RESOURCE_TRACKER_H_

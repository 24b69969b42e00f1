// Per-query resource accounting: the measurement substrate admission
// control needs — how much memory and CPU each query actually consumes.
//
// Three things live here:
//
//   1. MEMORY. Allocation sites (kernel output growth, agg-table slabs,
//      sort runs, hash builds, intermediate columns) charge bytes against
//      the query currently installed on the thread (obs/query_log.h
//      QueryIdScope — the morsel scheduler re-installs it inside worker
//      tasks). Each query tracks current and peak charged bytes; the
//      process tracks an aggregate current gauge (apq_mem_current_bytes)
//      and an all-time high watermark (apq_mem_peak_bytes).
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
// Cost contract (mirrors obs/trace.h):
//   - Accounting disabled: every site is ONE relaxed atomic load + branch.
//   - Accounting enabled (the default): a handful of relaxed atomic adds
//     per *operator or morsel task* — never per row.
//   - Accounting NEVER perturbs results: differential tests assert
//     bit-identical TPC-H output with accounting on vs off at every worker
//     count.
//
// Charge discipline (the zero-drift invariant, asserted by
// tests/resource_tracker_test.cc): every durable ChargeBytes is matched by
// exactly one UnchargeBytes before the engine retires the query, so a
// query's current bytes return to 0 at query end. Short-lived buffers use
// ChargeTransient (peak-visible, net zero). Cross-query state (the hash
// index cache) is charged transiently during the build and then parked in
// its own steady-state gauge (apq_hash_cache_bytes) instead of leaking
// into per-query drift.
#ifndef APQ_OBS_RESOURCE_TRACKER_H_
#define APQ_OBS_RESOURCE_TRACKER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace apq {
namespace obs {

/// The one branch every disabled accounting site pays.
inline bool AccountingEnabled();

/// Turns accounting on/off process-wide (tests and the APQ_ACCOUNTING env
/// override; on by default).
void SetAccountingEnabled(bool on);

/// Reads APQ_ACCOUNTING once through util/env.h: "0" or "1" sets the
/// switch; unset leaves it alone; anything else warns once and leaves it
/// alone. Called from obs::InitFromEnv.
void InitAccountingFromEnv();

/// \brief Per-operator accounting block. Owned by the evaluator (one per
/// plan-node execution), installed thread-locally by OpAcctScope and
/// propagated into scheduler tasks, so morsel-task charges and bills from
/// any worker land on the operator that spawned them.
struct OpAcct {
  std::atomic<uint64_t> cur_bytes{0};
  std::atomic<uint64_t> peak_bytes{0};
  std::atomic<uint64_t> cpu_ns{0};
  std::atomic<uint64_t> queue_wait_ns{0};
  std::atomic<uint64_t> tasks{0};
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

/// Installs `acct` directly (the scheduler's task prologue; pairs with a
/// second call to restore). Returns the previously installed block.
OpAcct* ExchangeOpAcct(OpAcct* acct);

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

/// Bills one finished scheduler task to query `query_id` (0 = unowned,
/// dropped) and to `acct` (nullable): `cpu_ns` of execution and
/// `queue_wait_ns` spent between submit and claim.
void BillTask(uint64_t query_id, OpAcct* acct, double cpu_ns,
              double queue_wait_ns);

/// \brief One query's accounting snapshot.
struct QueryResources {
  uint64_t cur_bytes = 0;   // still-charged bytes (0 at query end, or drift)
  uint64_t peak_bytes = 0;  // high watermark of charged bytes
  uint64_t cpu_ns = 0;      // summed task/operator execution time
  uint64_t queue_wait_ns = 0;  // summed task queue-wait
  uint64_t tasks = 0;          // scheduler tasks billed
};

/// Copies query `id`'s live accounting block into `*out`; false when the
/// query never charged anything (or accounting is off).
bool SnapshotQueryResources(uint64_t id, QueryResources* out);

/// Retires query `id`: folds its peak into the process high watermark and
/// drops the block. The engine calls this after recording the query.
void FinishQuery(uint64_t id);

/// Number of queries with live (un-retired) accounting blocks (tests).
size_t LiveQueryResourceCount();

// ---- implementation details (header-inline for the hot-path branch) ----

namespace internal {
extern std::atomic<bool> g_accounting_enabled;
}  // namespace internal

inline bool AccountingEnabled() {
  return internal::g_accounting_enabled.load(std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace apq

#endif  // APQ_OBS_RESOURCE_TRACKER_H_

#include "obs/resource_tracker.h"

#include "obs/metrics.h"

namespace apq {
namespace obs {

namespace {

// Process-wide aggregate of all live charges, and its all-time high
// watermark. Kept in local atomics (the gauges mirror them) so the CAS-max
// loop never races a scrape's Set.
std::atomic<int64_t> g_process_cur{0};
std::atomic<int64_t> g_process_peak{0};

Gauge* CurrentBytesGauge() {
  static Gauge* g =
      MetricsRegistry::Global().GetGauge("apq_mem_current_bytes");
  return g;
}
Gauge* PeakBytesGauge() {
  static Gauge* g = MetricsRegistry::Global().GetGauge("apq_mem_peak_bytes");
  return g;
}
Gauge* HashCacheGauge() {
  static Gauge* g =
      MetricsRegistry::Global().GetGauge("apq_hash_cache_bytes");
  return g;
}

void AddProcessBytes(int64_t delta) {
  const int64_t cur =
      g_process_cur.fetch_add(delta, std::memory_order_relaxed) + delta;
  CurrentBytesGauge()->Set(cur);
  int64_t peak = g_process_peak.load(std::memory_order_relaxed);
  while (cur > peak && !g_process_peak.compare_exchange_weak(
                           peak, cur, std::memory_order_relaxed)) {
  }
  if (cur > peak) PeakBytesGauge()->Set(cur);
}

void AddBytes(OpAcct* a, uint64_t n) {
  const uint64_t cur =
      a->cur_bytes.fetch_add(n, std::memory_order_relaxed) + n;
  uint64_t peak = a->peak_bytes.load(std::memory_order_relaxed);
  while (cur > peak && !a->peak_bytes.compare_exchange_weak(
                           peak, cur, std::memory_order_relaxed)) {
  }
}

void AddTask(OpAcct* a, uint64_t cpu, uint64_t wait) {
  a->cpu_ns.fetch_add(cpu, std::memory_order_relaxed);
  a->queue_wait_ns.fetch_add(wait, std::memory_order_relaxed);
  a->tasks.fetch_add(1, std::memory_order_relaxed);
}

thread_local QueryContext* t_query = nullptr;
thread_local OpAcct* t_op_acct = nullptr;

}  // namespace

QueryContext* CurrentQuery() { return t_query; }

uint64_t CurrentQueryId() { return t_query != nullptr ? t_query->id : 0; }

QueryScope::QueryScope(QueryContext* query) : prev_(t_query) {
  t_query = query;
}
QueryScope::~QueryScope() { t_query = prev_; }

OpAcct* CurrentOpAcct() { return t_op_acct; }

OpAcctScope::OpAcctScope(OpAcct* acct) : prev_(t_op_acct) {
  t_op_acct = acct;
}
OpAcctScope::~OpAcctScope() { t_op_acct = prev_; }

void ChargeBytes(uint64_t n) {
  if (n == 0) return;
  if (t_query != nullptr) AddBytes(&t_query->acct, n);
  if (t_op_acct != nullptr) AddBytes(t_op_acct, n);
  AddProcessBytes(static_cast<int64_t>(n));
}

void UnchargeBytes(uint64_t n) {
  if (n == 0) return;
  if (t_query != nullptr) {
    t_query->acct.cur_bytes.fetch_sub(n, std::memory_order_relaxed);
  }
  if (t_op_acct != nullptr) {
    t_op_acct->cur_bytes.fetch_sub(n, std::memory_order_relaxed);
  }
  AddProcessBytes(-static_cast<int64_t>(n));
}

void ChargeTransient(uint64_t n) {
  ChargeBytes(n);
  UnchargeBytes(n);
}

void AddHashCacheBytes(int64_t delta) {
  if (delta != 0) HashCacheGauge()->Add(delta);
}

void BillTask(QueryContext* query, OpAcct* acct, double cpu_ns,
              double queue_wait_ns) {
  const uint64_t cpu = cpu_ns > 0 ? static_cast<uint64_t>(cpu_ns) : 0;
  const uint64_t wait =
      queue_wait_ns > 0 ? static_cast<uint64_t>(queue_wait_ns) : 0;
  if (query != nullptr) AddTask(&query->acct, cpu, wait);
  if (acct != nullptr) AddTask(acct, cpu, wait);
}

}  // namespace obs
}  // namespace apq

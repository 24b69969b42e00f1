#include "obs/resource_tracker.h"

#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/query_log.h"
#include "util/env.h"

namespace apq {
namespace obs {

namespace internal {
std::atomic<bool> g_accounting_enabled{true};
}  // namespace internal

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

// One query's live accounting block. Held by shared_ptr so a worker
// thread's cache entry stays valid even if the engine retires the query
// while a straggler task is still billing (the late bill lands on a
// detached block and is dropped with it — never a dangling read).
struct QueryBlock {
  std::atomic<uint64_t> cur_bytes{0};
  std::atomic<uint64_t> peak_bytes{0};
  std::atomic<uint64_t> cpu_ns{0};
  std::atomic<uint64_t> queue_wait_ns{0};
  std::atomic<uint64_t> tasks{0};
};

std::mutex g_blocks_mu;
std::unordered_map<uint64_t, std::shared_ptr<QueryBlock>>& Blocks() {
  static auto* m =
      new std::unordered_map<uint64_t, std::shared_ptr<QueryBlock>>();
  return *m;
}

// Thread-local cache: the common case is many charges for the same query
// id in a row, so the mutex-protected map is touched once per (thread,
// query), not once per charge.
struct BlockCache {
  uint64_t qid = 0;
  std::shared_ptr<QueryBlock> block;
};
thread_local BlockCache t_block_cache;

QueryBlock* BlockFor(uint64_t qid) {
  if (qid == 0) return nullptr;
  BlockCache& c = t_block_cache;
  if (c.qid == qid && c.block) return c.block.get();
  std::lock_guard<std::mutex> lock(g_blocks_mu);
  auto& slot = Blocks()[qid];
  if (!slot) slot = std::make_shared<QueryBlock>();
  c.qid = qid;
  c.block = slot;
  return c.block.get();
}

void MaxInto(std::atomic<uint64_t>* peak, uint64_t v) {
  uint64_t p = peak->load(std::memory_order_relaxed);
  while (v > p &&
         !peak->compare_exchange_weak(p, v, std::memory_order_relaxed)) {
  }
}

thread_local OpAcct* t_op_acct = nullptr;

}  // namespace

void SetAccountingEnabled(bool on) {
  internal::g_accounting_enabled.store(on, std::memory_order_relaxed);
}

void InitAccountingFromEnv() {
  static std::once_flag once;
  std::call_once(once, [] {
    // Unset leaves the switch alone: a test's earlier SetAccountingEnabled
    // survives the first InitFromEnv.
    if (const auto on = EnvInt("APQ_ACCOUNTING", 0, 1)) {
      SetAccountingEnabled(*on != 0);
    }
  });
}

OpAcct* CurrentOpAcct() { return t_op_acct; }

OpAcctScope::OpAcctScope(OpAcct* acct) : prev_(t_op_acct) {
  t_op_acct = acct;
}
OpAcctScope::~OpAcctScope() { t_op_acct = prev_; }

OpAcct* ExchangeOpAcct(OpAcct* acct) {
  OpAcct* prev = t_op_acct;
  t_op_acct = acct;
  return prev;
}

void ChargeBytes(uint64_t n) {
  if (!AccountingEnabled() || n == 0) return;
  if (QueryBlock* b = BlockFor(CurrentQueryId())) {
    const uint64_t cur =
        b->cur_bytes.fetch_add(n, std::memory_order_relaxed) + n;
    MaxInto(&b->peak_bytes, cur);
  }
  if (OpAcct* a = t_op_acct) {
    const uint64_t cur =
        a->cur_bytes.fetch_add(n, std::memory_order_relaxed) + n;
    MaxInto(&a->peak_bytes, cur);
  }
  AddProcessBytes(static_cast<int64_t>(n));
}

void UnchargeBytes(uint64_t n) {
  if (!AccountingEnabled() || n == 0) return;
  if (QueryBlock* b = BlockFor(CurrentQueryId())) {
    b->cur_bytes.fetch_sub(n, std::memory_order_relaxed);
  }
  if (OpAcct* a = t_op_acct) {
    a->cur_bytes.fetch_sub(n, std::memory_order_relaxed);
  }
  AddProcessBytes(-static_cast<int64_t>(n));
}

void ChargeTransient(uint64_t n) {
  if (!AccountingEnabled() || n == 0) return;
  ChargeBytes(n);
  UnchargeBytes(n);
}

void AddHashCacheBytes(int64_t delta) {
  if (!AccountingEnabled() || delta == 0) return;
  HashCacheGauge()->Add(delta);
}

void BillTask(uint64_t query_id, OpAcct* acct, double cpu_ns,
              double queue_wait_ns) {
  if (!AccountingEnabled()) return;
  const uint64_t cpu = cpu_ns > 0 ? static_cast<uint64_t>(cpu_ns) : 0;
  const uint64_t wait =
      queue_wait_ns > 0 ? static_cast<uint64_t>(queue_wait_ns) : 0;
  if (QueryBlock* b = BlockFor(query_id)) {
    b->cpu_ns.fetch_add(cpu, std::memory_order_relaxed);
    b->queue_wait_ns.fetch_add(wait, std::memory_order_relaxed);
    b->tasks.fetch_add(1, std::memory_order_relaxed);
  }
  if (acct != nullptr) {
    acct->cpu_ns.fetch_add(cpu, std::memory_order_relaxed);
    acct->queue_wait_ns.fetch_add(wait, std::memory_order_relaxed);
    acct->tasks.fetch_add(1, std::memory_order_relaxed);
  }
}

bool SnapshotQueryResources(uint64_t id, QueryResources* out) {
  if (id == 0) return false;
  std::shared_ptr<QueryBlock> b;
  {
    std::lock_guard<std::mutex> lock(g_blocks_mu);
    auto it = Blocks().find(id);
    if (it == Blocks().end()) return false;
    b = it->second;
  }
  out->cur_bytes = b->cur_bytes.load(std::memory_order_relaxed);
  out->peak_bytes = b->peak_bytes.load(std::memory_order_relaxed);
  out->cpu_ns = b->cpu_ns.load(std::memory_order_relaxed);
  out->queue_wait_ns = b->queue_wait_ns.load(std::memory_order_relaxed);
  out->tasks = b->tasks.load(std::memory_order_relaxed);
  return true;
}

void FinishQuery(uint64_t id) {
  if (id == 0) return;
  std::shared_ptr<QueryBlock> b;
  {
    std::lock_guard<std::mutex> lock(g_blocks_mu);
    auto it = Blocks().find(id);
    if (it == Blocks().end()) return;
    b = std::move(it->second);
    Blocks().erase(it);
  }
  // The block's peak is already covered by the process watermark (every
  // charge raised both), but fold it in explicitly so the invariant holds
  // even for charges made while the watermark gauge was being re-seeded.
  const int64_t peak =
      static_cast<int64_t>(b->peak_bytes.load(std::memory_order_relaxed));
  int64_t p = g_process_peak.load(std::memory_order_relaxed);
  while (peak > p && !g_process_peak.compare_exchange_weak(
                         p, peak, std::memory_order_relaxed)) {
  }
  if (peak > p) PeakBytesGauge()->Set(peak);
  // Invalidate this thread's cache eagerly; other threads' caches expire
  // on their next different-query charge (and keep the detached block
  // alive via shared_ptr until then).
  if (t_block_cache.qid == id) {
    t_block_cache.qid = 0;
    t_block_cache.block.reset();
  }
}

size_t LiveQueryResourceCount() {
  std::lock_guard<std::mutex> lock(g_blocks_mu);
  return Blocks().size();
}

}  // namespace obs
}  // namespace apq

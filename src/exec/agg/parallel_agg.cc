#include "exec/agg/parallel_agg.h"

#include <algorithm>
#include <utility>

#include "exec/agg/agg_table.h"
#include "obs/resource_tracker.h"
#include "util/hash_clock.h"

namespace apq {

void GroupByIngest(const int64_t* keys, uint64_t n, MorselScheduler* fleet,
                   uint64_t morsel_rows, std::vector<int64_t>* out_gids,
                   std::vector<int64_t>* out_keys,
                   std::vector<MorselMetrics>* morsels) {
  const MorselSource src(0, n, morsel_rows);
  const size_t nm = fleet != nullptr ? src.num_morsels() : 1;
  const size_t base = out_gids->size();
  out_gids->resize(base + n);
  int64_t* gids = out_gids->data() + base;

  if (nm < 2) {
    // One table, sized like each thread-local table below: its slots are
    // numbered in insertion order, which is first-occurrence order.
    AggTable tab;
    for (uint64_t pos = 0; pos < n; ++pos) {
      gids[pos] = tab.FindOrInsert(keys[pos], pos);
    }
    // Charged like the thread-local tables: live until the keys are out.
    obs::ScopedMemCharge table_charge(tab.byte_size());
    out_keys->insert(out_keys->end(), tab.keys().begin(), tab.keys().end());
    return;
  }
  MorselScheduler& sched = *fleet;

  // Phase 1 — thread-local ingest. Table index 0 belongs to the submitting
  // thread (kCallerWorker), 1..W to the scheduler workers; a worker runs one
  // task at a time, so its table needs no synchronization. Rows get their
  // *local* group id for now; table_of remembers which table owns each
  // morsel's ids for the relabel pass.
  const size_t ntables = static_cast<size_t>(sched.num_workers()) + 1;
  std::vector<AggTable> tables(ntables);
  std::vector<int> table_of(nm, 0);
  std::vector<MorselMetrics> mm(nm);
  sched.ParallelFor(nm, [&](size_t i, int worker) {
    const Morsel ms = src.morsel(i);
    const double t0 = NowNs();
    const int t = worker + 1;  // kCallerWorker = -1 -> slot 0
    AggTable& tab = tables[t];
    for (uint64_t pos = ms.begin; pos < ms.end; ++pos) {
      gids[pos] = tab.FindOrInsert(keys[pos], pos);
    }
    table_of[i] = t;
    mm[i] = MorselMetrics{ms.size(), ms.size(), NowNs() - t0, worker};
  });

  // The thread-local tables are this operator's big working set; they stay
  // live through the merge/relabel phases, then the guard releases them.
  obs::ScopedMemCharge table_charge;
  for (const AggTable& tab : tables) table_charge.Add(tab.byte_size());

  // Phase 2 — partitioned merge: each radix partition of the key hash is
  // merged by one worker, computing per key the minimum first-occurrence
  // position across all thread-local tables (schedule-invariant even though
  // each table's content depends on which morsels its worker ran). Tables
  // bucket their groups by partition first, so total merge work is one pass
  // over the groups rather than one pass per partition.
  const size_t nparts = NextPow2(ntables);
  std::vector<std::vector<std::vector<uint32_t>>> tbuckets(ntables);
  sched.ParallelFor(ntables, [&](size_t t, int) {
    const AggTable& tab = tables[t];
    tbuckets[t].resize(nparts);
    for (uint32_t s = 0; s < tab.num_groups(); ++s) {
      tbuckets[t][AggTable::Mix(tab.key(s)) & (nparts - 1)].push_back(s);
    }
  });
  std::vector<AggTable> parts(nparts);
  sched.ParallelFor(nparts, [&](size_t p, int) {
    AggTable& pt = parts[p];
    for (size_t t = 0; t < ntables; ++t) {
      const AggTable& tab = tables[t];
      for (uint32_t s : tbuckets[t][p]) {
        pt.FindOrInsert(tab.key(s), tab.first_pos(s));
      }
    }
  });

  // Phase 3 — global renumbering: rank keys by earliest occurrence. Input
  // positions are unique, so the order (and thus every group id) is total
  // and identical to the inline table's insertion order.
  std::vector<std::pair<uint64_t, int64_t>> order;  // (first_pos, key)
  {
    size_t total = 0;
    for (const AggTable& pt : parts) total += pt.num_groups();
    order.reserve(total);
  }
  for (const AggTable& pt : parts) {
    const uint64_t g = pt.num_groups();
    for (uint32_t s = 0; s < g; ++s) {
      order.emplace_back(pt.first_pos(s), pt.key(s));
    }
  }
  std::sort(order.begin(), order.end());
  AggTable global(order.size());
  out_keys->reserve(out_keys->size() + order.size());
  for (const auto& [pos, key] : order) {
    global.FindOrInsert(key, pos);  // slot ids follow insertion = rank order
    out_keys->push_back(key);
  }

  // Phase 4 — relabel local ids to global ids: one lookup per *group* to
  // build each table's translation, then one array load per row.
  std::vector<std::vector<int64_t>> l2g(ntables);
  sched.ParallelFor(ntables, [&](size_t t, int) {
    const AggTable& tab = tables[t];
    l2g[t].resize(tab.num_groups());
    for (uint32_t s = 0; s < tab.num_groups(); ++s) {
      l2g[t][s] = global.Find(tab.key(s));
    }
  });
  sched.ParallelFor(nm, [&](size_t i, int) {
    const Morsel ms = src.morsel(i);
    const std::vector<int64_t>& map = l2g[table_of[i]];
    for (uint64_t pos = ms.begin; pos < ms.end; ++pos) {
      gids[pos] = map[gids[pos]];
    }
  });

  morsels->insert(morsels->end(), mm.begin(), mm.end());
}

}  // namespace apq

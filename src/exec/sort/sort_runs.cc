#include "exec/sort/sort_runs.h"

#include <algorithm>
#include <numeric>

#include "exec/sort/merge.h"
#include "obs/resource_tracker.h"
#include "util/hash_clock.h"

namespace apq {

namespace {

// Sorts positions [begin, end) into `run` under `less`, keeping only the
// first `limit` when 0 < limit < end - begin: the body of the inline sort
// and of every run task.
void SortRun(const SortKeyLess& less, uint64_t begin, uint64_t end,
             uint64_t limit, std::vector<uint64_t>* run) {
  run->resize(end - begin);
  std::iota(run->begin(), run->end(), begin);
  if (limit > 0 && limit < run->size()) {
    // Heap-select the limit smallest under the total order: O(n log limit)
    // instead of sorting every row. The position tie-break makes the result
    // identical to a full stable sort's first `limit` rows even though
    // partial_sort itself is unstable.
    std::partial_sort(run->begin(), run->begin() + static_cast<int64_t>(limit),
                      run->end(), less);
    run->resize(limit);
    run->shrink_to_fit();  // bounded top-N keeps runs x limit rows live
  } else {
    // (value, position) is a total order, so an unstable sort over it equals
    // std::stable_sort over values — without stable_sort's O(n) scratch.
    std::sort(run->begin(), run->end(), less);
  }
}

}  // namespace

void BuildSortRuns(const SortKeyLess& less, uint64_t n, uint64_t limit,
                   MorselScheduler& fleet, uint64_t morsel_rows,
                   std::vector<std::vector<uint64_t>>* runs,
                   std::vector<MorselMetrics>* morsels) {
  const MorselSource src(0, n, morsel_rows);
  const size_t nm = src.num_morsels();
  const size_t base = runs->size();
  runs->resize(base + nm);
  std::vector<MorselMetrics> mm(nm);
  fleet.ParallelFor(nm, [&](size_t i, int worker) {
    const Morsel ms = src.morsel(i);
    const double t0 = NowNs();
    std::vector<uint64_t>& run = (*runs)[base + i];
    SortRun(less, ms.begin, ms.end, limit, &run);
    // Durable: the run stays live until the merge consumes it; SortPerm
    // adopts and releases the sum of all run charges.
    obs::ChargeBytes(run.size() * sizeof(uint64_t));
    mm[i] = MorselMetrics{ms.size(), 0, NowNs() - t0, worker};
  });
  morsels->insert(morsels->end(), mm.begin(), mm.end());
}

void SortPerm(const SortKeys& keys, uint64_t n, bool descending,
              uint64_t limit, MorselScheduler* fleet, uint64_t morsel_rows,
              std::vector<uint64_t>* perm,
              std::vector<MorselMetrics>* morsels) {
  const SortKeyLess less{keys, descending};
  if (fleet == nullptr || MorselSource(0, n, morsel_rows).num_morsels() < 2) {
    SortRun(less, 0, n, limit, perm);
    return;
  }

  std::vector<std::vector<uint64_t>> runs;
  BuildSortRuns(less, n, limit, *fleet, morsel_rows, &runs, morsels);
  std::vector<RunSpan> spans(runs.size());
  uint64_t total = 0;
  for (size_t r = 0; r < runs.size(); ++r) {
    spans[r] = RunSpan{runs[r].data(), runs[r].size()};
    total += runs[r].size();
  }
  // The run tasks charged their fragments durably; adopt the sum so one
  // release covers them when the merge is done (error-path safe).
  obs::ScopedMemCharge guard;
  guard.AssumeCharged(total * sizeof(uint64_t));
  // Bounded top-N: the runs were clipped to their limit smallest, so the
  // merge sees at most runs x limit candidates and emits only limit rows.
  const uint64_t out_len = limit > 0 && limit < total ? limit : total;
  perm->resize(out_len);
  guard.Add(out_len * sizeof(uint64_t));
  ParallelMergeRuns(spans, less, *fleet, /*chunk_rows=*/0, out_len,
                    perm->data(), morsels);
}

}  // namespace apq

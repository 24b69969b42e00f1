// Sort, the sort operator's one routine: SortPerm orders input positions by
// the total order (key value, original position).
//
// With no fleet, or an input that fits one morsel, SortPerm sorts one run
// inline straight into the permutation. Otherwise it splits the input into
// morsels on the work-stealing scheduler (sched/morsel_scheduler.h): each
// morsel is sorted into a *run* of input positions, and the runs are
// combined by the merge-path-partitioned loser-tree merge in
// exec/sort/merge.h.
//
// Keying every comparison by (value, position) is what makes the pipeline
// schedule-invariant: positions are globally unique, so the order is total,
// ties between equal values always resolve to the earlier input position
// (exactly std::stable_sort's guarantee), and the merged permutation is THE
// unique sorted permutation — bit-identical to the inline run at any morsel
// size, worker count, or steal order.
//
// The bounded top-N path reuses the same machinery: each run keeps only its
// `limit` smallest elements (a heap-based std::partial_sort), so the merge
// sees at most runs x limit candidates instead of n rows. Any global
// top-`limit` element is necessarily among its own morsel's top `limit`, so
// the clipped merge is still exact.
#ifndef APQ_EXEC_SORT_SORT_RUNS_H_
#define APQ_EXEC_SORT_SORT_RUNS_H_

#include <cstdint>
#include <vector>

#include "exec/morsel_source.h"
#include "sched/morsel_scheduler.h"

namespace apq {

/// \brief Read-only view of the sort key column: float64 or int64 (whichever
/// pointer is non-null). Keys compare as doubles — ValueVec::AsDouble
/// semantics — so int64 and float64 inputs share one comparator.
struct SortKeys {
  const double* f64 = nullptr;
  const int64_t* i64 = nullptr;

  double at(uint64_t pos) const {
    return f64 != nullptr ? f64[pos] : static_cast<double>(i64[pos]);
  }
};

/// \brief The sort subsystem's single comparator: a strict *total* order over
/// (key value, input position). Shared by the inline run and every parallel
/// phase (run sort, split search, loser-tree merge), so the tie-break
/// semantics cannot drift between them. Sorting positions with this
/// comparator reproduces std::stable_sort over values bit-for-bit.
struct SortKeyLess {
  SortKeys keys;
  bool descending = false;

  bool value_less(double a, double b) const {
    return descending ? a > b : a < b;
  }
  bool operator()(uint64_t x, uint64_t y) const {
    const double a = keys.at(x), b = keys.at(y);
    if (value_less(a, b)) return true;
    if (value_less(b, a)) return false;
    return x < y;  // equal keys: earlier input position first (stability)
  }
};

/// \brief Morsel-parallel run formation over positions [0, n) on `fleet`.
///
/// Appends one sorted run per morsel of `morsel_rows` to `runs` (run i =
/// morsel i's positions in (value, position) order, clipped to its `limit`
/// smallest when 0 < limit) and one MorselMetrics per run to `morsels`
/// (tuples_in = morsel rows, so the run tasks sum to the n rows sorted;
/// tuples_out = 0 — output rows are accounted by the merge chunks). Each run
/// is charged durably; the caller owes the matching release.
void BuildSortRuns(const SortKeyLess& less, uint64_t n, uint64_t limit,
                   MorselScheduler& fleet, uint64_t morsel_rows,
                   std::vector<std::vector<uint64_t>>* runs,
                   std::vector<MorselMetrics>* morsels);

/// \brief The sort operator's permutation: fills `perm` with the first
/// min(limit, n) positions of [0, n) (limit = 0 sorts everything) in
/// (value, position) order, the permutation std::stable_sort gives.
///
/// Runs inline — one run sorted straight into `perm`, `morsels` untouched —
/// when `fleet` is null or [0, n) fits one morsel of `morsel_rows`.
/// Otherwise builds one run per morsel on the fleet (BuildSortRuns) and
/// merges them (ParallelMergeRuns), appending the run tasks' MorselMetrics
/// (carrying tuples_in) and then the merge chunks' (carrying tuples_out).
void SortPerm(const SortKeys& keys, uint64_t n, bool descending,
              uint64_t limit, MorselScheduler* fleet, uint64_t morsel_rows,
              std::vector<uint64_t>* perm,
              std::vector<MorselMetrics>* morsels);

}  // namespace apq

#endif  // APQ_EXEC_SORT_SORT_RUNS_H_

// Morsel-parallel group-by ingest on the work-stealing scheduler
// (sched/morsel_scheduler.h). The evaluator's sequential insert loop stays as
// the differential oracle; ParallelGroupBy reproduces it bit for bit: each
// scheduler worker ingests its morsels into a thread-local AggTable (local
// group ids, per-key minimum input position), the tables are merged by radix
// partition of the key hash (each partition merged by one worker), and group
// ids are renumbered by ranking keys on their earliest input position — which
// reproduces the scalar interpreter's first-occurrence numbering
// *bit-identically*, regardless of morsel size, worker count, or steal order.
//
// Grouped aggregation has no parallel routine: the evaluator folds every
// group in input order, so SUM/AVG never depend on the morsel count.
#ifndef APQ_EXEC_AGG_PARALLEL_AGG_H_
#define APQ_EXEC_AGG_PARALLEL_AGG_H_

#include <cstdint>
#include <vector>

#include "exec/agg/agg_table.h"
#include "exec/morsel_source.h"
#include "sched/morsel_scheduler.h"

namespace apq {

/// \brief How the aggregation pipeline splits and schedules its input.
struct ParallelAggOptions {
  uint64_t morsel_rows = kDefaultMorselRows;
  MorselScheduler* scheduler = nullptr;  ///< null = run sequentially
};

/// \brief Morsel-parallel group-by over `keys[0..n)`.
///
/// Appends n group ids to `out_gids` and the distinct keys (indexed by group
/// id) to `out_keys`, numbering groups in global first-occurrence order —
/// bit-identical to the sequential insert loop. Appends one MorselMetrics
/// per ingest morsel to `morsels` (tuples_in = tuples_out = morsel rows).
///
/// Returns the number of morsels run; 0 when the input fits in fewer than
/// two morsels or no scheduler was given — the caller should then run its
/// sequential path (nothing has been written).
size_t ParallelGroupBy(const int64_t* keys, uint64_t n,
                       const ParallelAggOptions& opts,
                       std::vector<int64_t>* out_gids,
                       std::vector<int64_t>* out_keys,
                       std::vector<MorselMetrics>* morsels);

}  // namespace apq

#endif  // APQ_EXEC_AGG_PARALLEL_AGG_H_

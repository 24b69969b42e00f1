// Group-by ingest, the group-by operator's one routine. GroupByIngest numbers
// groups in first-occurrence order: group g is the g-th distinct key met
// scanning the input front to back.
//
// With no fleet, or an input that fits one morsel, it ingests inline into
// one AggTable, whose slots are numbered in insertion order — already
// first-occurrence order, so nothing merges or renumbers. Otherwise each
// scheduler worker (sched/morsel_scheduler.h) ingests its morsels into a
// thread-local AggTable (local group ids, per-key minimum input position),
// the tables are merged by radix partition of the key hash (each partition
// merged by one worker), and group ids are renumbered by ranking keys on
// their earliest input position — which reproduces the inline numbering
// *bit-identically*, regardless of morsel size, worker count, or steal order.
//
// Grouped aggregation has no parallel routine: the evaluator folds every
// group in input order, so SUM/AVG never depend on the morsel count.
#ifndef APQ_EXEC_AGG_PARALLEL_AGG_H_
#define APQ_EXEC_AGG_PARALLEL_AGG_H_

#include <cstdint>
#include <vector>

#include "exec/morsel_source.h"
#include "sched/morsel_scheduler.h"

namespace apq {

/// \brief Group-by ingest over `keys[0..n)`.
///
/// Appends n group ids to `out_gids` and the distinct keys (indexed by group
/// id) to `out_keys`, numbering groups in first-occurrence order. Runs inline
/// when `fleet` is null or the input fits one morsel of `morsel_rows`, and
/// then leaves `morsels` untouched; otherwise runs on the fleet and appends
/// one MorselMetrics per ingest morsel (tuples_in = tuples_out = morsel
/// rows).
void GroupByIngest(const int64_t* keys, uint64_t n, MorselScheduler* fleet,
                   uint64_t morsel_rows, std::vector<int64_t>* out_gids,
                   std::vector<int64_t>* out_keys,
                   std::vector<MorselMetrics>* morsels);

}  // namespace apq

#endif  // APQ_EXEC_AGG_PARALLEL_AGG_H_

// K-way merge of sorted runs: loser tree + merge-path output partitioning.
//
// Phase two of the parallel sort subsystem (see sort_runs.h). The sorted
// runs are merged through a tournament *loser tree*: k run cursors at the
// leaves, each internal node remembering the loser of its subtree's match,
// so producing the next output row costs one replay path of log2(k)
// comparisons — independent of run sizes and without a heap's
// sift-down branches.
//
// The merge is parallelized by *output* partitioning (the k-sequence
// generalization of the 2-way merge path): for an output boundary t,
// SplitRuns finds the unique per-run split indices whose prefixes are
// exactly the t smallest elements under the total (value, position) order.
// Positions are globally unique, so the partition is unique and every chunk
// [t_j, t_j+1) of the final output can be merged by an independent worker
// from disjoint run slices — no locks, no post-pass, and the concatenated
// chunks are the same permutation a single sequential merge would emit.
#ifndef APQ_EXEC_SORT_MERGE_H_
#define APQ_EXEC_SORT_MERGE_H_

#include <cstdint>
#include <vector>

#include "exec/sort/sort_runs.h"

namespace apq {

/// \brief One sorted run (or a slice of one) as a borrowed span of input
/// positions in (value, position) order.
struct RunSpan {
  const uint64_t* data = nullptr;
  uint64_t len = 0;
};

/// \brief Tournament loser tree over k sorted run cursors. Next() pops the
/// globally smallest remaining element in O(log k) comparisons.
class LoserTree {
 public:
  /// Spans may be empty; the tree pads itself to a power of two with
  /// exhausted leaves.
  LoserTree(std::vector<RunSpan> runs, const SortKeyLess& less);

  /// Pops the smallest remaining position into `*out`. Returns false when
  /// every run is exhausted.
  bool Next(uint64_t* out);

 private:
  /// True when run a's current head precedes run b's (exhausted runs lose).
  bool RunLess(size_t a, size_t b) const;
  size_t Rebuild(size_t node);

  std::vector<RunSpan> runs_;   // padded to leaves_ entries
  std::vector<uint64_t> pos_;   // cursor per run
  std::vector<size_t> tree_;    // internal nodes: loser run of each match
  size_t leaves_ = 0;           // power-of-two leaf count
  size_t winner_ = 0;           // run holding the current global minimum
  SortKeyLess less_;
};

/// \brief Sequential k-way merge: writes the first `out_len` positions of the
/// merged order into out[0..out_len). out_len may be less than the total run
/// length (the bounded top-N merge stops at the limit).
void MergeRuns(const std::vector<RunSpan>& runs, const SortKeyLess& less,
               uint64_t* out, uint64_t out_len);

/// \brief Merge-path split: per-run indices s[r] with sum(s) == t such that
/// the prefixes runs[r][0..s[r]) are exactly the t smallest elements of the
/// union under the total (value, position) order. t must be <= the total run
/// length. The splits are unique because positions are globally unique.
std::vector<uint64_t> SplitRuns(const std::vector<RunSpan>& runs,
                                const SortKeyLess& less, uint64_t t);

/// \brief Parallel k-way merge: partitions the output [0, out_len) into
/// chunks at SplitRuns boundaries and merges each chunk with its own loser
/// tree on `fleet`, one disjoint output range per task.
///
/// Chunk size is `chunk_rows`, or (when 0) sized so roughly two chunks exist
/// per fleet worker with a floor that keeps tiny outputs in one chunk (tests
/// shrink it to exercise multi-chunk merges on small inputs). Appends one
/// MorselMetrics per chunk (tuples_in = 0, tuples_out = chunk rows:
/// run-formation morsels already account for the operator's input rows, so
/// input and output sums stay exact). Returns the chunk count.
size_t ParallelMergeRuns(const std::vector<RunSpan>& runs,
                         const SortKeyLess& less, MorselScheduler& fleet,
                         uint64_t chunk_rows, uint64_t out_len, uint64_t* out,
                         std::vector<MorselMetrics>* morsels);

}  // namespace apq

#endif  // APQ_EXEC_SORT_MERGE_H_

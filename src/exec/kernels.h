// Vectorized batch kernels over selection vectors.
//
// A row-at-a-time select tests a per-row lambda that re-dispatches on
// predicate kind and column type for every tuple. These kernels hoist all
// of that out of the loop: dispatch happens once per operator, the inner
// loop is a predicate-specialized tight loop writing a selection vector
// branch-free (dst[k] = i; k += pred(v)), and every output buffer is sized
// once up front. This is the Vectorwise-style execution the
// paper measures against, applied to the whole-column (MonetDB-style)
// operators this repository interprets.
//
// All kernels reproduce the row-at-a-time loops (kept as the test reference,
// tests/reference_ops.h) bit-for-bit, including the dynamic partition
// boundary rules of paper Figs 9/10 (kStrict errors on out-of-slice
// row ids, kAdjust clips them for the sibling clones to produce).
#ifndef APQ_EXEC_KERNELS_H_
#define APQ_EXEC_KERNELS_H_

#include <cstdint>
#include <vector>

#include "exec/intermediate.h"
#include "exec/simd/simd_ops.h"
#include "exec/op_kind.h"
#include "exec/predicate.h"
#include "storage/column.h"
#include "storage/types.h"
#include "util/status.h"

namespace apq {

/// Precomputes which dictionary codes of `col` match a LIKE predicate
/// (substring, optionally negated). One byte per code; indexed by code. The
/// table carries simd::kLikeMatchPad zero bytes of tail padding so the SIMD
/// gathered probe never reads outside it.
std::vector<uint8_t> BuildLikeMatch(const Column& col, const Predicate& p);

/// Dense select: appends the row ids in [range.begin, range.end) whose value
/// in `col` satisfies `pred` to `out`, in row order. For kLike predicates
/// `like_match` must be the BuildLikeMatch table; it is ignored otherwise.
/// `ops` selects the SIMD dispatch tier (null or an absent entry runs the
/// generic loop) — same for every kernel below; outputs are bit-identical
/// across tiers.
void SelectDense(const Column& col, RowRange range, const Predicate& pred,
                 const std::vector<uint8_t>* like_match, std::vector<oid>* out,
                 const simd::SimdOps* ops = nullptr);

/// Candidate-list select over `candidates[0..n)`: like SelectDense but
/// scanning the candidates instead of the dense range. Candidates outside
/// `range` are clipped (paper Fig 9 boundary adjustment); `*random_accesses`
/// is increased by the number of in-range candidates (each costs a random
/// gather into the slice). Concatenating the outputs of consecutive spans
/// equals one call over the whole list, which is how the morsel executor
/// splits it.
void SelectCandidatesSpan(const Column& col, RowRange range,
                          const Predicate& pred,
                          const std::vector<uint8_t>* like_match,
                          const oid* candidates, size_t n,
                          std::vector<oid>* out, uint64_t* random_accesses,
                          const simd::SimdOps* ops = nullptr);

/// Fetch-join gather over `ids[0..n)`: materializes col[id] for every id
/// into `values` (and the surviving ids into `head`), in input order.
///  - Any id beyond the column is a Misaligned error (reported for the first
///    offending id, matching a row-at-a-time scan).
///  - When `sliced`, ids outside `range` are a Misaligned error under
///    AlignPolicy::kStrict and are clipped under AlignPolicy::kAdjust.
/// Error selection is per-span first-offender, so taking the error of the
/// lowest-indexed failing span reproduces the whole-list error exactly.
Status GatherRowsSpan(const Column& col, const oid* ids, size_t n,
                      RowRange range, bool sliced, AlignPolicy align,
                      std::vector<oid>* head, ValueVec* values,
                      const simd::SimdOps* ops = nullptr);

/// Positional span gather, the fetch-join's kernel whenever every id yields
/// exactly one output value (any case except slice + kAdjust, whose clipping
/// makes output sizes data-dependent): validates ids[0..n) — full strict-slice
/// semantics when `strict_sliced`, beyond-column bounds otherwise — then
/// writes ids[i] to head_dst[i] and col[ids[i]] to values position
/// offset + i. head_dst and *values must already be sized; disjoint spans of
/// one destination may be written concurrently.
Status GatherRowsAt(const Column& col, const oid* ids, size_t n,
                    RowRange range, bool strict_sliced, oid* head_dst,
                    ValueVec* values, uint64_t offset,
                    const simd::SimdOps* ops = nullptr);

}  // namespace apq

#endif  // APQ_EXEC_KERNELS_H_

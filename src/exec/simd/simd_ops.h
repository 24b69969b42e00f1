// Runtime-dispatched SIMD kernel tier: one function-pointer table per
// instruction-set level (scalar / AVX2 / AVX-512), probed once per process.
//
// The branch-free loops in exec/kernels.cc auto-vectorize at -O2, but the
// selection-vector write itself stays serial there (dst[k] = i; k += pred):
// the compiler cannot compress-store. This tier supplies the explicitly
// vectorized forms — AVX2 movemask + LUT-permute compress and AVX-512
// vpcompressq for the selection-vector emission, vpgatherqq for fetch-join /
// candidate gathers, a gathered byte-table probe for LIKE, and SUM/COUNT/
// MIN/MAX ingest reductions for the aggregation tier.
//
// Dispatch contract:
//  * Every pointer may be null; a null entry means "this level has no
//    vectorized form for the op" and the caller runs its generic loop.
//    The scalar level's table is all-null by construction, so routing
//    through it IS the pre-SIMD code path.
//  * Every non-null entry is bit-identical to the generic loop it replaces:
//    selection vectors and gathers are integer outputs emitted in input
//    order; the float reductions are restricted to folds whose value is
//    order-independent (MIN/MAX lattice folds on NaN-free data) or proven
//    exact (guarded integer SUM) — see each entry.
//  * The active table is chosen once per process: the APQ_SIMD environment
//    override (scalar|avx2|avx512, validated; for tests and CI) wins over
//    ExecOptions::simd_level, which wins over the cpuid probe.
#ifndef APQ_EXEC_SIMD_SIMD_OPS_H_
#define APQ_EXEC_SIMD_SIMD_OPS_H_

#include <cstddef>
#include <cstdint>

#include "storage/types.h"

namespace apq {
namespace simd {

/// Dispatch tier. Values order by capability so tiers compare with <.
enum class SimdLevel : int {
  kAuto = -1,   ///< resolve via APQ_SIMD / cpuid probe (ExecOptions default)
  kScalar = 0,  ///< generic loops only (all-null op table)
  kAvx2 = 1,    ///< 4-lane: movemask + LUT-permute compress, vpgatherqq
  kAvx512 = 2,  ///< 8-lane: vpcompressq compress, masked gathers
};

/// Selection kernels may store one full vector at the write cursor and
/// advance it by the passing-lane count, so the last store of a block can
/// reach up to one vector beyond the final count. Callers must size select
/// destinations with this much slack beyond the worst-case output.
inline constexpr size_t kSelectStoreSlack = 8;

/// The LIKE probe gathers 32-bit words at byte offsets into the match table,
/// reading up to 3 bytes past the addressed code. BuildLikeMatch pads its
/// table by this many zero bytes so the gather never leaves the allocation.
inline constexpr size_t kLikeMatchPad = 8;

/// \brief Function-pointer table of one dispatch level. Null entry = no
/// vectorized form at this level; run the generic loop.
///
/// Dense selects write the row ids i in [begin, end) whose value passes the
/// predicate to dst (capacity >= (end - begin) + kSelectStoreSlack) in row
/// order and return the count — exactly the generic DenseLoop output.
/// Candidate selects scan ids[0..n), drop ids outside [rbegin, rend)
/// (unsigned compares, like RowRange::Contains), add the in-range count to
/// *accesses, and compress the surviving original ids. Gathers write
/// src[ids[i]] to dst[i] for pre-validated ids.
struct SimdOps {
  SimdLevel level = SimdLevel::kScalar;

  // ---- dense selects -------------------------------------------------------
  size_t (*select_range_i64)(const int64_t* data, oid begin, oid end,
                             int64_t lo, int64_t hi, oid* dst) = nullptr;
  size_t (*select_eq_i64)(const int64_t* data, oid begin, oid end, int64_t eq,
                          oid* dst) = nullptr;
  size_t (*select_range_f64)(const double* data, oid begin, oid end, double lo,
                             double hi, oid* dst) = nullptr;
  /// RangeF64 predicate over int64 storage (value cast to double, as the
  /// generic loop does). Needs exact int64->double lanes (AVX-512DQ).
  size_t (*select_range_f64_over_i64)(const int64_t* data, oid begin, oid end,
                                      double lo, double hi, oid* dst) = nullptr;
  /// RangeI64/EqI64 over float64 storage (value truncated, vcvttpd2qq).
  size_t (*select_range_i64_over_f64)(const double* data, oid begin, oid end,
                                      int64_t lo, int64_t hi,
                                      oid* dst) = nullptr;
  size_t (*select_eq_i64_over_f64)(const double* data, oid begin, oid end,
                                   int64_t eq, oid* dst) = nullptr;
  /// LIKE dictionary byte-table probe: match must carry kLikeMatchPad bytes
  /// of tail padding (BuildLikeMatch guarantees it).
  size_t (*select_like)(const int64_t* codes, oid begin, oid end,
                        const uint8_t* match, oid* dst) = nullptr;

  // ---- candidate-list selects ----------------------------------------------
  size_t (*select_cand_range_i64)(const int64_t* data, const oid* ids,
                                  size_t n, oid rbegin, oid rend, int64_t lo,
                                  int64_t hi, oid* dst,
                                  uint64_t* accesses) = nullptr;
  size_t (*select_cand_eq_i64)(const int64_t* data, const oid* ids, size_t n,
                               oid rbegin, oid rend, int64_t eq, oid* dst,
                               uint64_t* accesses) = nullptr;
  size_t (*select_cand_range_f64)(const double* data, const oid* ids, size_t n,
                                  oid rbegin, oid rend, double lo, double hi,
                                  oid* dst, uint64_t* accesses) = nullptr;
  size_t (*select_cand_like)(const int64_t* codes, const oid* ids, size_t n,
                             oid rbegin, oid rend, const uint8_t* match,
                             oid* dst, uint64_t* accesses) = nullptr;

  // ---- gathers (ids pre-validated in-bounds) -------------------------------
  void (*gather_i64)(const int64_t* src, const oid* ids, size_t n,
                     int64_t* dst) = nullptr;
  void (*gather_f64)(const double* src, const oid* ids, size_t n,
                     double* dst) = nullptr;

  // ---- aggregation ingest reductions ---------------------------------------
  /// Exact min/max over v[0..n); n must be > 0. Bit-identical to the
  /// sequential fold for int64 always, and for float64 on NaN-free data
  /// (MIN/MAX are lattice folds; the only scalar divergence would be the
  /// sign of a -0.0/+0.0 tie, which no engine workload produces).
  void (*minmax_i64)(const int64_t* v, size_t n, int64_t* mn,
                     int64_t* mx) = nullptr;
  void (*minmax_f64)(const double* v, size_t n, double* mn,
                     double* mx) = nullptr;
  /// Guarded exact SUM over int64 values: returns true and sets *sum only
  /// when n * max|v| <= 2^53, in which case EVERY association order of the
  /// double fold (including the sequential one) is
  /// exact and equal to the integer sum — bit-identical by proof, not by
  /// luck. Returns false (caller folds sequentially) otherwise.
  bool (*sum_i64_exact)(const int64_t* v, size_t n, double* sum) = nullptr;
};

/// The process-wide active table: APQ_SIMD override if set (validated,
/// unknown values warned and ignored), else the cpuid probe's best level.
const SimdOps& Ops();

/// The table of one specific level (kAuto resolves like Ops()). Levels above
/// HighestSupported() clamp down — the returned table is always runnable.
const SimdOps& OpsFor(SimdLevel level);

/// Resolution used by the evaluator: APQ_SIMD env override (testing/CI) >
/// `requested` (ExecOptions::simd_level) > cpuid probe.
const SimdOps& Resolve(SimdLevel requested);

/// Best level this CPU (and build) supports.
SimdLevel HighestSupported();
bool LevelSupported(SimdLevel level);

/// The level Ops() resolved to (after env override and probe).
SimdLevel ActiveLevel();

const char* LevelName(SimdLevel level);

/// Parses a level name ("scalar" | "avx2" | "avx512", case-insensitive).
/// Returns false on anything else. Exposed for the env-parsing tests.
bool ParseSimdLevelName(const char* s, SimdLevel* out);

}  // namespace simd
}  // namespace apq

#endif  // APQ_EXEC_SIMD_SIMD_OPS_H_

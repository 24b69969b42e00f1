// Flat open-addressing aggregation hash table.
//
// Every group-by ingest (parallel_agg.h) builds its groups in this table:
// the one table of the inline path, and each worker's thread-local table on
// the fleet. It is one linear-probed bucket array of 4-byte slot references
// over dense columnar group storage (keys and first-occurrence positions).
//
// Keys are int64 — ints, date days, and dictionary codes all share that
// storage (storage/column.h), so one specialization covers every group-by
// attribute the engine produces. Slots are numbered in insertion order, so
// one table fed the input front to back numbers groups in first-occurrence
// order, and the partitioned merge can renumber thread-local group ids into
// that same order.
#ifndef APQ_EXEC_AGG_AGG_TABLE_H_
#define APQ_EXEC_AGG_AGG_TABLE_H_

#include <cstdint>
#include <vector>

#include "util/hash_clock.h"

namespace apq {

/// \brief Open-addressing hash table from int64 key to a dense group slot.
/// Not thread-safe: the morsel-parallel ingest gives each worker its own
/// table and merges afterward.
class AggTable {
 public:
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  /// `expected_groups` pre-sizes the bucket array (0 = start minimal and
  /// grow by doubling at 3/4 load).
  explicit AggTable(uint64_t expected_groups = 0);

  /// Returns the slot of `key`, inserting a new slot (id = num_groups() - 1,
  /// insertion order) on first sight. `pos` is the input position of this
  /// occurrence: the slot records the *minimum* position ever passed, so
  /// after ingesting any subset of the input in any order, first_pos(slot)
  /// is the position of the key's earliest occurrence in that subset.
  uint32_t FindOrInsert(int64_t key, uint64_t pos);

  /// Slot of `key`, or kNoSlot when absent. Never inserts.
  uint32_t Find(int64_t key) const;

  uint64_t num_groups() const { return keys_.size(); }
  int64_t key(uint32_t slot) const { return keys_[slot]; }
  /// Every key, indexed by slot.
  const std::vector<int64_t>& keys() const { return keys_; }
  uint64_t first_pos(uint32_t slot) const { return first_pos_[slot]; }

  uint64_t byte_size() const {
    return buckets_.size() * sizeof(uint32_t) + keys_.size() * 8 +
           first_pos_.size() * 8;
  }

  /// The 64-bit finalizer used for bucket addressing (util/hash_clock.h),
  /// exposed so the merge can radix-partition keys with the same mix.
  static uint64_t Mix(int64_t key) { return MixHash64(key); }

 private:
  void Rehash(uint64_t new_buckets);

  std::vector<uint32_t> buckets_;  // 1 + slot; 0 = empty
  uint64_t mask_ = 0;
  // Dense group storage, indexed by slot.
  std::vector<int64_t> keys_;
  std::vector<uint64_t> first_pos_;
};

}  // namespace apq

#endif  // APQ_EXEC_AGG_AGG_TABLE_H_

#include "exec/agg/agg_table.h"

namespace apq {

AggTable::AggTable(uint64_t expected_groups) {
  // 3/4 max load: buckets >= groups * 4/3, floor of 64 to keep the growth
  // path off the tiny-table fast case.
  const uint64_t want = expected_groups == 0 ? 64 : expected_groups * 4 / 3 + 1;
  const uint64_t nb = NextPow2(want < 64 ? 64 : want);
  buckets_.assign(nb, 0);
  mask_ = nb - 1;
  if (expected_groups > 0) {
    keys_.reserve(expected_groups);
    first_pos_.reserve(expected_groups);
  }
}

void AggTable::Rehash(uint64_t new_buckets) {
  buckets_.assign(new_buckets, 0);
  mask_ = new_buckets - 1;
  for (uint32_t slot = 0; slot < keys_.size(); ++slot) {
    uint64_t b = Mix(keys_[slot]) & mask_;
    while (buckets_[b] != 0) b = (b + 1) & mask_;
    buckets_[b] = slot + 1;
  }
}

uint32_t AggTable::FindOrInsert(int64_t key, uint64_t pos) {
  if ((keys_.size() + 1) * 4 > buckets_.size() * 3) {
    Rehash(buckets_.size() * 2);
  }
  uint64_t b = Mix(key) & mask_;
  for (;;) {
    const uint32_t e = buckets_[b];
    if (e == 0) {
      const uint32_t slot = static_cast<uint32_t>(keys_.size());
      buckets_[b] = slot + 1;
      keys_.push_back(key);
      first_pos_.push_back(pos);
      return slot;
    }
    const uint32_t slot = e - 1;
    if (keys_[slot] == key) {
      // Keep the earliest position: ingest order is arbitrary under work
      // stealing, but the minimum over all occurrences is schedule-invariant.
      if (pos < first_pos_[slot]) first_pos_[slot] = pos;
      return slot;
    }
    b = (b + 1) & mask_;
  }
}

uint32_t AggTable::Find(int64_t key) const {
  uint64_t b = Mix(key) & mask_;
  for (;;) {
    const uint32_t e = buckets_[b];
    if (e == 0) return kNoSlot;
    const uint32_t slot = e - 1;
    if (keys_[slot] == key) return slot;
    b = (b + 1) & mask_;
  }
}

}  // namespace apq

#include "exec/sort/merge.h"

#include <algorithm>

#include "obs/resource_tracker.h"
#include "util/hash_clock.h"

namespace apq {

namespace {

/// Floor for auto-sized merge chunks: below this, chunk setup (split search +
/// tree build) outweighs the merge itself, so small outputs merge in one go.
constexpr uint64_t kMinMergeChunkRows = 1024;

}  // namespace

LoserTree::LoserTree(std::vector<RunSpan> runs, const SortKeyLess& less)
    : runs_(std::move(runs)), less_(less) {
  leaves_ = NextPow2(runs_.size());
  if (leaves_ == 0) leaves_ = 1;
  runs_.resize(leaves_);  // padding runs are empty spans (always lose)
  pos_.assign(leaves_, 0);
  tree_.assign(leaves_, 0);
  winner_ = Rebuild(1);
}

bool LoserTree::RunLess(size_t a, size_t b) const {
  const bool a_done = pos_[a] >= runs_[a].len;
  const bool b_done = pos_[b] >= runs_[b].len;
  if (a_done) return false;
  if (b_done) return true;
  return less_(runs_[a].data[pos_[a]], runs_[b].data[pos_[b]]);
}

size_t LoserTree::Rebuild(size_t node) {
  if (node >= leaves_) return node - leaves_;
  const size_t l = Rebuild(2 * node);
  const size_t r = Rebuild(2 * node + 1);
  const bool left_wins = !RunLess(r, l);  // ties go left: lower run index
  tree_[node] = left_wins ? r : l;
  return left_wins ? l : r;
}

bool LoserTree::Next(uint64_t* out) {
  if (pos_[winner_] >= runs_[winner_].len) return false;  // all exhausted
  *out = runs_[winner_].data[pos_[winner_]];
  ++pos_[winner_];
  // Replay the winner's path: at each match the stored loser challenges.
  size_t w = winner_;
  for (size_t node = (w + leaves_) / 2; node >= 1; node /= 2) {
    if (RunLess(tree_[node], w)) std::swap(tree_[node], w);
  }
  winner_ = w;
  return true;
}

void MergeRuns(const std::vector<RunSpan>& runs, const SortKeyLess& less,
               uint64_t* out, uint64_t out_len) {
  LoserTree tree(runs, less);
  for (uint64_t i = 0; i < out_len; ++i) {
    if (!tree.Next(&out[i])) break;  // out_len never exceeds the total length
  }
}

std::vector<uint64_t> SplitRuns(const std::vector<RunSpan>& runs,
                                const SortKeyLess& less, uint64_t t) {
  const size_t k = runs.size();
  std::vector<uint64_t> splits(k, 0);
  if (t == 0) return splits;
  uint64_t total = 0;
  for (const RunSpan& r : runs) total += r.len;
  if (t >= total) {
    for (size_t r = 0; r < k; ++r) splits[r] = runs[r].len;
    return splits;
  }

  // Find the element of global rank t (0-indexed: exactly t elements precede
  // it) by joint binary search over the runs: per-run candidate windows
  // [lo, hi) shrink monotonically, the pivot is the candidate at the middle
  // of the remaining window mass (a weighted-median stand-in), and every
  // iteration discards at least the pivot itself, so the search terminates.
  // The rank-t element is never discarded — elements are only excluded by
  // proving them strictly before or strictly after it — and positions are
  // globally unique, so the rank-t element (and the split) is unique.
  std::vector<uint64_t> lo(k, 0), hi(k);
  for (size_t r = 0; r < k; ++r) hi[r] = runs[r].len;
  std::vector<uint64_t> lb(k, 0);  // per-run lower bound of the pivot
  while (true) {
    uint64_t remaining = 0;
    for (size_t r = 0; r < k; ++r) {
      remaining += hi[r] > lo[r] ? hi[r] - lo[r] : 0;
    }
    if (remaining == 0) break;  // unreachable for a total order; see below
    uint64_t skip = remaining / 2;
    size_t p = 0;
    for (size_t r = 0; r < k; ++r) {
      const uint64_t width = hi[r] > lo[r] ? hi[r] - lo[r] : 0;
      if (width == 0) continue;
      if (skip < width) {
        p = r;
        break;
      }
      skip -= width;
    }
    const uint64_t pivot = runs[p].data[lo[p] + skip];

    uint64_t rank = 0;
    for (size_t r = 0; r < k; ++r) {
      lb[r] = static_cast<uint64_t>(
          std::lower_bound(runs[r].data, runs[r].data + runs[r].len, pivot,
                           less) -
          runs[r].data);
      rank += lb[r];
    }
    if (rank == t) return lb;  // prefixes = exactly the t smallest
    if (rank < t) {
      // Everything at or before the pivot ranks below t. Only run p holds
      // the pivot itself (positions are unique), so its window skips one
      // further.
      for (size_t r = 0; r < k; ++r) {
        lo[r] = std::max(lo[r], lb[r] + (r == p ? 1 : 0));
      }
    } else {
      for (size_t r = 0; r < k; ++r) hi[r] = std::min(hi[r], lb[r]);
    }
  }

  // Defensive fallback (keys that defeat the total order, e.g. NaN): count
  // off the first t elements with a sequential merge. Deterministic, just
  // not sublinear.
  std::vector<uint64_t> cursor(k, 0);
  std::fill(splits.begin(), splits.end(), 0);
  for (uint64_t taken = 0; taken < t; ++taken) {
    size_t best = k;
    for (size_t r = 0; r < k; ++r) {
      if (cursor[r] >= runs[r].len) continue;
      if (best == k ||
          less(runs[r].data[cursor[r]], runs[best].data[cursor[best]])) {
        best = r;
      }
    }
    if (best == k) break;
    ++cursor[best];
    ++splits[best];
  }
  return splits;
}

size_t ParallelMergeRuns(const std::vector<RunSpan>& runs,
                         const SortKeyLess& less, MorselScheduler& fleet,
                         uint64_t chunk_rows, uint64_t out_len, uint64_t* out,
                         std::vector<MorselMetrics>* morsels) {
  if (out_len == 0) return 0;
  uint64_t chunk = chunk_rows;
  if (chunk == 0) {
    // ~2 chunks per worker (plus the caller) keeps stealing useful without
    // paying a split search per few rows.
    const uint64_t tasks = 2 * (static_cast<uint64_t>(fleet.num_workers()) + 1);
    chunk = std::max(kMinMergeChunkRows, (out_len + tasks - 1) / tasks);
  }
  const size_t nchunks = static_cast<size_t>((out_len + chunk - 1) / chunk);

  // Output boundaries: chunk j merges runs[r][bounds[j][r], bounds[j+1][r]).
  std::vector<std::vector<uint64_t>> bounds(nchunks + 1);
  bounds[0].assign(runs.size(), 0);
  for (size_t j = 1; j <= nchunks; ++j) {
    bounds[j] = SplitRuns(runs, less,
                          std::min<uint64_t>(j * chunk, out_len));
  }

  std::vector<MorselMetrics> mm(nchunks);
  auto merge_chunk = [&](size_t j, int worker) {
    const double t0 = NowNs();
    const uint64_t out_begin = j * chunk;
    const uint64_t rows = std::min<uint64_t>(chunk, out_len - out_begin);
    std::vector<RunSpan> slices(runs.size());
    for (size_t r = 0; r < runs.size(); ++r) {
      slices[r] =
          RunSpan{runs[r].data + bounds[j][r], bounds[j + 1][r] - bounds[j][r]};
    }
    MergeRuns(slices, less, out + out_begin, rows);
    // This chunk's scratch (run slices + loser tree) plus its output span.
    obs::ChargeTransient(slices.size() * sizeof(RunSpan) +
                         rows * sizeof(uint64_t));
    mm[j] = MorselMetrics{0, rows, NowNs() - t0, worker};
  };
  if (nchunks > 1) {
    fleet.ParallelFor(nchunks, merge_chunk);
  } else {
    merge_chunk(0, MorselScheduler::kCallerWorker);
  }

  morsels->insert(morsels->end(), mm.begin(), mm.end());
  return nchunks;
}

}  // namespace apq

// Statistics the benchmark reports. Percentiles use the nearest-rank rule:
// the q-th percentile of n samples is the sample at 1-based rank ceil(q*n)
// of the sorted samples, so every reported value is a measured sample.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer would make it a statement about a handful of outliers.
constexpr size_t kMinBeyond = 10;

/// 0-based index of the q-th percentile (q in (0, 1]) among n sorted samples.
inline size_t RankIndex(size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const size_t r = rank < 1 ? 1 : static_cast<size_t>(rank);
  return std::min(r, n) - 1;
}

/// Samples strictly after the q-th percentile's rank.
inline size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - (RankIndex(n, q) + 1);
}

inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const size_t i = RankIndex(v.size(), q);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i),
                   v.end());
  return v[i];
}

inline double Median(const std::vector<double>& v) {
  return Percentile(v, 0.5);
}

/// The highest percentile of a fixed ladder with at least kMinBeyond samples
/// beyond it. `found` is false when even the median has fewer (n < 21).
struct Tail {
  bool found = false;
  double q = 0;      // e.g. 0.99
  double value = 0;  // the sample at that percentile
};

inline Tail TailPercentile(const std::vector<double>& v) {
  static constexpr double kLadder[] = {0.9999, 0.999, 0.99, 0.95,
                                       0.9,    0.75,  0.5};
  Tail t;
  for (double q : kLadder) {
    if (SamplesBeyond(v.size(), q) >= kMinBeyond) {
      t.found = true;
      t.q = q;
      t.value = Percentile(v, q);
      return t;
    }
  }
  return t;
}

/// Geometric mean of positive values; 0 when empty or any value is <= 0
/// (a zero latency means a broken measurement, not a fast query).
inline double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) {
    if (!(x > 0)) return 0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

inline double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Latency samples by query name.
using ByQuery = std::map<std::string, std::vector<double>>;

/// Geometric mean over `queries` of each query's median in `by_query`; 0 when
/// one of them has no sample. A latency class is reported this way rather
/// than as its pooled median: the class mixes queries of different cost, and
/// the pooled median sits between their modes, where a small shift in the
/// mix moves it far.
inline double GeoMeanOfMedians(const ByQuery& by_query,
                               const std::vector<std::string>& queries) {
  std::vector<double> medians;
  for (const std::string& q : queries) {
    auto it = by_query.find(q);
    if (it == by_query.end() || it->second.empty()) return 0;
    medians.push_back(Median(it->second));
  }
  return GeoMean(medians);
}

/// The samples of `queries`, pooled.
inline std::vector<double> Pooled(const ByQuery& by_query,
                                  const std::vector<std::string>& queries) {
  std::vector<double> out;
  for (const std::string& q : queries) {
    auto it = by_query.find(q);
    if (it != by_query.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  return out;
}

/// The query names of `by_query`.
inline std::vector<std::string> Names(const ByQuery& by_query) {
  std::vector<std::string> out;
  for (const auto& entry : by_query) out.push_back(entry.first);
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

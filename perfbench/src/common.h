// Shared pieces of the benchmark program: command-line options, failure
// accounting, the service's response format as a client sees it, resource
// and scheduler snapshots, the span log of a traced run, and the report that
// prints every metric and the final JSON line.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"
#include "util/rng.h"

namespace apq {
class MorselScheduler;
}

namespace perfbench {

double NowNs();

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;  // where a traced run writes its spans
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--trace-out F]`.
/// Returns an empty string on success, else what is wrong.
std::string ParseOptions(int argc, char** argv, Options* out);

/// Deterministic Fisher-Yates shuffle driven by apq::Rng, so one seed gives
/// one order on every platform.
template <typename T>
void Shuffle(std::vector<T>* v, apq::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng->Next() % i);
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

// ---- failure accounting -----------------------------------------------------

/// Operations attempted and failed. A failure is a non-OK Status, an ERR
/// response, a lost connection, a malformed response, or a wrong result;
/// each is counted under its reason. One Tally per thread, merged at the end.
class Tally {
 public:
  void Ok() { ++attempted_; }
  void Fail(const std::string& reason) {
    ++attempted_;
    ++failed_;
    ++reasons_[reason];
  }
  void Merge(const Tally& other);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// Failures whose reason is a wrong result (the output check).
  uint64_t wrong() const;
  const std::map<std::string, uint64_t>& reasons() const { return reasons_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, uint64_t> reasons_;
};

/// Reason recorded for a result that differs from its reference.
constexpr const char* kWrongResult = "wrong-result";

// ---- the service response, client side --------------------------------------

/// The fields of an `OK id= tag= kind= rows= workers= wall_ns=
/// queue_wait_ns=` header line.
struct OkHeader {
  uint64_t id = 0;
  uint64_t tag = 0;
  std::string kind;
  uint64_t rows = 0;
  int workers = 0;
  double wall_ns = 0;
  double queue_wait_ns = 0;
};

/// Parses an OK header line (no trailing newline). False when the line is not
/// an OK header or a field is missing or malformed.
bool ParseOkHeader(const std::string& line, OkHeader* out);

/// Checks one END-terminated response block against the expected ROW lines.
/// Returns "" when the block is an OK response with exactly those rows, else
/// the failure reason: "ERR <type>", "malformed" or kWrongResult.
std::string CheckResponse(const std::string& block,
                          const std::string& expected_rows, OkHeader* header);

// ---- operator profiles -------------------------------------------------------

/// Σ cpu_ns and Σ tuples_in of executed operators, by operator kind name
/// (apq::OpKindName).
struct OpTotals {
  std::map<std::string, std::pair<double, double>> by_kind;
  void Add(const std::string& kind, double cpu_ns, double tuples_in);
  /// Σ cpu_ns / Σ tuples_in of `kind`; 0 when no tuple of it was seen.
  double NsPerRow(const std::string& kind) const;
};

/// Adds every operator of a query profile document (the JSON the query log
/// keeps, profile/profile_json.h schema) to `out`. Returns the operators
/// found.
int AddProfileOps(const std::string& doc, OpTotals* out);

// ---- resource and scheduler snapshots ---------------------------------------

/// getrusage(RUSAGE_SELF) counters that the per-layer metrics difference.
struct Usage {
  double minflt = 0;
  double nvcsw = 0;
  double utime_ns = 0;
  double stime_ns = 0;
};
Usage ReadUsage();
Usage operator-(const Usage& a, const Usage& b);

/// Peak resident set of this process (ru_maxrss), in MB.
double PeakRssMb();

/// Work done by a morsel fleet: tasks (workers plus calling threads), steals,
/// and busy time. `busy_ns` covers calling threads only when their time is
/// observable (the benchmark's own scheduler, not the service's).
struct SchedSnap {
  double tasks = 0;
  double steals = 0;
  double busy_ns = 0;
};
SchedSnap ReadSched(const apq::MorselScheduler& sched);
/// The same from the process-wide apq_sched_* counters, summing the busy
/// time of `workers` workers.
SchedSnap ReadSchedRegistry(int workers);
SchedSnap operator-(const SchedSnap& a, const SchedSnap& b);

// ---- spans of a traced run --------------------------------------------------

/// One timed interval recorded by the benchmark around a call into a layer.
/// `derived` spans are placed from a duration the layer reported (say, the
/// evaluator's wall_ns) rather than from two clock reads. Replays are spans
/// recorded after their request, under its request id.
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = a request's root span
  uint64_t request = 0;  // shared by every span of one request
  double start_ns = 0;
  double end_ns = 0;
  bool derived = false;
};

/// Spans kept in memory and written once, when the run ends. Thread-safe.
class SpanLog {
 public:
  uint64_t Add(const std::string& name, uint64_t parent, uint64_t request,
               double start_ns, double end_ns, bool derived = false);
  uint64_t NewRequest();
  /// Self time of every span (its duration minus the part of its interval
  /// that its children cover), grouped by span name, in ns.
  std::map<std::string, std::vector<double>> SelfTimes() const;
  std::vector<Span> Spans() const;
  /// Writes {"spans":[...]} plus `facts` (a JSON object body) to `path`.
  bool Write(const std::string& path, const std::string& facts) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
  uint64_t next_request_ = 1;
};

// ---- the report -------------------------------------------------------------

/// Every metric a run prints. End-to-end metrics go into the final JSON line
/// of an untraced run, per-layer metrics into that of a traced run; both are
/// printed as text lines with their sample count and tail percentile.
class Report {
 public:
  void Fact(const std::string& key, const std::string& value);
  void EndToEnd(const std::string& name, const std::string& unit,
                double value, const std::vector<double>* samples = nullptr);
  void Layer(const std::string& name, const std::string& unit, double value,
             const std::vector<double>* samples = nullptr);
  /// A figure printed for context only, never part of the JSON line.
  void Info(const std::string& name, const std::string& unit, double value,
            const std::vector<double>* samples = nullptr);
  /// Prints the text lines and, last, the JSON result line. Returns false
  /// (and prints no JSON) when a metric the JSON needs is not finite.
  bool Print(std::FILE* out, bool traced, const Tally& tally) const;
  std::string FactsJson() const;

 private:
  enum class Kind { kEndToEnd, kLayer, kInfo };
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
    Kind kind = Kind::kInfo;
    size_t samples = 0;
    Tail tail;
  };
  void Add(Kind kind, const std::string& name, const std::string& unit,
           double value, const std::vector<double>* samples);

  std::vector<std::pair<std::string, std::string>> facts_;
  std::vector<Metric> metrics_;
};

/// Reports GeoMeanOfMedians(lat, queries) (samples in ns) in ms, with the
/// queries' pooled sample count and tail.
void EndToEndClassMs(Report* r, const std::string& name, const ByQuery& lat,
                     const std::vector<std::string>& queries);
/// For context only: the q-th percentile of samples in ns, in ms.
void InfoMs(Report* r, const std::string& name,
            const std::vector<double>& samples_ns, double q = 0.5);

/// The host facts every run prints: nproc and the resolved SIMD tier.
void AddHostFacts(Report* r, const Options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

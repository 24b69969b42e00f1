// Per-operator execution profiles: the feedback that drives adaptive
// parallelization (paper §2 "Run-time environment": scheduler + interpreter +
// profiler; profiled data = operator execution time, memory claims, thread).
#ifndef APQ_PROFILE_PROFILER_H_
#define APQ_PROFILE_PROFILER_H_

#include <string>
#include <vector>

#include "exec/cost_model.h"
#include "exec/evaluator.h"
#include "plan/plan.h"
#include "sched/simulator.h"

namespace apq {

/// \brief Profile of one operator execution within a run: what the evaluator
/// measured (OpMetrics, including the per-morsel histogram the skew-aware
/// mutator turns into value-balanced split points) plus where the simulated
/// machine placed it and the skews derived from its morsels.
struct OpProfile : OpMetrics {
  std::string label;
  double work_ns = 0;       // cost-model single-core work
  double start_ns = 0;
  double end_ns = 0;
  int core = -1;
  /// Morsel-driven execution (0 = ran whole-column). morsel_skew is the max
  /// morsel wall-time over the mean (1 = perfectly balanced): the
  /// intra-operator skew signal the adaptive loop observes alongside the
  /// inter-operator times.
  uint64_t num_morsels = 0;
  double morsel_skew = 0;
  /// Deterministic companion to the wall-time skew: max over min per-row
  /// tuple-weight density across the operator's morsels (weight = tuples_in
  /// + 2*tuples_out, normalized by each morsel's covered base-row domain).
  /// 1 = the tuple work is evenly spread over the operator's range; >1 = the
  /// output (and hence materialization cost) concentrates in part of the
  /// range — the paper's Fig 12 value skew. 0 when the morsels carry no
  /// usable domain information (group-by ingest, sort runs, probe
  /// positions). Unlike morsel_skew this is identical run-to-run, so the
  /// mutator can act on it without chasing hardware noise.
  double morsel_tuple_skew = 0;

  double duration_ns() const { return end_ns - start_ns; }

  /// Fills num_morsels / morsel_skew / morsel_tuple_skew from `morsels`
  /// (also used by tests to build synthetic skewed profiles).
  void ComputeSkewFromMorsels();
};

/// \brief Profile of one complete query run on the simulated machine.
struct RunProfile {
  std::vector<OpProfile> ops;  // in execution (topological) order
  double makespan_ns = 0;
  double utilization = 0;  // multi-core utilization (Figs 19/20)

  /// The most expensive operator by measured execution time, skipping
  /// kResult. Returns ops index, or -1 if empty.
  int MostExpensiveIndex() const;

  /// Node id of the most expensive operator (-1 if none).
  int MostExpensiveNode() const;

  /// Total busy time across operators (the "total CPU core time" line of the
  /// paper's tomograph captions).
  double TotalBusyNs() const;

  /// Worst intra-operator morsel skew across the run (0 when no operator ran
  /// morsel-driven).
  double MaxMorselSkew() const;

  /// Worst deterministic per-operator tuple-weight skew across the run (0
  /// when no morselized operator carried domain information).
  double MaxMorselTupleSkew() const;
};

/// \brief Builds simulator tasks from evaluated metrics, wiring dataflow
/// dependencies from the plan.
/// `instance` and `arrival_ns` support concurrent-workload simulations; the
/// returned task order matches `metrics` order.
std::vector<SimTask> BuildSimTasks(const QueryPlan& plan,
                                   const std::vector<OpMetrics>& metrics,
                                   const CostModel& cost_model,
                                   int instance = 0, double arrival_ns = 0);

/// \brief Assembles per-operator profiles from metrics plus simulated
/// timings (timings[i] corresponds to metrics[i]).
RunProfile MakeRunProfile(const QueryPlan& plan,
                          const std::vector<OpMetrics>& metrics,
                          const CostModel& cost_model,
                          const std::vector<SimTaskTiming>& timings,
                          double makespan_ns, double utilization);

/// \brief One run of a query on the simulated machine.
struct SimulatedRun {
  double time_ns = 0;   // the query's response time
  /// Its operators' profile. makespan_ns is time_ns, and utilization is
  /// the operators' busy time over time_ns on every logical core.
  RunProfile profile;
};

/// \brief Simulates one evaluated run of `plan` as instance 0, alongside
/// `background` (whose deps index the background vector; its instance-0
/// tasks become instance 1). Engine::RunPlan and the adaptive loop both
/// time a run with this.
SimulatedRun SimulateRun(const QueryPlan& plan,
                         const std::vector<OpMetrics>& metrics,
                         const CostModel& cost_model,
                         const Simulator& simulator,
                         const std::vector<SimTask>& background,
                         uint64_t seed_salt);

/// \brief ASCII rendering of per-core operator activity over time, in the
/// spirit of the paper's tomograph figures (Figs 19/20).
std::string RenderTomograph(const RunProfile& profile, int width = 72);

/// \brief ASCII per-operator report: one row per operator with its measured
/// time, tuple flow, morsel count, p50/p95 per-morsel wall time (from the
/// obs::Histogram latency ladder; "-" when the operator ran whole-column or
/// the raw morsel histogram was dropped), and tuple skew, plus a summary
/// line with the run's worst max/mean wall and tuple skews — so imbalance is
/// visible straight from the printed profile, without walking AdaptiveRun
/// programmatically.
std::string RenderOpReport(const RunProfile& profile);

}  // namespace apq

#endif  // APQ_PROFILE_PROFILER_H_

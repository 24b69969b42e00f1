// The adaptive parallelization driver: repeated query invocations, each run
// profiled on the simulated machine, the most expensive operator mutated,
// until the convergence controller stops the process (paper Fig 2 workflow).
#ifndef APQ_ADAPTIVE_EXECUTOR_H_
#define APQ_ADAPTIVE_EXECUTOR_H_

#include <string>
#include <vector>

#include "adaptive/convergence.h"
#include "adaptive/mutator.h"
#include "exec/compare.h"
#include "exec/cost_model.h"
#include "exec/evaluator.h"
#include "plan/plan.h"
#include "profile/profiler.h"
#include "sched/simulator.h"

namespace apq {

/// \brief What one adaptive run measured.
struct AdaptiveRun {
  int run = 0;
  double time_ns = 0;          // response time of this invocation (simulated)
  double wall_ns = 0;          // hardware truth: evaluator wall-clock time
  PlanStats plan_stats;        // shape of the plan that executed
  /// Worst per-operator morsel skew (max/mean morsel wall time) observed in
  /// this run; 0 when the run executed whole-column. Intra-operator feedback
  /// the convergence loop sees alongside the operator times.
  double max_morsel_skew = 0;
  /// Worst deterministic per-operator tuple-weight skew
  /// (OpProfile::morsel_tuple_skew) observed in this run; 0 when no
  /// morselized operator carried domain information.
  double max_morsel_tuple_skew = 0;
  /// Operators whose skew in THIS run crossed the mutator's skew threshold
  /// and therefore got a shrunken morsel size for the NEXT run (the runtime
  /// skew response).
  int skew_hint_ops = 0;
};

/// \brief One entry of the adaptive-convergence lineage: the decision that
/// followed a run. Entry i pairs with AdaptiveOutcome::runs[i] (what that
/// run measured); together they answer "how did this query reach its
/// converged plan", serialized into the per-query profile JSON
/// (profile/profile_json.h) and served by the HTTP introspection endpoint
/// as /debug/profile/<query-id>.
struct AdaptiveLineage {
  /// The operator parallelized after this run (-1 when the run ended the
  /// process — converged, or nothing left to mutate).
  int victim = -1;
  /// "basic" / "basic-skew" / "medium" / "advanced" / "none".
  std::string action = "none";
  /// True when the mutation used skew-aware value-balanced re-partitioning.
  bool skew_aware = false;
  /// Interior base-row split points the mutation chose
  /// (MutationReport::split_rows); empty for non-splitting actions.
  std::vector<uint64_t> split_rows;
};

/// \brief Outcome of a full adaptive-parallelization instance.
struct AdaptiveOutcome {
  std::vector<AdaptiveRun> runs;   // runs[0] = serial plan
  /// Per-run adaptation decisions, parallel to `runs` (entry i records what
  /// the mutator did AFTER run i): lineage.size() == runs.size() ==
  /// total_runs.
  std::vector<AdaptiveLineage> lineage;
  /// The obs::CurrentQueryId() active while the loop ran (0 outside an
  /// Engine query) — correlates this outcome with trace spans and the
  /// introspection endpoint's /debug/profile/<id>.
  uint64_t query_id = 0;
  double serial_time_ns = 0;
  double gme_time_ns = 0;
  int gme_run = -1;
  /// Raw minimum over all runs (may differ from the GME when late
  /// sub-threshold refinements are discarded by the GME rule).
  double best_time_ns = 0;
  int best_run = -1;
  int total_runs = 0;
  /// Mutations that used skew-aware value-balanced re-partitioning
  /// ("basic-skew") across the whole adaptive process.
  int skew_mutations = 0;
  QueryPlan gme_plan;              // the plan the process converged on
  /// Profile of the GME run. It keeps every scalar field (including the
  /// per-op skew signals) but NOT the raw OpProfile::morsels histograms —
  /// those are stripped to bound memory, so here num_morsels > 0 with an
  /// empty morsels vector is expected.
  RunProfile gme_profile;
  Intermediate result;             // query result (identical across runs)

  double Speedup() const {
    return gme_time_ns > 0 ? serial_time_ns / gme_time_ns : 0;
  }
};

/// \brief Configuration of the adaptive executor.
struct AdaptiveParams {
  ConvergenceParams convergence;
  MutatorConfig mutator;
  /// Verify that every mutated plan reproduces the serial result (enabled in
  /// tests; costs one comparison per run).
  bool verify_results = false;
};

/// \brief Runs the adaptive-parallelization feedback loop.
class AdaptiveExecutor {
 public:
  AdaptiveExecutor(Evaluator* evaluator, CostModel cost_model,
                   Simulator simulator, AdaptiveParams params)
      : evaluator_(evaluator),
        cost_model_(cost_model),
        simulator_(simulator),
        params_(params) {}

  /// Runs the loop starting from `serial_plan`. If `background` is non-empty,
  /// those tasks are co-scheduled with every run (concurrent workload); the
  /// reported time is this query's response time.
  StatusOr<AdaptiveOutcome> Run(const QueryPlan& serial_plan,
                                const std::vector<SimTask>& background = {});

 private:
  Evaluator* evaluator_;
  CostModel cost_model_;
  Simulator simulator_;
  AdaptiveParams params_;
};

}  // namespace apq

#endif  // APQ_ADAPTIVE_EXECUTOR_H_

// Public facade: ties storage, evaluation, the cost model, the simulated
// machine, and the three parallelization strategies together. Every
// RunPlan / RunAdaptive call, ok or failed, is recorded once: one
// obs::QueryRecord, which /debug/queries shows and from which the
// query's /debug/profile/<id> document is rendered.
#ifndef APQ_ENGINE_ENGINE_H_
#define APQ_ENGINE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "adaptive/executor.h"
#include "exec/cost_model.h"
#include "exec/evaluator.h"
#include "heuristic/parallelizer.h"
#include "plan/plan.h"
#include "profile/profiler.h"
#include "sched/simulator.h"
#include "storage/table.h"

namespace apq {

/// \brief Engine-wide configuration.
struct EngineConfig {
  /// The simulated machine; its logical_cores is the default heuristic DOP
  /// and the cores of every adaptive run's convergence controller.
  SimConfig sim = SimConfig::TwoSocket32();
  ConvergenceParams convergence;   // cores: RunAdaptive uses sim's
  MutatorConfig mutator;
  bool verify_results = false;     // cross-check every adaptive run
  /// Real execution backend: the vectorized kernels at the best SIMD tier
  /// the CPU supports, and the thread fleet (sched/morsel_scheduler.h) that
  /// runs operator morsels and exchange clone levels. Simulated timings are
  /// unaffected; wall_ns fields report hardware truth. Tracing (obs/trace.h)
  /// and the introspection endpoint (obs/http_exporter.h) are process-wide,
  /// switched by APQ_TRACE / APQ_HTTP or their obs/ calls, not per engine.
  /// use_morsels gives the engine its own fleet, one worker per hardware
  /// thread, made when the engine is built.
  bool use_morsels = false;
  uint64_t morsel_rows = kDefaultMorselRows;
  /// A fleet shared with other engines, handed to the evaluator instead of
  /// one of the engine's own (use_morsels is then implied): pass another
  /// engine's morsel_scheduler() so concurrent queries multiplex one worker
  /// fleet instead of one pool each.
  std::shared_ptr<MorselScheduler> morsel_scheduler;

  static EngineConfig WithSim(SimConfig s) {
    EngineConfig c;
    c.sim = s;
    return c;
  }
};

/// \brief Result of executing one plan once on the simulated machine.
struct QueryRunResult {
  /// Process-wide query id (obs/query_log.h): the key correlating this
  /// result with its trace spans and /debug/profile/<id> document.
  uint64_t query_id = 0;
  double time_ns = 0;       // response time (simulated machine)
  double wall_ns = 0;       // hardware truth: evaluator wall-clock time
  double utilization = 0;   // multi-core utilization during the run
  Intermediate result;      // exact query result
  RunProfile profile;
  PlanStats stats;
};

/// \brief The column-store engine with adaptive parallelization.
class Engine {
 public:
  explicit Engine(EngineConfig config = EngineConfig())
      : config_(config),
        evaluator_(ExecOptions{config.morsel_rows},
                   config.morsel_scheduler == nullptr && config.use_morsels
                       ? std::make_shared<MorselScheduler>()
                       : config.morsel_scheduler),
        simulator_(config.sim) {}

  const EngineConfig& config() const { return config_; }
  Evaluator* evaluator() { return &evaluator_; }

  /// The thread fleet this engine's queries execute on (null unless
  /// use_morsels, a shared scheduler or APQ_FORCE_MORSELS): operator morsels
  /// and the clone levels of heuristic or adapted plans run on it. Pass it
  /// to other engines' EngineConfig::morsel_scheduler to share one fleet.
  const std::shared_ptr<MorselScheduler>& morsel_scheduler() const {
    return evaluator_.morsel_scheduler();
  }
  const Simulator& simulator() const { return simulator_; }
  const CostModel& cost_model() const { return cost_model_; }

  /// Executes `plan` as-is; background tasks (if any) contend for the
  /// machine. `seed_salt` decorrelates noise between repetitions.
  /// `morsel_rows` is this call's base morsel size (0 = the configured
  /// EngineConfig::morsel_rows; APQ_FORCE_MORSELS=<rows> overrides both).
  StatusOr<QueryRunResult> RunPlan(const QueryPlan& plan,
                                   const std::vector<SimTask>& background = {},
                                   uint64_t seed_salt = 0,
                                   uint64_t morsel_rows = 0);

  /// Serial execution (the optimizer's serial plan, run 0 of adaptation).
  StatusOr<QueryRunResult> RunSerial(const QueryPlan& serial_plan,
                                     uint64_t seed_salt = 0) {
    return RunPlan(serial_plan, {}, seed_salt);
  }

  /// Heuristic (static) parallelization at `dop` (default
  /// config.sim.logical_cores).
  StatusOr<QueryRunResult> RunHeuristic(
      const QueryPlan& serial_plan, int dop = -1,
      const std::vector<SimTask>& background = {}, uint64_t seed_salt = 0);

  /// Statically parallelizes without running (for plan-shape analysis).
  StatusOr<QueryPlan> HeuristicPlan(const QueryPlan& serial_plan,
                                    int dop = -1) const;

  /// Full adaptive-parallelization instance (repeated invocations until
  /// convergence).
  StatusOr<AdaptiveOutcome> RunAdaptive(
      const QueryPlan& serial_plan,
      const std::vector<SimTask>& background = {});

  /// Builds a background workload: `clients` concurrent streams, each running
  /// its plan from `mix` (round-robin), arrivals spaced by `spacing_ns`.
  /// Plans are evaluated once; tasks are replicated per client. Instances are
  /// numbered from 1 (instance 0 is reserved for the foreground query).
  StatusOr<std::vector<SimTask>> BuildBackground(
      const std::vector<const QueryPlan*>& mix, int clients,
      double spacing_ns = 0.0);

 private:
  /// RunPlan minus the query-id / record bookkeeping (the outer method
  /// records the outcome — including errors — into the query log).
  StatusOr<QueryRunResult> RunPlanInner(const QueryPlan& plan,
                                        const std::vector<SimTask>& background,
                                        uint64_t seed_salt,
                                        uint64_t morsel_rows);

  EngineConfig config_;
  Evaluator evaluator_;
  CostModel cost_model_;
  Simulator simulator_;
};

}  // namespace apq

#endif  // APQ_ENGINE_ENGINE_H_

// Plan interpretation: executes a QueryPlan on real data, producing exact
// results plus per-operator workload metrics for the cost model.
//
// Results are always exact regardless of how the plan was parallelized. Two
// timings exist for a run: the virtual-time simulator (src/sched/simulator.h)
// converts the metrics gathered here into the paper machine's time, and the
// evaluator's own wall clock is hardware truth.
//
// One thread fleet, the MorselScheduler, carries all real parallelism. A plan
// containing an exchange union runs one dataflow level at a time (a level is
// the nodes whose longest input path from a leaf has the same length), each
// multi-node level as one fleet job, so exchange clones run concurrently.
// Within a node, every operator has one routine. Selects, fetch-join gathers
// and join probes run one span kernel from exec/kernels.h: per morsel on the
// fleet when the input splits, once inline over the whole input otherwise.
// Group-by ingest (exec/agg/GroupByIngest) and sort (exec/sort/SortPerm)
// take the fleet and the node's morsel size the same way and run inline
// when there is no fleet or the input fits one morsel. Grouped aggregation
// is one sequential fold, so every group sums its rows in input order.
// Plans without a union, and evaluators without a fleet, run their nodes
// inline in topological order.
//
// The row-at-a-time reference for select, fetch-join, group-by and sort
// lives with the tests (tests/reference_ops.h), which recompute every such
// node of an EvalResult from its own inputs.
#ifndef APQ_EXEC_EVALUATOR_H_
#define APQ_EXEC_EVALUATOR_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "exec/hash_index.h"
#include "exec/intermediate.h"
#include "exec/morsel_source.h"
#include "exec/simd/simd_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "sched/morsel_scheduler.h"
#include "util/status.h"

namespace apq {

/// \brief What one operator execution did, in machine-independent units.
/// The cost model converts this into virtual time.
struct OpMetrics {
  int node_id = -1;
  OpKind kind = OpKind::kResult;
  uint64_t tuples_in = 0;    // tuples scanned / probed / consumed
  uint64_t tuples_out = 0;   // tuples produced
  uint64_t bytes_in = 0;     // bytes read (sequential)
  uint64_t bytes_out = 0;    // bytes materialized
  uint64_t random_accesses = 0;       // gathers / hash probes
  uint64_t random_working_set = 0;    // bytes of the randomly accessed region
  uint64_t hash_build_rows = 0;       // rows inserted into a new hash index
  uint64_t sort_rows = 0;             // rows sorted (n log n term)
  uint64_t peak_bytes = 0;   // peak bytes charged while this operator ran
  uint64_t cpu_ns = 0;       // summed task execution time (node wall when
                             // the operator ran whole-column, no tasks)
  uint64_t queue_wait_ns = 0;  // summed scheduler queue-wait of its tasks
  /// Per-morsel breakdown in morsel (= input) order; empty when the operator
  /// ran whole-column. Morsel tuple counts sum exactly to tuples_in/out.
  std::vector<MorselMetrics> morsels;
};

/// \brief Result of interpreting a plan.
struct EvalResult {
  /// Intermediates of reachable nodes, indexed by node id.
  std::unordered_map<int, Intermediate> intermediates;
  /// Per-node workload metrics, in topological order of execution
  /// (deterministic: identical for serial and threaded execution).
  std::vector<OpMetrics> metrics;
  /// The intermediate feeding the result node.
  Intermediate result;
  /// Wall-clock nanoseconds the evaluator spent executing the plan.
  double wall_ns = 0;
};

/// \brief Execution backend configuration.
struct ExecOptions {
  /// Give this evaluator a thread fleet (sched/morsel_scheduler.h): operator
  /// inputs split into fixed-size morsels run as fleet tasks and are
  /// concatenated in morsel order — bit-identical to whole-column execution —
  /// and the clone levels of exchange-parallelized plans run concurrently.
  /// An injected scheduler (set_morsel_scheduler) or the APQ_FORCE_MORSELS
  /// environment variable turns this on too.
  bool use_morsels = false;
  /// Rows per morsel (0 = kDefaultMorselRows).
  uint64_t morsel_rows = kDefaultMorselRows;
  /// Workers of a lazily created morsel scheduler (0 = one per hardware
  /// thread). Ignored when a shared scheduler is injected via
  /// set_morsel_scheduler (the multi-query configuration).
  int morsel_workers = 0;
  /// SIMD dispatch tier for the vectorized kernels: kAuto resolves to the
  /// best level the CPU supports (cpuid probe), lower levels pin the tier
  /// (for differential testing). The APQ_SIMD environment variable
  /// (scalar|avx2|avx512; an unknown name warns and is ignored) overrides
  /// this. Outputs are bit-identical at every level. Levels above what the
  /// CPU/build supports clamp down.
  simd::SimdLevel simd_level = simd::SimdLevel::kAuto;
};

/// Registers the apq_build_info metric (constant 1, labeled with the
/// version, the resolved SIMD dispatch tier, and the build type) once per
/// process, so scraped fleets can correlate perf deltas with binaries.
/// Called from set_options after SIMD resolution; later tier changes keep
/// the first registration (one build = one info series).
void RegisterBuildInfo(simd::SimdLevel level);

/// \brief Interprets plans operator-at-a-time (like MonetDB's MAL
/// interpreter). Hash indexes for join inners are cached across operators and
/// across repeated invocations of the same Evaluator, mirroring BAT hash
/// caching; the cache is thread-safe so parallel join clones share one build.
class Evaluator {
 public:
  Evaluator() = default;
  explicit Evaluator(ExecOptions options) { set_options(options); }

  void set_options(ExecOptions options) {
    // A lazily created scheduler is rebuilt at the new worker count; an
    // injected (shared) scheduler is never dropped by an options change.
    if (options_.morsel_workers != options.morsel_workers &&
        morsel_sched_owned_) {
      morsel_sched_.reset();
      morsel_sched_owned_ = false;
    }
    options_ = options;
    // Resolved once per options change, not per kernel call: env override >
    // requested level > cpuid probe. Scalar tier = all-null table = the
    // generic loops.
    simd_ops_ = &simd::Resolve(options_.simd_level);
    // Observability wiring (rare path: once per options change). APQ_TRACE /
    // APQ_METRICS are read here so benches and examples that never touch
    // Engine still export at exit; the gauge mirrors the dispatch tier the
    // kernels actually run with.
    obs::InitFromEnv();
    obs::MetricsRegistry::Global()
        .GetGauge("apq_simd_dispatch_level")
        ->Set(static_cast<int64_t>(simd_ops_->level));
    RegisterBuildInfo(simd_ops_->level);
  }
  const ExecOptions& options() const { return options_; }

  /// Executes `plan`; on success fills `out`.
  Status Execute(const QueryPlan& plan, EvalResult* out);

  /// Injects a (possibly shared) morsel scheduler. Concurrent queries that
  /// share one scheduler multiplex one worker fleet instead of spawning a
  /// pool per query; Engine wires its scheduler through here.
  void set_morsel_scheduler(std::shared_ptr<MorselScheduler> sched) {
    morsel_sched_ = std::move(sched);
    morsel_sched_owned_ = false;
  }
  const std::shared_ptr<MorselScheduler>& morsel_scheduler() const {
    return morsel_sched_;
  }
  /// Returns the morsel scheduler, creating one (options().morsel_workers
  /// workers) if none was injected.
  const std::shared_ptr<MorselScheduler>& EnsureMorselScheduler();

  /// True when this evaluator has a thread fleet: use_morsels, an injected
  /// scheduler, or the APQ_FORCE_MORSELS environment override.
  bool MorselsEnabled() const;

  /// Rows per morsel actually used: options().morsel_rows, unless
  /// APQ_FORCE_MORSELS carries an explicit row count (e.g. =4096).
  uint64_t EffectiveMorselRows() const;

  /// The validated APQ_FORCE_MORSELS value (1..2^32, read once through
  /// util/env.h): 0 = unset or rejected, 1 = on with the configured size,
  /// >1 = forced rows per morsel. Exposed so tests reason about the forced
  /// size with the evaluator's own reading instead of re-implementing it.
  static uint64_t ForcedEnvMorselRows();

  /// The SIMD dispatch table this evaluator's kernels run with (after the
  /// APQ_SIMD override and cpuid clamping). Never null once options are set.
  const simd::SimdOps* simd_ops() const { return simd_ops_; }

  /// Rows per morsel for one specific plan node: the adaptive override when
  /// one was injected, otherwise EffectiveMorselRows().
  uint64_t MorselRowsForNode(int node_id) const;

  /// Injects per-node morsel-size overrides for subsequent Execute() calls
  /// (the adaptive executor's runtime response to observed morsel skew).
  /// Replaces any previous hints; must not be called concurrently with an
  /// Execute(). Node ids refer to the next plan to be executed — mutated
  /// clones get fresh ids and therefore no stale hints.
  void SetAdaptiveMorselRows(std::unordered_map<int, uint64_t> rows_by_node) {
    adaptive_rows_ = std::move(rows_by_node);
  }
  const std::unordered_map<int, uint64_t>& adaptive_morsel_rows() const {
    return adaptive_rows_;
  }

 private:
  /// Read view over per-node result slots during one execution. A node id is
  /// readable iff done[id] is set, which RunNodes guarantees for every input
  /// before a node runs.
  struct ExecContext {
    const std::vector<Intermediate>* slots = nullptr;
    const std::vector<uint8_t>* done = nullptr;
  };

  /// Runs the nodes of `order` (topological) into their slots: inline in
  /// order, or — for a plan with an exchange union on an evaluator with a
  /// fleet — one dataflow level at a time, each multi-node level as one
  /// fleet job. Sets done[id] for every node that succeeded. Levels stop at
  /// the first one with a failure and return the error of its lowest
  /// topological node: deterministic, but with failures on two levels not
  /// always the error inline execution stops at (clone chains interleave in
  /// topological order).
  Status RunNodes(const QueryPlan& plan, const std::vector<int>& order,
                  std::vector<Intermediate>* slots, std::vector<uint8_t>* done,
                  std::vector<OpMetrics>* metrics);

  Status ExecNode(const QueryPlan& plan, const PlanNode& node,
                  const ExecContext& ctx, Intermediate* result, OpMetrics* m);
  Status ExecNodeInner(const QueryPlan& plan, const PlanNode& node,
                       const ExecContext& ctx, Intermediate* result,
                       OpMetrics* m);

  Status ExecSelect(const PlanNode& node, const ExecContext& ctx,
                    Intermediate* result, OpMetrics* m);
  Status ExecFetchJoin(const PlanNode& node, const ExecContext& ctx,
                       Intermediate* result, OpMetrics* m);
  Status ExecJoin(const PlanNode& node, const ExecContext& ctx,
                  Intermediate* result, OpMetrics* m);
  Status ExecGroupBy(const PlanNode& node, const ExecContext& ctx,
                     Intermediate* result, OpMetrics* m);
  Status ExecAggregate(const PlanNode& node, const ExecContext& ctx,
                       Intermediate* result, OpMetrics* m);
  Status ExecAggrMerge(const PlanNode& node, const ExecContext& ctx,
                       Intermediate* result, OpMetrics* m);
  Status ExecUnion(const PlanNode& node, const ExecContext& ctx,
                   Intermediate* result, OpMetrics* m);
  Status ExecMap(const PlanNode& node, const ExecContext& ctx,
                 Intermediate* result, OpMetrics* m);
  Status ExecSort(const PlanNode& node, const ExecContext& ctx,
                  Intermediate* result, OpMetrics* m);

  /// The fleet morsel tasks run on: the (created on first use) scheduler
  /// when MorselsEnabled(), else null — every operator routine then runs
  /// once inline over the whole input.
  MorselScheduler* Fleet();

  std::shared_ptr<HashIndex> GetOrBuildHash(const Column& column);

  ExecOptions options_;
  /// Active SIMD dispatch table (see set_options). The default matches the
  /// default ExecOptions: auto-resolved.
  const simd::SimdOps* simd_ops_ = &simd::Resolve(simd::SimdLevel::kAuto);
  std::shared_ptr<MorselScheduler> morsel_sched_;  // injected or lazy
  bool morsel_sched_owned_ = false;   // true iff lazily created (not injected)
  /// Per-node morsel-size overrides for the next Execute (adaptive skew
  /// response); read-only during execution.
  std::unordered_map<int, uint64_t> adaptive_rows_;

  /// One cache entry per join-inner column. The per-entry once_flag is the
  /// build latch: concurrent first builds of *different* inners proceed in
  /// parallel (hash_mu_ only guards the map itself), while clones racing for
  /// the *same* inner still share a single build.
  struct HashSlot {
    std::once_flag built;
    std::shared_ptr<HashIndex> index;
  };

  std::mutex hash_mu_;  // guards hash_cache_ (the map) and hash_builds_
  std::unordered_map<const Column*, std::shared_ptr<HashSlot>> hash_cache_;
  /// Hash builds performed during the current Execute. Build cost is
  /// attributed after the run to the topologically-first join over the built
  /// column, so hash_build_rows in the metrics is identical for serial and
  /// threaded execution (under threads, any clone may race to build first).
  std::vector<std::pair<const Column*, uint64_t>> hash_builds_;
};

}  // namespace apq

#endif  // APQ_EXEC_EVALUATOR_H_

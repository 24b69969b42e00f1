// Plan interpretation: executes a QueryPlan on real data, producing exact
// results plus per-operator workload metrics for the cost model.
//
// Results are always exact regardless of how the plan was parallelized. Two
// timings exist for a run: the virtual-time simulator (src/sched/simulator.h)
// converts the metrics gathered here into the paper machine's time, and the
// evaluator's own wall clock is hardware truth.
//
// One thread fleet, the MorselScheduler, carries all real parallelism; it is
// handed to the evaluator when the evaluator is built. A plan containing an
// exchange union runs one dataflow level at a time (a level is the nodes
// whose longest input path from a leaf has the same length), each
// multi-node level as one fleet job, so exchange clones run concurrently.
// Within a node, every operator has one routine. Selects, fetch-join gathers
// and join probes run one span kernel from exec/kernels.h: per morsel on the
// fleet when the input splits, once inline over the whole input otherwise.
// Group-by ingest (exec/agg/GroupByIngest) and sort (exec/sort/SortPerm)
// take the fleet and the node's morsel size the same way and run inline
// when there is no fleet or the input fits one morsel. One fold defines
// every aggregate function: grouped aggregation folds rows in input order,
// so every group sums its rows in that order, and an aggr-merge folds its
// clones' partials the same way. Plans without a union, and evaluators
// without a fleet, run their nodes inline in topological order.
//
// The evaluator keeps only what outlives a query (options and SIMD table,
// fixed when it is built; fleet; hash cache); what one Execute call needs,
// its base and per-node morsel sizes included, travels with the call.
//
// The row-at-a-time reference for select, fetch-join, group-by, sort,
// aggregation and aggr-merge lives with the tests (tests/reference_ops.h),
// which recompute every such node of an EvalResult from its own inputs.
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
  /// Resource accounting (obs/resource_tracker.h): peak bytes charged while
  /// the operator ran, its summed task execution time (node wall when it
  /// ran whole-column), and its tasks' summed scheduler queue-wait. Tasks
  /// bill only under a query context, so outside an engine query cpu_ns is
  /// the node wall and queue_wait_ns is 0.
  uint64_t peak_bytes = 0;
  uint64_t cpu_ns = 0;
  uint64_t queue_wait_ns = 0;
  /// Per-morsel breakdown in morsel (= input) order; empty when the operator
  /// ran whole-column. Morsel tuple counts sum exactly to tuples_in/out.
  std::vector<MorselMetrics> morsels;
};

/// \brief Result of interpreting a plan.
struct EvalResult {
  /// Intermediates of reachable nodes, indexed by node id; the result
  /// node's is `result`.
  std::unordered_map<int, Intermediate> intermediates;
  /// Per-node workload metrics, in topological order of execution
  /// (deterministic: identical for serial and threaded execution).
  std::vector<OpMetrics> metrics;
  /// The query result: what the result node's input produced.
  Intermediate result;
  /// Wall-clock nanoseconds the evaluator spent executing the plan.
  double wall_ns = 0;
};

/// \brief Execution backend configuration (the fleet is a constructor
/// argument of Evaluator, not an option).
struct ExecOptions {
  /// Rows per morsel on a fleet (0 = kDefaultMorselRows). Morsel outputs
  /// concatenate in morsel order, bit-identical to whole-column execution.
  uint64_t morsel_rows = kDefaultMorselRows;
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
/// Called by the Evaluator constructor after SIMD resolution; evaluators
/// built later at another tier keep the first registration (one build = one
/// info series).
void RegisterBuildInfo(simd::SimdLevel level);

/// Per-node morsel sizes for one Execute call, keyed by plan node id: the
/// adaptive loop's response to the morsel skew of its previous run. A node
/// without an entry, or with 0, runs at the call's base size.
using MorselRowsByNode = std::unordered_map<int, uint64_t>;

/// \brief Interprets plans operator-at-a-time (like MonetDB's MAL
/// interpreter). Hash indexes for join inners are cached across operators and
/// across repeated invocations of the same Evaluator, mirroring BAT hash
/// caching; the cache is thread-safe so parallel join clones share one build.
class Evaluator {
 public:
  /// `options` are fixed for the evaluator's life. `fleet` runs this
  /// evaluator's morsels and clone levels; sharing one lets concurrent
  /// queries multiplex one worker fleet. Without one every node runs
  /// inline, unless APQ_FORCE_MORSELS makes the evaluator its own fleet of
  /// one worker per hardware thread. Resolves the SIMD table and wires
  /// observability (evaluator.cc).
  explicit Evaluator(ExecOptions options = ExecOptions(),
                     std::shared_ptr<MorselScheduler> fleet = nullptr);
  /// Returns the bytes of the cached hash indexes to apq_hash_cache_bytes.
  ~Evaluator();

  const ExecOptions& options() const { return options_; }

  /// Executes `plan`; on success fills `out`. For this call only,
  /// `morsel_rows` is the base morsel size (0 = options().morsel_rows) and
  /// `node_rows` sets the size of the nodes it names; node ids refer to
  /// `plan`, so a mutated plan's fresh clones get no stale sizes.
  /// APQ_FORCE_MORSELS=<rows> overrides the base size of every call.
  Status Execute(const QueryPlan& plan, EvalResult* out,
                 const MorselRowsByNode& node_rows = {},
                 uint64_t morsel_rows = 0);

  /// The thread fleet, fixed at construction; null when nodes run inline.
  const std::shared_ptr<MorselScheduler>& morsel_scheduler() const {
    return fleet_;
  }

  /// Base rows per morsel of a call that passes `morsel_rows` (0 =
  /// options().morsel_rows), unless APQ_FORCE_MORSELS carries an explicit
  /// row count (e.g. =4096).
  uint64_t EffectiveMorselRows(uint64_t morsel_rows = 0) const;

  /// The validated APQ_FORCE_MORSELS value (1..2^32, read once through
  /// util/env.h): 0 = unset or rejected, 1 = on with the configured size,
  /// >1 = forced rows per morsel. Exposed so tests reason about the forced
  /// size with the evaluator's own reading instead of re-implementing it.
  static uint64_t ForcedEnvMorselRows();

  /// The SIMD dispatch table this evaluator's kernels run with (after the
  /// APQ_SIMD override and cpuid clamping). Never null.
  const simd::SimdOps* simd_ops() const { return simd_ops_; }

 private:
  /// (inner column, keys) of every hash build one Execute call made.
  using HashBuildLog = std::vector<std::pair<const Column*, uint64_t>>;

  /// One Execute call's state, read by every node it runs. A node id's slot
  /// is readable iff done[id] is set, which RunNodes guarantees for every
  /// input before a node runs.
  struct ExecContext {
    const std::vector<Intermediate>* slots = nullptr;
    const std::vector<uint8_t>* done = nullptr;
    const MorselRowsByNode* node_rows = nullptr;
    uint64_t base_rows = 0;  // the call's EffectiveMorselRows
    /// The hash builds this call made; appended under hash_mu_.
    HashBuildLog* hash_builds = nullptr;

    /// Rows per morsel for `node_id`: its node_rows entry, else base_rows.
    uint64_t MorselRows(int node_id) const {
      if (!node_rows->empty()) {
        auto it = node_rows->find(node_id);
        if (it != node_rows->end() && it->second > 0) return it->second;
      }
      return base_rows;
    }
  };

  /// Runs the nodes of `order` (topological) into their slots, which ctx
  /// views: inline in order, or — for a plan with an exchange union on an
  /// evaluator with a fleet — one dataflow level at a time, each multi-node
  /// level as one fleet job. Sets done[id] for every node that succeeded.
  /// Levels stop at the first one with a failure and return the error of
  /// its lowest topological node: deterministic, but with failures on two
  /// levels not always the error inline execution stops at (clone chains
  /// interleave in topological order).
  Status RunNodes(const QueryPlan& plan, const std::vector<int>& order,
                  const ExecContext& ctx, std::vector<Intermediate>* slots,
                  std::vector<uint8_t>* done, std::vector<OpMetrics>* metrics);

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

  /// The cached index over `column`, built on first use; a build is logged
  /// in ctx.hash_builds.
  std::shared_ptr<HashIndex> GetOrBuildHash(const Column& column,
                                            const ExecContext& ctx);

  const ExecOptions options_;
  /// The SIMD dispatch table, resolved once at construction: env override >
  /// requested level > cpuid probe. Scalar tier = all-null table = the
  /// generic loops.
  const simd::SimdOps* const simd_ops_;
  /// Null runs every operator routine once inline over the whole input.
  const std::shared_ptr<MorselScheduler> fleet_;

  /// One cache entry per join-inner column. The per-entry once_flag is the
  /// build latch: concurrent first builds of *different* inners proceed in
  /// parallel (hash_mu_ only guards the map itself), while clones racing for
  /// the *same* inner still share a single build.
  struct HashSlot {
    std::once_flag built;
    std::shared_ptr<HashIndex> index;
  };

  /// Guards hash_cache_ (the map) and the build logs of running calls.
  std::mutex hash_mu_;
  std::unordered_map<const Column*, std::shared_ptr<HashSlot>> hash_cache_;
};

}  // namespace apq

#endif  // APQ_EXEC_EVALUATOR_H_

// Plan mutation: the paper's basic / medium / advanced mutation schemes
// (§2.1, Figs 3-6) plus the plan-explosion guard (§2.3).
//
//  - Basic:    clone an expensive filtering operator (select / fetch-join /
//              join) onto two halves of its range partition; an exchange
//              union (existing or new) packs the clones' results.
//  - Medium:   when an exchange union itself is expensive, remove it by
//              propagating its inputs to its dataflow-dependent consumers,
//              cloning each consumer per input, and packing with a new union.
//              Refused when the union's fan-in exceeds the threshold (15).
//  - Advanced: parallelize non-filtering operators (group-by / sort) by
//              cloning them per partition together with their dependent
//              aggregation operators; partial grouped aggregates are packed
//              by a cheap union and recombined by an aggr-merge.
//
// Mutations are pure plan-to-plan transformations; orphaned nodes stay in the
// node list but become unreachable from the result.
#ifndef APQ_ADAPTIVE_MUTATOR_H_
#define APQ_ADAPTIVE_MUTATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "plan/plan.h"
#include "profile/profiler.h"
#include "util/status.h"

namespace apq {

/// \brief Mutation tuning knobs.
struct MutatorConfig {
  /// Do not split partitions below this many rows (sized for this
  /// repository's scaled-down datasets; MonetDB's equivalent floor is much
  /// larger on full-size data).
  uint64_t min_partition_rows = 256;
  /// Paper §2.3: suppress exchange-union removal (medium mutation) when the
  /// union has more than this many inputs, to stop plan explosion.
  int union_fanin_threshold = 15;
  /// Partitions introduced per basic mutation. The paper uses 2 (one new
  /// operator per invocation) to observe plan evolution, and notes (§4.3)
  /// that "the number of runs could be made much lower if more and even
  /// number of operators are introduced per invocation" — this knob
  /// implements that extension.
  int split_ways = 2;
  /// Skew feedback (paper Fig 12): when the target operator's observed
  /// morsel skew — max(OpProfile::morsel_skew, OpProfile::morsel_tuple_skew)
  /// — reaches this threshold, the basic mutation switches from uniform
  /// range halving to value-balanced range re-partitioning with split points
  /// chosen from the profiled per-morsel tuple histogram. Both metrics are 1
  /// when perfectly balanced; 1.5 flags a morsel 50% over the mean (or a
  /// subrange 1.5x denser than the sparsest), comfortably above the noise of
  /// balanced runs while still catching the paper's clustered-value layouts
  /// (which profile at 2-3x).
  double skew_threshold = 1.5;
};

/// \brief What a mutation step did (for traces and tests).
struct MutationReport {
  bool mutated = false;
  int target_node = -1;       // the operator that was parallelized
  std::string action;         // "basic", "basic-skew", "medium", "advanced"
  /// True when the basic mutation used skew-aware value-balanced range
  /// re-partitioning instead of uniform halving.
  bool skew_aware = false;
  /// Interior split points (base-row boundaries between consecutive pieces)
  /// a basic split chose — pieces.size() - 1 entries, ascending. The trace
  /// exporter turns these into per-point re-partition events so a skewed
  /// split's chosen boundaries are visible in the tomograph.
  std::vector<uint64_t> split_rows;
};

/// \brief Applies the three mutation schemes to query plans.
class Mutator {
 public:
  explicit Mutator(MutatorConfig config = MutatorConfig())
      : config_(config) {}

  const MutatorConfig& config() const { return config_; }

  /// One adaptive-parallelization step: parallelize the most expensive
  /// operator of `profile`; if that operator cannot be mutated, fall back to
  /// the next most expensive. Returns the mutated plan; `report->mutated` is
  /// false if no operator could be parallelized further.
  StatusOr<QueryPlan> MutateMostExpensive(const QueryPlan& plan,
                                          const RunProfile& profile,
                                          MutationReport* report);

  // --- primitives (also used by the heuristic parallelizer and tests) -----

  /// Basic mutation: splits `node_id`'s range partition into `ways` clones
  /// and packs them with an exchange union (splicing into an existing union
  /// consumer to keep partition order, per Fig 8).
  Status SplitNode(QueryPlan* plan, int node_id, int ways);

  /// Medium mutation: removes union `union_id` by propagating its inputs to
  /// all consumers. `max_fanin` overrides the config threshold (the
  /// heuristic parallelizer passes a large value).
  Status PropagateUnion(QueryPlan* plan, int union_id, int max_fanin = -1);

  /// Advanced mutation of a group-by whose input is an exchange union:
  /// clones group-by and its dependent aggregates per union input, packs the
  /// partial grouped aggregates, and re-merges them.
  Status AdvancedGroupBy(QueryPlan* plan, int groupby_id);

  /// Advanced mutation of a sort/top-n whose input is an exchange union:
  /// per-partition sorts followed by a final merge sort.
  Status AdvancedSort(QueryPlan* plan, int sort_id);

  /// The base row range a node's output row ids are drawn from.
  static RowRange StaticOrigin(const QueryPlan& plan, int node_id);

  /// Splits `node_id` and applies the same split to its alignment partners —
  /// sibling value chains consumed by the same binary map or group-by /
  /// aggregate pair — so that later medium/advanced mutations stay
  /// applicable (the paper's §2.2 "resolving propagation dependencies").
  /// When `prof` (the node's profile from the run that chose it) shows skew
  /// at or above MutatorConfig::skew_threshold, the split points are chosen
  /// from the profiled per-morsel tuple histogram instead of uniform
  /// chunking (paper Fig 12 dynamic partitioning); partners follow the same
  /// points so partition structures stay pairwise aligned. `report` (if
  /// non-null) records whether the skew-aware path was taken.
  Status SplitAligned(QueryPlan* plan, int node_id, int ways = 2,
                      const OpProfile* prof = nullptr,
                      MutationReport* report = nullptr);

  /// Value-balanced split points for `range` derived from a per-morsel
  /// tuple histogram whose entries carry base-row domains (paper Fig 12):
  /// boundaries land on the strongest per-row weight-density edges (weight =
  /// tuples_in + 2*tuples_out), or on equal-cumulative-weight quantiles when
  /// the density has no sharp edge. Returns interior split rows (ascending,
  /// every resulting piece >= min_partition_rows, at most max_pieces - 1
  /// points); empty when the histogram carries no usable domain information
  /// — the caller then falls back to uniform chunking.
  static std::vector<uint64_t> SkewSplitPoints(
      RowRange range, const std::vector<MorselMetrics>& hist,
      uint64_t min_partition_rows, int max_pieces, int fallback_ways);

  /// Splices unions that feed unions (mat.pack is associative and order
  /// preserving); keeps partition structure flat and pairwise comparable.
  static void FlattenUnions(QueryPlan* plan);

 private:
  /// The shared basic-split eligibility gate: parallelizable kind, and not a
  /// pairs-fed fetch-join (which cannot be range-split order-preservingly).
  static Status CheckBasicSplittable(const QueryPlan& plan, int node_id);

  /// Mutates one specific operator according to its kind; Unsupported if this
  /// operator cannot be parallelized in its current form. `prof` is the
  /// operator's profile from the run that selected it (may be null — e.g.
  /// from the heuristic parallelizer — in which case splits are uniform).
  Status MutateOp(QueryPlan* plan, int node_id, MutationReport* report,
                  const OpProfile* prof);

  /// Computes the range pieces a basic split of `node_id` would create:
  /// skew-aware (value-balanced, from prof's morsel histogram) when prof
  /// crosses the skew threshold, uniform `ways` chunks otherwise. Performs
  /// the basic-split eligibility checks.
  StatusOr<std::vector<RowRange>> PlanPieces(const QueryPlan& plan,
                                             int node_id, int ways,
                                             const OpProfile* prof,
                                             bool* skewed) const;

  /// Basic split of `node_id` onto the given consecutive range pieces,
  /// packing the clones with an exchange union (splicing into an existing
  /// union consumer to keep partition order, per Fig 8).
  Status SplitNodeAt(QueryPlan* plan, int node_id,
                     const std::vector<RowRange>& pieces);

  /// Finds the most expensive splittable ancestor of `node_id` (used when a
  /// non-filtering operator's input is not yet partitioned).
  int FindSplittableAncestor(const QueryPlan& plan, int node_id,
                             const RunProfile& profile) const;

  /// Rewires every consumer of `old_id` to read `new_id` instead.
  static void RewireConsumers(QueryPlan* plan, int old_id, int new_id);

  MutatorConfig config_;
};

}  // namespace apq

#endif  // APQ_ADAPTIVE_MUTATOR_H_

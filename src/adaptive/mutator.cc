#include "adaptive/mutator.h"

#include <algorithm>
#include <vector>

namespace apq {

namespace {

/// Upper bound on partitions created by one skew-aware re-partition (the
/// strongest density edges win). Uniform basic splits use
/// MutatorConfig::split_ways.
constexpr int kSkewMaxWays = 8;

bool IsUnion(const QueryPlan& plan, int id) {
  return plan.node(id).kind == OpKind::kExchangeUnion;
}

/// True when node `id` statically produces join pairs (directly or as a
/// union of joins).
bool ProducesPairs(const QueryPlan& plan, int id) {
  const PlanNode& n = plan.node(id);
  if (n.kind == OpKind::kJoin) return true;
  if (n.kind == OpKind::kExchangeUnion && !n.inputs.empty()) {
    return ProducesPairs(plan, n.inputs[0]);
  }
  return false;
}

/// True when two unions pack pairwise-aligned partitions, so a binary
/// consumer can be cloned per input pair. Fan-in equality alone is NOT
/// sufficient: the k-th inputs must cover the same partition of the same
/// candidate stream, otherwise the clones' operands have different lengths
/// (a Misaligned error at best, silent corruption at worst).
bool UnionsPartitionCompatible(const QueryPlan& plan, int u1, int u2) {
  if (u1 == u2) return true;
  const PlanNode& a = plan.node(u1);
  const PlanNode& b = plan.node(u2);
  if (a.inputs.size() != b.inputs.size()) return false;
  for (size_t k = 0; k < a.inputs.size(); ++k) {
    const PlanNode& x = plan.node(a.inputs[k]);
    const PlanNode& y = plan.node(b.inputs[k]);
    if (a.inputs[k] == b.inputs[k]) continue;
    // Aligned iff both read the same candidate stream and clip against the
    // same partition (or neither clips). A leaf pair without a shared
    // candidate input has no alignment guarantee.
    if (x.inputs != y.inputs || x.inputs.empty()) return false;
    if (x.has_slice != y.has_slice) return false;
    if (x.has_slice && !(x.slice == y.slice)) return false;
  }
  return true;
}

/// Whether a consumer node can be cloned per union input during medium
/// mutation. `union_id` is the union being removed.
bool IsPropagatableConsumer(const QueryPlan& plan, const PlanNode& c,
                            int union_id) {
  switch (c.kind) {
    case OpKind::kSelect:
    case OpKind::kFetchJoin:
    case OpKind::kJoin:
      return true;
    case OpKind::kMap: {
      if (c.inputs.size() == 1) return true;
      // Binary map: the other input must be a union with pairwise-aligned
      // partitions (or the same union twice).
      int other = c.inputs[0] == union_id ? c.inputs[1] : c.inputs[0];
      if (other == union_id) return true;
      if (!IsUnion(plan, other)) return false;
      return UnionsPartitionCompatible(plan, union_id, other);
    }
    case OpKind::kAggregate:
      // Scalar aggregate over the union's values: clone + pack + merge.
      return c.inputs.size() == 1;
    case OpKind::kGroupBy:
      // Delegated to the advanced mutation.
      return c.inputs.size() == 1;
    case OpKind::kSort:
    case OpKind::kTopN:
      return true;
    default:
      return false;
  }
}

}  // namespace

RowRange Mutator::StaticOrigin(const QueryPlan& plan, int node_id) {
  const PlanNode& n = plan.node(node_id);
  if (n.has_slice) return n.slice;
  switch (n.kind) {
    case OpKind::kSelect:
    case OpKind::kFetchJoin:
    case OpKind::kGroupBy:
      if (n.column) return n.column->full_range();
      break;
    case OpKind::kJoin:
      if (n.column) return n.column->full_range();
      break;
    case OpKind::kExchangeUnion: {
      RowRange hull{~static_cast<oid>(0), 0};
      for (int in : n.inputs) {
        RowRange r = StaticOrigin(plan, in);
        hull.begin = std::min(hull.begin, r.begin);
        hull.end = std::max(hull.end, r.end);
      }
      if (hull.begin > hull.end) hull = {0, 0};
      return hull;
    }
    default:
      break;
  }
  if (!n.inputs.empty()) return StaticOrigin(plan, n.inputs[0]);
  return RowRange{0, 0};
}

void Mutator::RewireConsumers(QueryPlan* plan, int old_id, int new_id) {
  for (int i = 0; i < plan->num_nodes(); ++i) {
    if (i == new_id) continue;
    for (int& in : plan->node(i).inputs) {
      if (in == old_id) in = new_id;
    }
  }
}

std::vector<uint64_t> Mutator::SkewSplitPoints(
    RowRange range, const std::vector<MorselMetrics>& hist,
    uint64_t min_partition_rows, int max_pieces, int fallback_ways) {
  if (hist.size() < 2 || max_pieces < 2) return {};
  // The histogram is only usable when every morsel carries a valid base-row
  // domain inside this partition, in ascending non-overlapping order (dense
  // scans and select-fed candidate lists qualify; group-by ingest, sort runs
  // and probe-position morsels do not).
  for (size_t i = 0; i < hist.size(); ++i) {
    const MorselMetrics& h = hist[i];
    if (h.domain_end <= h.domain_begin) return {};
    if (h.domain_begin < range.begin || h.domain_end > range.end) return {};
    if (i > 0 && h.domain_begin < hist[i - 1].domain_end) return {};
  }
  // Per-row cost proxy: one unit to scan a covered row, two to materialize a
  // produced tuple (write + downstream read) — deterministic, unlike morsel
  // wall times.
  auto weight = [](const MorselMetrics& h) {
    return static_cast<double>(h.tuples_in) +
           2.0 * static_cast<double>(h.tuples_out);
  };
  auto density = [&weight](const MorselMetrics& h) {
    return weight(h) / static_cast<double>(h.domain_end - h.domain_begin);
  };

  // Prefer split points on sharp density edges: a boundary between two
  // morsels whose per-row weight differs by >= 2x marks the start or end of
  // a value cluster (the paper's Fig 13 layout), and cutting exactly there
  // makes each piece internally homogeneous — the mutation that actually
  // removes intra-operator skew instead of halving it.
  constexpr double kEdgeRatio = 2.0;
  struct Edge {
    uint64_t row;
    double strength;
  };
  auto ratio_of = [&density](const MorselMetrics& x, const MorselMetrics& y) {
    double a = std::max(density(x), 1e-12);
    double b = std::max(density(y), 1e-12);
    return a > b ? a / b : b / a;
  };
  std::vector<Edge> edges;
  for (size_t i = 0; i + 1 < hist.size(); ++i) {
    double ratio = ratio_of(hist[i], hist[i + 1]);
    if (ratio >= kEdgeRatio) edges.push_back({hist[i + 1].domain_begin, ratio});
  }
  // A value boundary that falls inside a morsel dilutes both adjacent steps
  // below the edge ratio (cold | mixed | hot reads as two ~1.8x steps for a
  // 2x cluster). Detect the two-step pattern and quarantine the straddling
  // morsel into its own piece: its neighbours become homogeneous, and the
  // single-morsel piece itself runs whole-column (no morsel skew at all).
  for (size_t i = 0; i + 2 < hist.size(); ++i) {
    double span = ratio_of(hist[i], hist[i + 2]);
    if (span < kEdgeRatio) continue;
    if (ratio_of(hist[i], hist[i + 1]) >= kEdgeRatio) continue;
    if (ratio_of(hist[i + 1], hist[i + 2]) >= kEdgeRatio) continue;
    edges.push_back({hist[i + 1].domain_begin, span});
    edges.push_back({hist[i + 2].domain_begin, span});
  }

  std::vector<uint64_t> points;
  if (!edges.empty()) {
    std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
      if (x.strength != y.strength) return x.strength > y.strength;
      return x.row < y.row;
    });
    if (static_cast<int>(edges.size()) > max_pieces - 1) {
      edges.resize(static_cast<size_t>(max_pieces - 1));
    }
    for (const Edge& e : edges) points.push_back(e.row);
  } else {
    // No sharp boundary. Only fall back to equal-cumulative-weight quantiles
    // when the histogram itself proves a real density spread (a smooth
    // gradient); a flat histogram means the trigger came from wall-clock
    // noise and uniform halving is the honest split.
    double dmin = density(hist[0]), dmax = dmin;
    for (const MorselMetrics& h : hist) {
      double d = density(h);
      dmin = std::min(dmin, d);
      dmax = std::max(dmax, d);
    }
    if (dmin <= 0 || dmax / dmin < kEdgeRatio) return {};
    double total = 0;
    for (const MorselMetrics& h : hist) total += weight(h);
    if (total <= 0) return {};
    int ways = std::min(std::max(fallback_ways, 2), max_pieces);
    double cum = 0;
    size_t i = 0;
    for (int k = 1; k < ways; ++k) {
      double target = total * k / ways;
      while (i < hist.size() && cum < target) {
        cum += weight(hist[i]);
        ++i;
      }
      if (i >= hist.size()) break;
      points.push_back(hist[i].domain_begin);
    }
  }

  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  // Enforce the minimum partition granularity (points are ascending, so a
  // point too close to range.end rules out every later point too).
  std::vector<uint64_t> kept;
  uint64_t prev = range.begin;
  for (uint64_t p : points) {
    if (p <= prev || p >= range.end) continue;
    if (p - prev < min_partition_rows) continue;
    if (range.end - p < min_partition_rows) break;
    kept.push_back(p);
    prev = p;
  }
  return kept;
}

Status Mutator::CheckBasicSplittable(const QueryPlan& plan, int node_id) {
  const PlanNode& node = plan.node(node_id);
  if (!IsBasicParallelizable(node.kind)) {
    return Status::Unsupported(std::string("cannot basic-split a ") +
                               OpKindName(node.kind));
  }
  // Range-splitting is only order-preserving when the candidates are sorted
  // in the partition domain (paper §2.3: packed results must follow the
  // mutation sequence order), and only alignment-preserving when sibling
  // tuple-reconstruction chains can follow the same split. A fetch-join over
  // join pairs fails both (right-side row ids are unsorted; left/right
  // siblings must stay pairwise aligned), so pairs-fed fetch-joins are
  // parallelized exclusively by propagating the join's partitioning through
  // them (medium mutation).
  if (node.kind == OpKind::kFetchJoin && !node.inputs.empty() &&
      ProducesPairs(plan, node.inputs[0])) {
    return Status::Unsupported(
        "fetchjoin over join pairs cannot be range-split; parallelize the "
        "join and propagate instead");
  }
  return Status::OK();
}

StatusOr<std::vector<RowRange>> Mutator::PlanPieces(const QueryPlan& plan,
                                                    int node_id, int ways,
                                                    const OpProfile* prof,
                                                    bool* skewed) const {
  if (skewed != nullptr) *skewed = false;
  if (ways < 2) return Status::InvalidArgument("split needs ways >= 2");
  APQ_RETURN_NOT_OK(CheckBasicSplittable(plan, node_id));
  const PlanNode& node = plan.node(node_id);
  RowRange range = node.has_slice ? node.slice : StaticOrigin(plan, node_id);
  if (range.size() < static_cast<uint64_t>(ways)) {
    return Status::Unsupported("partition too small to split: " +
                               range.ToString());
  }
  if (range.size() / ways < config_.min_partition_rows) {
    return Status::Unsupported("split below min partition rows");
  }

  // Skew feedback (paper Fig 12): when the profiled run shows intra-operator
  // skew, re-partition on value-balanced split points from the per-morsel
  // tuple histogram instead of uniform chunks. Splits only ever move the
  // boundaries of consecutive subranges, so results stay bit-identical.
  if (prof != nullptr &&
      std::max(prof->morsel_skew, prof->morsel_tuple_skew) >=
          config_.skew_threshold) {
    std::vector<uint64_t> points =
        SkewSplitPoints(range, prof->morsels, config_.min_partition_rows,
                        kSkewMaxWays, ways);
    if (!points.empty()) {
      std::vector<RowRange> pieces;
      pieces.reserve(points.size() + 1);
      uint64_t prev = range.begin;
      for (uint64_t p : points) {
        pieces.push_back(RowRange{prev, p});
        prev = p;
      }
      pieces.push_back(RowRange{prev, range.end});
      if (skewed != nullptr) *skewed = true;
      return pieces;
    }
  }

  std::vector<RowRange> pieces;
  pieces.reserve(static_cast<size_t>(ways));
  uint64_t chunk = range.size() / ways;
  for (int w = 0; w < ways; ++w) {
    RowRange piece;
    piece.begin = range.begin + chunk * w;
    piece.end = (w == ways - 1) ? range.end : range.begin + chunk * (w + 1);
    pieces.push_back(piece);
  }
  return pieces;
}

Status Mutator::SplitNode(QueryPlan* plan, int node_id, int ways) {
  auto pieces = PlanPieces(*plan, node_id, ways, nullptr, nullptr);
  if (!pieces.ok()) return pieces.status();
  return SplitNodeAt(plan, node_id, pieces.ValueOrDie());
}

Status Mutator::SplitNodeAt(QueryPlan* plan, int node_id,
                            const std::vector<RowRange>& pieces) {
  if (pieces.size() < 2) {
    return Status::InvalidArgument("split needs at least 2 pieces");
  }
  // Re-checked (not only in PlanPieces) because the alignment-partner path
  // applies one pieces decision to other nodes.
  APQ_RETURN_NOT_OK(CheckBasicSplittable(*plan, node_id));
  const PlanNode node = plan->node(node_id);  // copy: plan will be mutated
  RowRange range = node.has_slice ? node.slice : StaticOrigin(*plan, node_id);
  if (pieces.front().begin != range.begin || pieces.back().end != range.end) {
    return Status::InvalidArgument("pieces do not cover " + range.ToString());
  }
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (pieces[i].size() == 0) {
      return Status::InvalidArgument("empty piece " + pieces[i].ToString());
    }
    if (i > 0 && pieces[i].begin != pieces[i - 1].end) {
      return Status::InvalidArgument("pieces are not consecutive");
    }
  }

  // Create the clones over consecutive subranges (dynamic partitioning keeps
  // boundaries aligned on the base column by construction, paper Fig 8).
  std::vector<int> clone_ids;
  clone_ids.reserve(pieces.size());
  for (const RowRange& piece : pieces) {
    PlanNode clone = node;
    clone.id = -1;
    clone.slice = piece;
    clone.has_slice = true;
    clone_ids.push_back(plan->AddNode(clone));
  }

  // Wire the clones: splice into an existing union consumer in place of the
  // split node (preserving partition order) or introduce a new union.
  std::vector<int> consumers = plan->Consumers(node_id);
  bool spliced = false;
  if (consumers.size() == 1 && IsUnion(*plan, consumers[0])) {
    PlanNode& u = plan->node(consumers[0]);
    auto it = std::find(u.inputs.begin(), u.inputs.end(), node_id);
    if (it != u.inputs.end()) {
      size_t pos = static_cast<size_t>(it - u.inputs.begin());
      u.inputs.erase(it);
      u.inputs.insert(u.inputs.begin() + pos, clone_ids.begin(),
                      clone_ids.end());
      spliced = true;
    }
  }
  if (!spliced) {
    PlanNode u;
    u.kind = OpKind::kExchangeUnion;
    u.inputs = clone_ids;
    u.label = "pack(" + node.label + ")";
    int u_id = plan->AddNode(u);
    RewireConsumers(plan, node_id, u_id);
    // Exclude the clones themselves (they copied the original inputs, not
    // node_id; nothing to undo).
    for (int cid : clone_ids) {
      for (int& in : plan->node(cid).inputs) {
        APQ_CHECK(in != u_id);
        (void)in;
      }
    }
  }
  return Status::OK();
}

Status Mutator::PropagateUnion(QueryPlan* plan, int union_id, int max_fanin) {
  const PlanNode u = plan->node(union_id);  // copy
  if (u.kind != OpKind::kExchangeUnion) {
    return Status::InvalidArgument("node is not an exchange union");
  }
  int threshold = max_fanin > 0 ? max_fanin : config_.union_fanin_threshold;
  if (static_cast<int>(u.inputs.size()) > threshold) {
    return Status::Unsupported(
        "union removal suppressed: fan-in " + std::to_string(u.inputs.size()) +
        " exceeds threshold " + std::to_string(threshold));
  }
  std::vector<int> consumers = plan->Consumers(union_id);
  if (consumers.empty()) return Status::Unsupported("union has no consumers");
  for (int cid : consumers) {
    const PlanNode& c = plan->node(cid);
    if (c.kind == OpKind::kResult || c.kind == OpKind::kAggrMerge ||
        c.kind == OpKind::kExchangeUnion || c.kind == OpKind::kAggrMerge) {
      return Status::Unsupported(std::string("union feeds a ") +
                                 OpKindName(c.kind) + "; not propagatable");
    }
    if (!IsPropagatableConsumer(*plan, c, union_id)) {
      return Status::Unsupported(
          std::string("consumer ") + OpKindName(c.kind) +
          " cannot be cloned along the union inputs");
    }
    if (c.kind == OpKind::kAggregate && c.inputs.size() == 2) {
      return Status::Unsupported(
          "grouped aggregate consumers are handled by the advanced mutation");
    }
  }

  const size_t fanin = u.inputs.size();
  for (int cid : consumers) {
    const PlanNode c = plan->node(cid);  // copy
    if (c.kind == OpKind::kGroupBy) {
      // Delegate: parallelizing through a group-by is the advanced mutation.
      APQ_RETURN_NOT_OK(AdvancedGroupBy(plan, cid));
      continue;
    }
    if (c.kind == OpKind::kSort || c.kind == OpKind::kTopN) {
      APQ_RETURN_NOT_OK(AdvancedSort(plan, cid));
      continue;
    }
    // Identify which input slots reference the union; binary ops may pair
    // with a sibling union of equal fan-in.
    std::vector<int> clone_ids;
    clone_ids.reserve(fanin);
    for (size_t k = 0; k < fanin; ++k) {
      PlanNode clone = c;
      clone.id = -1;
      for (int& in : clone.inputs) {
        if (in == union_id) {
          in = u.inputs[k];
        } else if (IsUnion(*plan, in) &&
                   UnionsPartitionCompatible(*plan, union_id, in)) {
          in = plan->node(in).inputs[k];
        }
      }
      clone_ids.push_back(plan->AddNode(clone));
    }
    PlanNode pack;
    pack.kind = OpKind::kExchangeUnion;
    pack.inputs = clone_ids;
    pack.label = "pack(" + std::string(OpKindName(c.kind)) + ")";
    int pack_id = plan->AddNode(pack);

    if (c.kind == OpKind::kAggregate) {
      // Partial scalar aggregates must be recombined.
      PlanNode merge;
      merge.kind = OpKind::kAggrMerge;
      merge.agg_fn = c.agg_fn;
      merge.inputs = {pack_id};
      merge.label = "merge(" + std::string(AggFnName(c.agg_fn)) + ")";
      int merge_id = plan->AddNode(merge);
      RewireConsumers(plan, cid, merge_id);
    } else {
      RewireConsumers(plan, cid, pack_id);
    }
  }
  return Status::OK();
}

Status Mutator::AdvancedGroupBy(QueryPlan* plan, int groupby_id) {
  const PlanNode gb = plan->node(groupby_id);  // copy
  if (gb.kind != OpKind::kGroupBy) {
    return Status::InvalidArgument("node is not a group-by");
  }
  if (gb.inputs.size() != 1 || !IsUnion(*plan, gb.inputs[0])) {
    return Status::Unsupported(
        "advanced mutation needs the group-by input to be partitioned "
        "(an exchange union); parallelize its producer first");
  }
  const PlanNode u = plan->node(gb.inputs[0]);  // copy
  const size_t fanin = u.inputs.size();

  // All consumers must be aggregates whose optional value input is a union of
  // matching fan-in.
  std::vector<int> agg_ids = plan->Consumers(groupby_id);
  if (agg_ids.empty()) return Status::Unsupported("group-by has no consumers");
  for (int aid : agg_ids) {
    const PlanNode& a = plan->node(aid);
    if (a.kind != OpKind::kAggregate || a.inputs[0] != groupby_id) {
      return Status::Unsupported(
          "group-by consumers must be aggregates over its groups");
    }
    if (a.inputs.size() == 2) {
      int v = a.inputs[1];
      if (!IsUnion(*plan, v) ||
          !UnionsPartitionCompatible(*plan, gb.inputs[0], v)) {
        return Status::Unsupported(
            "aggregate value input is not a matching partitioned union");
      }
    }
  }

  // Clone the group-by once per partition (shared by all aggregates).
  std::vector<int> gb_clones;
  gb_clones.reserve(fanin);
  for (size_t k = 0; k < fanin; ++k) {
    PlanNode clone = gb;
    clone.id = -1;
    clone.inputs = {u.inputs[k]};
    gb_clones.push_back(plan->AddNode(clone));
  }

  for (int aid : agg_ids) {
    const PlanNode a = plan->node(aid);  // copy
    std::vector<int> agg_clones;
    agg_clones.reserve(fanin);
    for (size_t k = 0; k < fanin; ++k) {
      PlanNode clone = a;
      clone.id = -1;
      clone.inputs[0] = gb_clones[k];
      if (clone.inputs.size() == 2) {
        clone.inputs[1] = plan->node(a.inputs[1]).inputs[k];
      }
      agg_clones.push_back(plan->AddNode(clone));
    }
    PlanNode pack;
    pack.kind = OpKind::kExchangeUnion;
    pack.inputs = agg_clones;
    pack.label = "pack(partial " + std::string(AggFnName(a.agg_fn)) + ")";
    int pack_id = plan->AddNode(pack);

    PlanNode merge;
    merge.kind = OpKind::kAggrMerge;
    merge.agg_fn = a.agg_fn;
    merge.inputs = {pack_id};
    merge.label = "merge(" + std::string(AggFnName(a.agg_fn)) + ")";
    int merge_id = plan->AddNode(merge);
    RewireConsumers(plan, aid, merge_id);
  }
  return Status::OK();
}

Status Mutator::AdvancedSort(QueryPlan* plan, int sort_id) {
  const PlanNode s = plan->node(sort_id);  // copy
  if (s.kind != OpKind::kSort && s.kind != OpKind::kTopN) {
    return Status::InvalidArgument("node is not a sort/top-n");
  }
  if (s.inputs.size() != 1 || !IsUnion(*plan, s.inputs[0])) {
    return Status::Unsupported(
        "advanced sort needs a partitioned (union) input");
  }
  const PlanNode u = plan->node(s.inputs[0]);  // copy
  std::vector<int> clones;
  clones.reserve(u.inputs.size());
  for (int in : u.inputs) {
    PlanNode clone = s;
    clone.id = -1;
    clone.inputs = {in};
    clones.push_back(plan->AddNode(clone));
  }
  PlanNode pack;
  pack.kind = OpKind::kExchangeUnion;
  pack.inputs = clones;
  pack.label = "pack(sorted runs)";
  int pack_id = plan->AddNode(pack);

  // Final merge: a sort over concatenated sorted runs (cheap for nearly
  // sorted data; the cost model is charged conservatively).
  PlanNode merge = s;
  merge.id = -1;
  merge.inputs = {pack_id};
  merge.label = "mergesort";
  int merge_id = plan->AddNode(merge);
  RewireConsumers(plan, sort_id, merge_id);
  // The clones copied s's input; restore their per-partition inputs (done at
  // creation) — but RewireConsumers above may have redirected them if they
  // read sort_id, which they do not.
  return Status::OK();
}

void Mutator::FlattenUnions(QueryPlan* plan) {
  for (int id = 0; id < plan->num_nodes(); ++id) {
    if (plan->node(id).kind != OpKind::kExchangeUnion) continue;
    bool changed = true;
    while (changed) {
      changed = false;
      std::vector<int> flat;
      flat.reserve(plan->node(id).inputs.size());
      for (int in : plan->node(id).inputs) {
        if (plan->node(in).kind == OpKind::kExchangeUnion) {
          const auto& nested = plan->node(in).inputs;
          flat.insert(flat.end(), nested.begin(), nested.end());
          changed = true;
        } else {
          flat.push_back(in);
        }
      }
      plan->node(id).inputs = std::move(flat);
    }
  }
}

Status Mutator::SplitAligned(QueryPlan* plan, int node_id, int ways,
                             const OpProfile* prof, MutationReport* report) {
  const PlanNode before = plan->node(node_id);  // copy
  RowRange before_range = before.has_slice
                              ? before.slice
                              : StaticOrigin(*plan, node_id);

  // Pre-split context: position within an existing union, and the nodes that
  // consume this node's output (where pairing partners are found).
  std::vector<int> consumers = plan->Consumers(node_id);
  int union_id = -1;
  size_t pos = 0;
  size_t union_size_before = 0;
  if (consumers.size() == 1 &&
      plan->node(consumers[0]).kind == OpKind::kExchangeUnion) {
    union_id = consumers[0];
    const auto& ins = plan->node(union_id).inputs;
    pos = static_cast<size_t>(
        std::find(ins.begin(), ins.end(), node_id) - ins.begin());
    union_size_before = ins.size();
  }

  // One pieces decision shared by this node and every alignment partner, so
  // partner partition structures stay pairwise identical even when the
  // boundaries came from a skewed histogram.
  bool skewed = false;
  auto pieces_or = PlanPieces(*plan, node_id, ways, prof, &skewed);
  if (!pieces_or.ok()) return pieces_or.status();
  const std::vector<RowRange> pieces = pieces_or.MoveValueOrDie();
  APQ_RETURN_NOT_OK(SplitNodeAt(plan, node_id, pieces));
  if (report != nullptr) {
    report->skew_aware = skewed;
    report->split_rows.clear();
    report->split_rows.reserve(pieces.size() - 1);
    for (size_t i = 1; i < pieces.size(); ++i) {
      report->split_rows.push_back(pieces[i].begin);
    }
  }

  // Alignment partners only matter for value-producing reconstruction
  // chains; row-id chains (selects) clip correctly on their own.
  if (before.kind != OpKind::kFetchJoin) return Status::OK();

  // Nodes whose output is paired positionally with this node's output.
  std::vector<int> partner_sources;
  std::vector<int> pair_consumers =
      union_id >= 0 ? plan->Consumers(union_id) : consumers;
  int self = union_id >= 0 ? union_id : node_id;
  for (int cid : pair_consumers) {
    const PlanNode& c = plan->node(cid);
    if (c.kind == OpKind::kMap && c.inputs.size() == 2) {
      int other = c.inputs[0] == self ? c.inputs[1] : c.inputs[0];
      if (other != self) partner_sources.push_back(other);
    } else if (c.kind == OpKind::kGroupBy) {
      for (int aid : plan->Consumers(cid)) {
        const PlanNode& a = plan->node(aid);
        if (a.kind == OpKind::kAggregate && a.inputs.size() == 2 &&
            a.inputs[1] != self) {
          partner_sources.push_back(a.inputs[1]);
        }
      }
    } else if (c.kind == OpKind::kAggregate && c.inputs.size() == 2 &&
               c.inputs[1] == self) {
      const PlanNode& g = plan->node(c.inputs[0]);
      if (g.kind == OpKind::kGroupBy && !g.inputs.empty() &&
          g.inputs[0] != self) {
        partner_sources.push_back(g.inputs[0]);
      }
    }
  }

  // Resolve each partner source to the concrete clone that mirrors this
  // node, and split it the same way (best effort: a partner that cannot
  // follow simply blocks later pairing, it never corrupts results).
  for (int src : partner_sources) {
    int target = -1;
    const PlanNode& p = plan->node(src);
    if (p.kind == OpKind::kExchangeUnion) {
      if (p.inputs.size() == union_size_before && pos < p.inputs.size()) {
        target = p.inputs[pos];
      }
    } else {
      target = src;
    }
    if (target < 0 || target == node_id) continue;
    const PlanNode& t = plan->node(target);
    if (t.kind != OpKind::kFetchJoin) continue;
    if (t.inputs != before.inputs) continue;  // different candidate stream
    RowRange t_range =
        t.has_slice ? t.slice : StaticOrigin(*plan, target);
    if (!(t_range == before_range)) continue;
    // Same pieces as the primary split: partner alignment requires identical
    // boundaries, uniform or skew-derived alike.
    Status st = SplitNodeAt(plan, target, pieces);
    if (!st.ok() && st.code() != StatusCode::kUnsupported) return st;
  }
  return Status::OK();
}

int Mutator::FindSplittableAncestor(const QueryPlan& plan, int node_id,
                                    const RunProfile& profile) const {
  // Collect ancestors via DFS.
  std::vector<int> stack = {node_id};
  std::vector<bool> seen(plan.num_nodes(), false);
  std::vector<bool> ancestor(plan.num_nodes(), false);
  while (!stack.empty()) {
    int id = stack.back();
    stack.pop_back();
    if (seen[id]) continue;
    seen[id] = true;
    for (int in : plan.node(id).inputs) {
      ancestor[in] = true;
      stack.push_back(in);
    }
  }
  // Most expensive splittable ancestor by profiled duration.
  int best = -1;
  double best_time = -1;
  for (const auto& op : profile.ops) {
    if (op.node_id < 0 || op.node_id >= plan.num_nodes()) continue;
    if (!ancestor[op.node_id]) continue;
    const PlanNode& cand = plan.node(op.node_id);
    if (!IsBasicParallelizable(cand.kind)) continue;
    if (cand.kind == OpKind::kFetchJoin &&
        cand.fetch_side == FetchSide::kRight) {
      continue;  // not range-splittable (order preservation)
    }
    if (op.duration_ns() > best_time) {
      best_time = op.duration_ns();
      best = op.node_id;
    }
  }
  return best;
}

Status Mutator::MutateOp(QueryPlan* plan, int node_id, MutationReport* report,
                         const OpProfile* prof) {
  // Copy, not reference: every mutation below AddNode()s into the plan,
  // which may reallocate the node vector — reading `n` afterwards (to
  // continue scanning n.inputs for a union) would be a use-after-free
  // (caught by the CI ASan job).
  const PlanNode n = plan->node(node_id);
  switch (n.kind) {
    case OpKind::kSelect:
    case OpKind::kFetchJoin:
    case OpKind::kJoin: {
      Status st =
          SplitAligned(plan, node_id, config_.split_ways, prof, report);
      if (st.ok()) {
        report->action = report->skew_aware ? "basic-skew" : "basic";
        return Status::OK();
      }
      if (st.code() != StatusCode::kUnsupported) return st;
      // Not range-splittable (e.g. right-side fetch-join): parallelize by
      // removing the union feeding it, if one exists.
      for (int in : n.inputs) {
        if (IsUnion(*plan, in)) {
          APQ_RETURN_NOT_OK(PropagateUnion(plan, in));
          report->action = "medium";
          return Status::OK();
        }
      }
      return st;
    }
    case OpKind::kExchangeUnion: {
      APQ_RETURN_NOT_OK(PropagateUnion(plan, node_id));
      report->action = "medium";
      return Status::OK();
    }
    case OpKind::kGroupBy: {
      APQ_RETURN_NOT_OK(AdvancedGroupBy(plan, node_id));
      report->action = "advanced";
      return Status::OK();
    }
    case OpKind::kSort:
    case OpKind::kTopN: {
      APQ_RETURN_NOT_OK(AdvancedSort(plan, node_id));
      report->action = "advanced";
      return Status::OK();
    }
    case OpKind::kMap: {
      // Parallelized by removing the union feeding it.
      for (int in : n.inputs) {
        if (IsUnion(*plan, in)) {
          APQ_RETURN_NOT_OK(PropagateUnion(plan, in));
          report->action = "medium";
          return Status::OK();
        }
      }
      return Status::Unsupported("map input is not partitioned yet");
    }
    case OpKind::kAggregate: {
      if (n.inputs.size() == 1 && IsUnion(*plan, n.inputs[0])) {
        int u = n.inputs[0];
        APQ_RETURN_NOT_OK(PropagateUnion(plan, u));
        report->action = "medium";
        return Status::OK();
      }
      return Status::Unsupported("aggregate input is not partitioned yet");
    }
    case OpKind::kAggrMerge:
    case OpKind::kResult:
      return Status::Unsupported(std::string(OpKindName(n.kind)) +
                                 " is not parallelizable");
  }
  return Status::Unsupported("unknown operator");
}

StatusOr<QueryPlan> Mutator::MutateMostExpensive(const QueryPlan& plan,
                                                 const RunProfile& profile,
                                                 MutationReport* report) {
  report->mutated = false;
  // Operators ordered by effective cost, descending: measured execution time
  // inflated by the deterministic tuple skew (capped). A skewed operator's
  // completion time after parallelization is bounded by its densest
  // partition, so observed skew is hidden cost — prioritizing it is what
  // makes the feedback loop re-partition the skewed select before the GME
  // settles, instead of after (paper Fig 12). The wall-based morsel_skew is
  // deliberately NOT used here: it varies run to run and would scramble the
  // victim order.
  auto effective_cost = [](const OpProfile& op) {
    double skew = std::min(std::max(op.morsel_tuple_skew, 1.0), 8.0);
    return op.duration_ns() * skew;
  };
  std::vector<int> order(profile.ops.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return effective_cost(profile.ops[a]) > effective_cost(profile.ops[b]);
  });

  // Profiles by node id, so the skew histogram of any chosen victim (target
  // or ancestor) can accompany the mutation.
  auto prof_of = [&profile](int node_id) -> const OpProfile* {
    for (const auto& p : profile.ops) {
      if (p.node_id == node_id) return &p;
    }
    return nullptr;
  };

  for (int idx : order) {
    const OpProfile& op = profile.ops[idx];
    if (op.kind == OpKind::kResult) continue;
    QueryPlan mutated = plan.Clone();
    MutationReport attempt;
    attempt.target_node = op.node_id;
    Status st = MutateOp(&mutated, op.node_id, &attempt, &op);
    if (st.ok()) {
      FlattenUnions(&mutated);
      attempt.mutated = true;
      *report = attempt;
      return mutated;
    }
    // Non-filtering op whose input is not yet partitioned: parallelize the
    // most expensive splittable ancestor instead (the paper's propagation-
    // dependency resolution).
    int anc = FindSplittableAncestor(plan, op.node_id, profile);
    if (anc >= 0) {
      QueryPlan mutated2 = plan.Clone();
      MutationReport attempt2;
      attempt2.target_node = anc;
      Status st2 = MutateOp(&mutated2, anc, &attempt2, prof_of(anc));
      if (st2.ok()) {
        FlattenUnions(&mutated2);
        attempt2.mutated = true;
        *report = attempt2;
        return mutated2;
      }
    }
    // Otherwise fall through to the next most expensive operator.
  }
  // Nothing mutable: return the plan unchanged.
  return plan.Clone();
}

}  // namespace apq

// Test-only reference operators: the row-at-a-time select and fetch-join
// loops, the first-occurrence group-by, the stable-sort permutation, the
// per-function aggregate folds and the map-numbered aggr-merge. The
// evaluator runs one routine per operator (kernels, morsels, SIMD tiers,
// one fold for every aggregate); these loops are what that routine must
// reproduce bit for bit.
//
// CheckAgainstReference recomputes every select, fetch-join, group-by,
// sort, aggregate and aggr-merge node of an EvalResult from that node's own
// inputs (the evaluator's intermediates), and compares the output and the
// node's tuples_in, tuples_out and random_accesses bit for bit.
#ifndef APQ_TESTS_REFERENCE_OPS_H_
#define APQ_TESTS_REFERENCE_OPS_H_

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/evaluator.h"
#include "plan/plan.h"

namespace apq {
namespace ref {

/// What a reference operator produced, with the metrics it is checked on.
struct RefOut {
  Intermediate out;
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  uint64_t random_accesses = 0;
};

inline bool IsReferenced(OpKind k) {
  return k == OpKind::kSelect || k == OpKind::kFetchJoin ||
         k == OpKind::kGroupBy || k == OpKind::kSort || k == OpKind::kTopN ||
         k == OpKind::kAggregate || k == OpKind::kAggrMerge;
}

inline ValueVec VecLike(const Column& col) {
  ValueVec v;
  v.type = col.type();
  if (col.type() == DataType::kString) v.dict = &col;
  return v;
}

inline void Append(const Column& col, oid row, ValueVec* v) {
  if (col.type() == DataType::kFloat64) {
    v->f64.push_back(col.f64()[row]);
  } else {
    v->i64.push_back(col.i64()[row]);
  }
}

// One row of the select predicate, re-dispatching on kind and type per row.
inline bool SelectTest(const Column& col, const Predicate& p, oid row) {
  if (p.kind == Predicate::Kind::kLike) {
    const bool hit =
        col.DictString(col.i64()[row]).find(p.pattern) != std::string::npos;
    return hit != p.anti;
  }
  const bool is_f64 = col.type() == DataType::kFloat64;
  if (p.kind == Predicate::Kind::kRangeF64) {
    const double v = is_f64 ? col.f64()[row]
                            : static_cast<double>(col.i64()[row]);
    return v >= p.flo && v <= p.fhi;
  }
  const int64_t v =
      is_f64 ? static_cast<int64_t>(col.f64()[row]) : col.i64()[row];
  switch (p.kind) {
    case Predicate::Kind::kNone: return true;
    case Predicate::Kind::kRangeI64: return v >= p.lo && v <= p.hi;
    case Predicate::Kind::kEqI64: return v == p.lo;
    default: return false;
  }
}

inline Status Select(const PlanNode& node, const Intermediate* in,
                     RefOut* r) {
  const Column& col = *node.column;
  const RowRange range = node.EffectiveRange();
  if (node.pred.kind == Predicate::Kind::kLike &&
      col.type() != DataType::kString) {
    return Status::InvalidArgument("LIKE on non-string column '" + col.name() +
                                   "'");
  }
  r->out.kind = Intermediate::Kind::kRowIds;
  r->out.origin = range;
  if (in != nullptr) {
    if (in->kind != Intermediate::Kind::kRowIds) {
      return Status::InvalidArgument("select candidates must be rowids");
    }
    r->tuples_in = in->rowids.size();
    for (oid row : in->rowids) {
      if (!range.Contains(row)) continue;  // boundary clip (Fig 9 adjust)
      ++r->random_accesses;
      if (SelectTest(col, node.pred, row)) r->out.rowids.push_back(row);
    }
  } else {
    r->tuples_in = range.size();
    for (oid row = range.begin; row < range.end; ++row) {
      if (SelectTest(col, node.pred, row)) r->out.rowids.push_back(row);
    }
  }
  r->tuples_out = r->out.rowids.size();
  return Status::OK();
}

inline Status FetchJoin(const PlanNode& node, const Intermediate& in,
                        RefOut* r) {
  const Column& col = *node.column;
  const RowRange range = node.EffectiveRange();
  const std::vector<oid>* ids = nullptr;
  if (in.kind == Intermediate::Kind::kRowIds) {
    ids = &in.rowids;
  } else if (in.kind == Intermediate::Kind::kPairs) {
    ids = node.fetch_side == FetchSide::kRight ? &in.rrowids : &in.rowids;
  } else {
    return Status::InvalidArgument("fetchjoin input must be rowids or pairs");
  }
  r->out.kind = Intermediate::Kind::kValues;
  r->out.values = VecLike(col);
  r->out.origin = range;
  r->tuples_in = ids->size();
  for (oid row : *ids) {
    if (row >= col.size()) {
      return Status::Misaligned("fetchjoin rowid " + std::to_string(row) +
                                " beyond column '" + col.name() + "' size " +
                                std::to_string(col.size()));
    }
    if (node.has_slice && !range.Contains(row)) {
      if (node.align == AlignPolicy::kStrict) {
        return Status::Misaligned("fetchjoin rowid " + std::to_string(row) +
                                  " outside slice " + range.ToString() +
                                  " of '" + col.name() + "'");
      }
      continue;  // kAdjust: clip
    }
    r->out.head.push_back(row);
    Append(col, row, &r->out.values);
  }
  r->tuples_out = r->out.values.size();
  r->random_accesses = r->tuples_out;
  return Status::OK();
}

/// First-occurrence group numbering: group g is the g-th distinct key met
/// scanning `keys` front to back.
inline void GroupIds(const std::vector<int64_t>& keys,
                     std::vector<int64_t>* gids, std::vector<int64_t>* uniq) {
  std::unordered_map<int64_t, int64_t> map;
  for (int64_t k : keys) {
    auto [it, inserted] = map.emplace(k, static_cast<int64_t>(map.size()));
    if (inserted) uniq->push_back(k);
    gids->push_back(it->second);
  }
}

inline Status GroupBy(const PlanNode& node, const Intermediate* in,
                      RefOut* r) {
  std::vector<int64_t> keys;
  r->out.kind = Intermediate::Kind::kGroups;
  if (in != nullptr) {
    if (in->kind != Intermediate::Kind::kValues) {
      return Status::InvalidArgument("groupby input must be values");
    }
    // Float64 values group by their AsInt truncation, held as int64 keys.
    r->out.group_keys.type =
        in->values.is_f64() ? DataType::kInt64 : in->values.type;
    r->out.group_keys.dict = in->values.dict;
    r->out.origin = in->origin;
    r->out.head = in->head;
    for (uint64_t i = 0; i < in->values.size(); ++i) {
      keys.push_back(in->values.AsInt(i));
    }
  } else {
    const Column& col = *node.column;
    const RowRange range = node.EffectiveRange();
    r->out.group_keys = VecLike(col);
    r->out.group_keys.type = DataType::kInt64;
    r->out.origin = range;
    keys.assign(col.i64().begin() + range.begin, col.i64().begin() + range.end);
  }
  GroupIds(keys, &r->out.group_ids, &r->out.group_keys.i64);
  r->tuples_in = keys.size();
  r->tuples_out = r->out.group_ids.size();
  r->random_accesses = r->tuples_in;
  return Status::OK();
}

/// std::stable_sort's permutation of `keys`, clipped to its first `limit`
/// positions when 0 < limit < keys.size().
inline std::vector<uint64_t> StableSortPerm(const std::vector<double>& keys,
                                            bool descending, uint64_t limit) {
  std::vector<uint64_t> perm(keys.size());
  std::iota(perm.begin(), perm.end(), uint64_t{0});
  std::stable_sort(perm.begin(), perm.end(), [&](uint64_t x, uint64_t y) {
    return descending ? keys[x] > keys[y] : keys[x] < keys[y];
  });
  if (limit > 0 && limit < perm.size()) perm.resize(limit);
  return perm;
}

inline Status Sort(const PlanNode& node, const Intermediate* in, RefOut* r) {
  // The sort source: the values to key and permute, and their head (empty
  // for a values input without one).
  ValueVec vals;
  std::vector<oid> head;
  if (in != nullptr && in->kind == Intermediate::Kind::kGroupedAgg) {
    const std::vector<double>& keys = in->agg_vals;
    const uint64_t limit = node.kind == OpKind::kTopN ? node.limit : 0;
    r->out.kind = Intermediate::Kind::kGroupedAgg;
    r->out.group_keys.type = in->group_keys.type;
    r->out.group_keys.dict = in->group_keys.dict;
    for (uint64_t i : StableSortPerm(keys, node.descending, limit)) {
      r->out.group_keys.i64.push_back(in->group_keys.AsInt(i));
      r->out.agg_vals.push_back(in->agg_vals[i]);
      r->out.agg_counts.push_back(in->agg_counts.empty() ? 1
                                                         : in->agg_counts[i]);
    }
    r->tuples_in = keys.size();
    r->tuples_out = r->out.agg_vals.size();
    return Status::OK();
  }
  if (in != nullptr && in->kind == Intermediate::Kind::kValues) {
    vals = in->values;
    head = in->head;
    r->out.origin = in->origin;
    r->tuples_in = vals.size();
  } else if (in != nullptr && in->kind == Intermediate::Kind::kRowIds) {
    if (node.column == nullptr) {
      return Status::InvalidArgument("sort over rowids needs a bound column");
    }
    const Column& col = *node.column;
    const RowRange range = node.has_slice ? node.slice : in->origin;
    vals = VecLike(col);
    for (oid row : in->rowids) {
      if (row >= col.size()) {
        return Status::Misaligned("sort rowid " + std::to_string(row) +
                                  " beyond column '" + col.name() + "' size " +
                                  std::to_string(col.size()));
      }
      if (node.has_slice && !range.Contains(row)) continue;
      head.push_back(row);
      Append(col, row, &vals);
    }
    r->out.origin = range;
    r->tuples_in = in->rowids.size();
    r->random_accesses = vals.size();
  } else if (in == nullptr) {
    if (node.column == nullptr) {
      return Status::InvalidArgument("leaf sort needs a bound column");
    }
    const Column& col = *node.column;
    const RowRange range = node.EffectiveRange();
    vals = VecLike(col);
    for (oid row = range.begin; row < range.end; ++row) {
      head.push_back(row);
      Append(col, row, &vals);
    }
    r->out.origin = range;
    r->tuples_in = vals.size();
  } else {
    return Status::InvalidArgument(
        "sort input must be values, rowids, or grouped aggs");
  }
  std::vector<double> keys(vals.size());
  for (uint64_t i = 0; i < keys.size(); ++i) keys[i] = vals.AsDouble(i);
  const uint64_t limit = node.kind == OpKind::kTopN ? node.limit : 0;
  r->out.kind = Intermediate::Kind::kValues;
  r->out.values.type = vals.type;
  r->out.values.dict = vals.dict;
  for (uint64_t i : StableSortPerm(keys, node.descending, limit)) {
    if (vals.is_f64()) {
      r->out.values.f64.push_back(vals.f64[i]);
    } else {
      r->out.values.i64.push_back(vals.i64[i]);
    }
    if (!head.empty()) r->out.head.push_back(head[i]);
  }
  r->tuples_out = r->out.values.size();
  return Status::OK();
}

/// The starting value of an aggregate accumulator.
inline double AggInit(AggFn fn) {
  return fn == AggFn::kMin ? 1e300 : fn == AggFn::kMax ? -1e300 : 0.0;
}

/// Grouped aggregation folds every row into its group in input order, and
/// scalar aggregation folds the whole input row by row: no SIMD reduction.
/// An average divides by its row count at the end.
inline Status Aggregate(const PlanNode& node,
                        const std::vector<const Intermediate*>& inputs,
                        RefOut* r) {
  const Intermediate& first = *inputs[0];
  const AggFn fn = node.agg_fn;
  if (first.kind == Intermediate::Kind::kGroups) {
    const Intermediate* vals = inputs.size() == 2 ? inputs[1] : nullptr;
    if (vals != nullptr) {
      if (vals->kind != Intermediate::Kind::kValues) {
        return Status::InvalidArgument("grouped aggregate values input invalid");
      }
      if (vals->values.size() != first.group_ids.size()) {
        return Status::Misaligned("grouped aggregate: misaligned values");
      }
    } else if (fn != AggFn::kCount) {
      return Status::InvalidArgument("grouped non-count aggregate needs values");
    }
    const size_t ngroups = first.group_keys.size();
    r->out.kind = Intermediate::Kind::kGroupedAgg;
    r->out.group_keys = first.group_keys;
    r->out.agg_counts.assign(ngroups, 0);
    r->out.agg_vals.assign(ngroups, AggInit(fn));
    const uint64_t n = first.group_ids.size();
    for (uint64_t i = 0; i < n; ++i) {
      const int64_t g = first.group_ids[i];
      const double v = vals != nullptr ? vals->values.AsDouble(i) : 1.0;
      double& acc = r->out.agg_vals[g];
      switch (fn) {
        case AggFn::kSum:
        case AggFn::kAvg: acc += v; break;
        case AggFn::kCount: acc += 1.0; break;
        case AggFn::kMin: acc = std::min(acc, v); break;
        case AggFn::kMax: acc = std::max(acc, v); break;
        case AggFn::kNone: break;
      }
      r->out.agg_counts[g] += 1;
    }
    if (fn == AggFn::kAvg) {
      for (size_t g = 0; g < ngroups; ++g) {
        if (r->out.agg_counts[g] > 0) {
          r->out.agg_vals[g] /= static_cast<double>(r->out.agg_counts[g]);
        }
      }
    }
    r->tuples_in = n;
    r->tuples_out = ngroups;
    return Status::OK();
  }

  const bool is_values = first.kind == Intermediate::Kind::kValues;
  if (!is_values && first.kind != Intermediate::Kind::kRowIds &&
      first.kind != Intermediate::Kind::kPairs) {
    return Status::InvalidArgument("scalar aggregate input must be values/rowids");
  }
  const uint64_t n = is_values ? first.values.size() : first.rowids.size();
  double acc = AggInit(fn);
  if (is_values) {
    for (uint64_t i = 0; i < n; ++i) {
      const double v = first.values.AsDouble(i);
      switch (fn) {
        case AggFn::kSum:
        case AggFn::kAvg: acc += v; break;
        case AggFn::kCount: acc += 1.0; break;
        case AggFn::kMin: acc = std::min(acc, v); break;
        case AggFn::kMax: acc = std::max(acc, v); break;
        case AggFn::kNone: break;
      }
    }
  } else {
    if (fn != AggFn::kCount) {
      return Status::InvalidArgument("rowid aggregate supports only count");
    }
    acc = static_cast<double>(n);
  }
  if (fn == AggFn::kAvg && n > 0) acc /= static_cast<double>(n);
  r->out.kind = Intermediate::Kind::kScalar;
  r->out.scalar = acc;
  r->out.scalar_count = static_cast<int64_t>(n);
  r->tuples_in = n;
  r->tuples_out = 1;
  return Status::OK();
}

/// Merges grouped partials: slots numbered by a hash map in first-occurrence
/// order of their keys, each partial (value, count) folded in input order.
/// Partial averages weigh by their counts; a missing count is 1.
inline Status AggrMerge(const PlanNode& node, const Intermediate& in,
                        RefOut* r) {
  if (in.kind != Intermediate::Kind::kGroupedAgg) {
    return Status::InvalidArgument("aggrmerge input must be grouped aggregates");
  }
  const AggFn fn = node.agg_fn;
  r->out.kind = Intermediate::Kind::kGroupedAgg;
  r->out.group_keys.type = in.group_keys.type;
  r->out.group_keys.dict = in.group_keys.dict;
  std::unordered_map<int64_t, size_t> slot_of;
  const uint64_t n = in.agg_vals.size();
  for (uint64_t i = 0; i < n; ++i) {
    const int64_t key = in.group_keys.AsInt(i);
    auto [it, inserted] = slot_of.emplace(key, r->out.agg_vals.size());
    if (inserted) {
      r->out.group_keys.i64.push_back(key);
      r->out.agg_vals.push_back(AggInit(fn));
      r->out.agg_counts.push_back(0);
    }
    double& acc = r->out.agg_vals[it->second];
    const double v = in.agg_vals[i];
    const int64_t c = in.agg_counts.empty() ? 1 : in.agg_counts[i];
    switch (fn) {
      case AggFn::kSum:
      case AggFn::kCount: acc += v; break;
      case AggFn::kAvg: acc += v * static_cast<double>(c); break;
      case AggFn::kMin: acc = std::min(acc, v); break;
      case AggFn::kMax: acc = std::max(acc, v); break;
      case AggFn::kNone: break;
    }
    r->out.agg_counts[it->second] += c;
  }
  if (fn == AggFn::kAvg) {
    for (size_t g = 0; g < r->out.agg_vals.size(); ++g) {
      if (r->out.agg_counts[g] > 0) {
        r->out.agg_vals[g] /= static_cast<double>(r->out.agg_counts[g]);
      }
    }
  }
  r->tuples_in = n;
  r->tuples_out = r->out.agg_vals.size();
  return Status::OK();
}

/// Runs the reference of `node` (a select, fetch-join, group-by, sort,
/// top-N, aggregate or aggr-merge) over `inputs`, the intermediates of
/// node.inputs in order.
inline Status ReferenceNode(const PlanNode& node,
                            const std::vector<const Intermediate*>& inputs,
                            RefOut* r) {
  const Intermediate* in = inputs.empty() ? nullptr : inputs[0];
  switch (node.kind) {
    case OpKind::kSelect: return Select(node, in, r);
    case OpKind::kFetchJoin: return FetchJoin(node, *in, r);
    case OpKind::kGroupBy: return GroupBy(node, in, r);
    case OpKind::kSort:
    case OpKind::kTopN: return Sort(node, in, r);
    case OpKind::kAggregate: return Aggregate(node, inputs, r);
    case OpKind::kAggrMerge: return AggrMerge(node, *in, r);
    default: return Status::Unsupported("no reference for this operator");
  }
}

template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

inline bool SameBits(const ValueVec& a, const ValueVec& b) {
  return a.type == b.type && a.dict == b.dict && SameBits(a.i64, b.i64) &&
         SameBits(a.f64, b.f64);
}

/// "" when `want` and `got` agree in every field bit for bit, else the name
/// of the first field that differs.
inline std::string DiffBits(const Intermediate& want, const Intermediate& got) {
  if (want.kind != got.kind) {
    return std::string("kind ") + Intermediate::KindName(want.kind) + " vs " +
           Intermediate::KindName(got.kind);
  }
  if (!(want.origin == got.origin)) {
    return "origin " + want.origin.ToString() + " vs " + got.origin.ToString();
  }
  if (!SameBits(want.rowids, got.rowids)) return "rowids";
  if (!SameBits(want.rrowids, got.rrowids)) return "rrowids";
  if (!SameBits(want.values, got.values)) return "values";
  if (!SameBits(want.head, got.head)) return "head";
  if (!SameBits(want.group_ids, got.group_ids)) return "group_ids";
  if (!SameBits(want.group_keys, got.group_keys)) return "group_keys";
  if (!SameBits(want.agg_vals, got.agg_vals)) return "agg_vals";
  if (!SameBits(want.agg_counts, got.agg_counts)) return "agg_counts";
  if (std::memcmp(&want.scalar, &got.scalar, sizeof(double)) != 0 ||
      want.scalar_count != got.scalar_count) {
    return "scalar";
  }
  return "";
}

/// Recomputes every select, fetch-join, group-by, sort, top-N, aggregate and
/// aggr-merge node of `er` (a successful Execute of `plan`) from that node's
/// own inputs in er.intermediates — er.result for the result node's input —
/// and compares its output, tuples_in, tuples_out and random_accesses bit
/// for bit. Returns "" when all match, else the first difference.
/// `checked`, when given, receives the number of nodes compared.
inline std::string CheckAgainstReference(const QueryPlan& plan,
                                         const EvalResult& er,
                                         size_t* checked = nullptr) {
  const int result_input = plan.node(plan.result_id()).inputs[0];
  auto output_of = [&](int id) -> const Intermediate* {
    if (id == result_input) return &er.result;
    auto it = er.intermediates.find(id);
    return it == er.intermediates.end() ? nullptr : &it->second;
  };
  size_t n = 0;
  for (const OpMetrics& m : er.metrics) {
    if (!IsReferenced(m.kind)) continue;
    const PlanNode& node = plan.node(m.node_id);
    const std::string where = "node " + std::to_string(node.id) + " (" +
                              OpKindName(node.kind) + "): ";
    std::vector<const Intermediate*> inputs;
    for (int id : node.inputs) {
      inputs.push_back(output_of(id));
      if (inputs.back() == nullptr) return where + "input missing";
    }
    const Intermediate* got = output_of(node.id);
    if (got == nullptr) return where + "output missing";
    RefOut r;
    const Status st = ReferenceNode(node, inputs, &r);
    if (!st.ok()) return where + "reference failed: " + st.ToString();
    const std::string diff = DiffBits(r.out, *got);
    if (!diff.empty()) return where + diff;
    if (r.tuples_in != m.tuples_in) return where + "tuples_in";
    if (r.tuples_out != m.tuples_out) return where + "tuples_out";
    if (r.random_accesses != m.random_accesses) {
      return where + "random_accesses";
    }
    ++n;
  }
  if (checked != nullptr) *checked = n;
  return "";
}

}  // namespace ref
}  // namespace apq

#endif  // APQ_TESTS_REFERENCE_OPS_H_

#include "plan/plan.h"

#include <algorithm>
#include <functional>
#include <sstream>

namespace apq {

std::string PlanNode::ToString() const {
  std::ostringstream os;
  os << "X_" << id << " := " << OpKindName(kind) << "(";
  bool first = true;
  for (int in : inputs) {
    if (!first) os << ",";
    os << "X_" << in;
    first = false;
  }
  if (column) {
    if (!first) os << ",";
    os << column->name();
    if (has_slice) os << slice.ToString();
    first = false;
  }
  if (column2) {
    if (!first) os << ",";
    os << column2->name();
  }
  switch (kind) {
    case OpKind::kSelect: os << "; " << pred.ToString(); break;
    case OpKind::kAggregate:
    case OpKind::kAggrMerge: os << "; " << AggFnName(agg_fn); break;
    default: break;
  }
  os << ")";
  if (!label.empty()) os << "  # " << label;
  return os.str();
}

std::string PlanStats::ToString() const {
  std::ostringstream os;
  os << "nodes=" << num_nodes << " selects=" << num_selects
     << " joins=" << num_joins << " fetchjoins=" << num_fetchjoins
     << " unions=" << num_unions << " groupbys=" << num_groupbys
     << " aggs=" << num_aggregates << " maps=" << num_maps
     << " max_union_fanin=" << max_union_fanin;
  return os.str();
}

int QueryPlan::AddNode(PlanNode node) {
  node.id = static_cast<int>(nodes_.size());
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

std::vector<int> QueryPlan::Consumers(int id) const {
  std::vector<int> out;
  auto order = TopologicalOrder();
  const std::vector<int>* scope = nullptr;
  std::vector<int> all;
  if (order.ok()) {
    scope = &order.ValueOrDie();
  } else {
    all.resize(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) all[i] = static_cast<int>(i);
    scope = &all;
  }
  for (int nid : *scope) {
    const PlanNode& n = nodes_[nid];
    if (std::find(n.inputs.begin(), n.inputs.end(), id) != n.inputs.end()) {
      out.push_back(nid);
    }
  }
  return out;
}

StatusOr<std::vector<int>> QueryPlan::TopologicalOrder() const {
  if (result_id_ < 0 || result_id_ >= num_nodes()) {
    return Status::Internal("plan '" + name_ + "' has no result node");
  }
  std::vector<int> order;
  // 0 = unvisited, 1 = on stack, 2 = done.
  std::vector<uint8_t> state(nodes_.size(), 0);
  std::function<Status(int)> visit = [&](int id) -> Status {
    if (id < 0 || id >= num_nodes()) {
      return Status::Internal("node input id out of range: " +
                              std::to_string(id));
    }
    if (state[id] == 2) return Status::OK();
    if (state[id] == 1) {
      return Status::Internal("cycle detected at node " + std::to_string(id));
    }
    state[id] = 1;
    for (int in : nodes_[id].inputs) APQ_RETURN_NOT_OK(visit(in));
    state[id] = 2;
    order.push_back(id);
    return Status::OK();
  };
  APQ_RETURN_NOT_OK(visit(result_id_));
  return order;
}

namespace {

// Join keys and leaf group-by keys are read as int64 (ints, dates and
// dictionary codes); a float64 column has no int64 storage to read.
Status CheckIntKeys(const Column* col, const char* role) {
  if (col != nullptr && col->type() == DataType::kFloat64) {
    return Status::InvalidArgument(std::string(role) + " column '" +
                                   col->name() + "' is float64; keys must "
                                   "be int64, date or string");
  }
  return Status::OK();
}

}  // namespace

Status QueryPlan::Validate() const {
  auto order_or = TopologicalOrder();
  if (!order_or.ok()) return order_or.status();
  for (int id : order_or.ValueOrDie()) {
    const PlanNode& n = nodes_[id];
    switch (n.kind) {
      case OpKind::kSelect:
        if (!n.column) return Status::InvalidArgument("select without column");
        if (n.inputs.size() > 1) {
          return Status::InvalidArgument("select takes at most one candidate input");
        }
        break;
      case OpKind::kFetchJoin:
        if (!n.column) return Status::InvalidArgument("fetchjoin without column");
        if (n.inputs.size() != 1) {
          return Status::InvalidArgument("fetchjoin takes exactly one input");
        }
        break;
      case OpKind::kJoin:
        if (!n.column2) return Status::InvalidArgument("join without inner column");
        if (n.inputs.size() > 1) {
          return Status::InvalidArgument("join takes at most one probe input");
        }
        if (n.inputs.empty() && !n.column) {
          return Status::InvalidArgument("leaf join needs an outer column");
        }
        APQ_RETURN_NOT_OK(CheckIntKeys(n.column, "join outer"));
        APQ_RETURN_NOT_OK(CheckIntKeys(n.column2, "join inner"));
        break;
      case OpKind::kGroupBy:
        if (n.inputs.size() != 1 && !n.column) {
          return Status::InvalidArgument("groupby needs an input or a column");
        }
        if (n.inputs.empty()) {
          APQ_RETURN_NOT_OK(CheckIntKeys(n.column, "groupby"));
        }
        break;
      case OpKind::kAggregate:
        if (n.agg_fn == AggFn::kNone) {
          return Status::InvalidArgument("aggregate without function");
        }
        if (n.inputs.empty() || n.inputs.size() > 2) {
          return Status::InvalidArgument("aggregate takes 1 or 2 inputs");
        }
        break;
      case OpKind::kAggrMerge:
        if (n.inputs.size() != 1) {
          return Status::InvalidArgument("aggrmerge takes exactly one input");
        }
        break;
      case OpKind::kExchangeUnion:
        if (n.inputs.empty()) {
          return Status::InvalidArgument("exchange union without inputs");
        }
        break;
      case OpKind::kMap:
        if (n.map_fn == MapFn::kNone) {
          return Status::InvalidArgument("map without function");
        }
        if (n.inputs.empty() || n.inputs.size() > 2) {
          return Status::InvalidArgument("map takes 1 or 2 inputs");
        }
        if (n.inputs.size() == 1 && !n.map_use_const && !n.column) {
          return Status::InvalidArgument("unary map needs a constant or column");
        }
        break;
      case OpKind::kSort:
      case OpKind::kTopN:
        if (n.inputs.size() > 1) {
          return Status::InvalidArgument("sort/topn take at most one input");
        }
        if (n.inputs.empty() && !n.column) {
          return Status::InvalidArgument("leaf sort/topn needs a column");
        }
        break;
      case OpKind::kResult:
        if (n.inputs.size() != 1) {
          return Status::InvalidArgument("result takes exactly one input");
        }
        break;
    }
    if (n.has_slice && n.column) {
      if (n.slice.end > n.column->size() || n.slice.begin > n.slice.end) {
        return Status::OutOfRange("slice " + n.slice.ToString() +
                                  " outside column '" + n.column->name() + "'");
      }
    }
  }
  return Status::OK();
}

PlanStats QueryPlan::Stats() const {
  PlanStats s;
  auto order_or = TopologicalOrder();
  if (!order_or.ok()) return s;
  for (int id : order_or.ValueOrDie()) {
    const PlanNode& n = nodes_[id];
    ++s.num_nodes;
    switch (n.kind) {
      case OpKind::kSelect: ++s.num_selects; break;
      case OpKind::kJoin: ++s.num_joins; break;
      case OpKind::kFetchJoin: ++s.num_fetchjoins; break;
      case OpKind::kExchangeUnion:
        ++s.num_unions;
        s.max_union_fanin =
            std::max(s.max_union_fanin, static_cast<int>(n.inputs.size()));
        break;
      case OpKind::kGroupBy: ++s.num_groupbys; break;
      case OpKind::kAggregate:
      case OpKind::kAggrMerge: ++s.num_aggregates; break;
      case OpKind::kMap: ++s.num_maps; break;
      default: break;
    }
  }
  return s;
}

std::vector<RowRange> PartitionSlices(const QueryPlan& plan, OpKind kind) {
  std::vector<RowRange> slices;
  auto order_or = plan.TopologicalOrder();
  if (!order_or.ok()) return slices;
  for (int id : order_or.ValueOrDie()) {
    const PlanNode& n = plan.node(id);
    if (n.kind == kind && n.has_slice) slices.push_back(n.slice);
  }
  std::sort(slices.begin(), slices.end(),
            [](const RowRange& a, const RowRange& b) {
              return a.begin != b.begin ? a.begin < b.begin : a.end < b.end;
            });
  return slices;
}

std::string QueryPlan::ToString() const {
  std::ostringstream os;
  os << "plan " << name_ << " {\n";
  auto order_or = TopologicalOrder();
  if (order_or.ok()) {
    for (int id : order_or.ValueOrDie()) {
      os << "  " << nodes_[id].ToString() << "\n";
    }
  } else {
    os << "  <invalid: " << order_or.status().ToString() << ">\n";
  }
  os << "}";
  return os.str();
}

}  // namespace apq

#include "exec/evaluator.h"

#include <algorithm>
#include <array>
#include <functional>
#include <string>

#include "exec/agg/parallel_agg.h"
#include "exec/kernels.h"
#include "exec/sort/sort_runs.h"
#include "obs/resource_tracker.h"
#include "util/env.h"
#include "util/hash_clock.h"

// CMake stamps the project version in; a bare compile (e.g. an IDE index
// pass) still builds.
#ifndef APQ_VERSION
#define APQ_VERSION "dev"
#endif

namespace apq {

void RegisterBuildInfo(simd::SimdLevel level) {
  static const bool once = [level] {
#ifdef NDEBUG
    const char* build = "release";
#else
    const char* build = "debug";
#endif
    obs::MetricsRegistry::Global()
        .GetGauge(std::string("apq_build_info{version=\"") + APQ_VERSION +
                  "\",simd=\"" + simd::LevelName(level) + "\",build=\"" +
                  build + "\"}")
        ->Set(1);
    return true;
  }();
  (void)once;
}

namespace {

ValueVec MakeVecLike(const Column& col) {
  ValueVec v;
  v.type = col.type();
  if (col.type() == DataType::kString) v.dict = &col;
  return v;
}

void GatherInto(const Column& col, oid row, ValueVec* vals) {
  if (col.type() == DataType::kFloat64) {
    vals->f64.push_back(col.f64()[row]);
  } else {
    vals->i64.push_back(col.i64()[row]);
  }
}

// Applies a sort permutation to (values, head): the result holds values[p]
// (and head[p], when head is non-null) for each p in perm, in perm order.
void GatherPermuted(const ValueVec& values, const std::vector<oid>* head,
                    const std::vector<uint64_t>& perm, Intermediate* result) {
  result->kind = Intermediate::Kind::kValues;
  result->values.type = values.type;
  result->values.dict = values.dict;
  result->values.Reserve(perm.size());
  if (head != nullptr) result->head.reserve(perm.size());
  for (uint64_t i : perm) {
    if (values.is_f64()) result->values.f64.push_back(values.f64[i]);
    else result->values.i64.push_back(values.i64[i]);
    if (head != nullptr) result->head.push_back((*head)[i]);
  }
}

Status InputSlot(const std::vector<Intermediate>& slots,
                 const std::vector<uint8_t>& done, int id,
                 const Intermediate** out) {
  if (id < 0 || id >= static_cast<int>(slots.size()) || !done[id]) {
    return Status::Internal("input X_" + std::to_string(id) + " not evaluated");
  }
  *out = &slots[id];
  return Status::OK();
}

// Per-op-kind tuple-flow counters (every tier funnels through ExecNode, so
// these cover kernels, morsels, parallel agg/sort/probe and SIMD alike).
// Resolved once per process; the per-run update is one relaxed add per
// operator, far off the hot path.
struct TupleFlow {
  obs::Counter* in = nullptr;
  obs::Counter* out = nullptr;
};

const TupleFlow& TupleFlowFor(OpKind k) {
  constexpr size_t kKinds = static_cast<size_t>(OpKind::kResult) + 1;
  static const std::array<TupleFlow, kKinds>* flows = [] {
    auto* f = new std::array<TupleFlow, kKinds>();
    auto& reg = obs::MetricsRegistry::Global();
    for (size_t i = 0; i < kKinds; ++i) {
      const char* name = OpKindName(static_cast<OpKind>(i));
      (*f)[i].in = reg.GetCounter(
          std::string("apq_op_tuples_in_total{op=\"") + name + "\"}");
      (*f)[i].out = reg.GetCounter(
          std::string("apq_op_tuples_out_total{op=\"") + name + "\"}");
    }
    return f;
  }();
  return (*flows)[static_cast<size_t>(k)];
}

// What one span kernel produced over a morsel, or over the whole input when
// it ran inline. Each operator fills the members it produces.
struct SpanOut {
  std::vector<oid> rows;   // selected row ids / probe outer ids / gathered head
  std::vector<oid> rrows;  // probe inner row ids
  ValueVec values;         // gathered values
  uint64_t accesses = 0;   // candidate-select random accesses
  Status status;           // gather validation
};

// Fills `out` for input span [b, e) and sets mm->tuples_out (and the domain,
// when known).
using SpanKernel =
    std::function<void(uint64_t b, uint64_t e, SpanOut* out, MorselMetrics* mm)>;

// The one morsel path of select, candidate select, fetch-join gather and join
// probe: runs `kernel` over input positions [begin, end) once inline when the
// span fits one morsel or there is no fleet (m->morsels stays empty),
// otherwise once per morsel on the fleet, timing each morsel, sampling its
// trace span by morsel index (so the trace never depends on which worker ran
// it) and recording its MorselMetrics in m->morsels. Returns the outputs in
// input order.
std::vector<SpanOut> RunSpans(MorselScheduler* fleet, uint64_t morsel_rows,
                              uint64_t begin, uint64_t end,
                              const char* span_name, OpMetrics* m,
                              const SpanKernel& kernel) {
  const MorselSource src(begin, end, morsel_rows);
  const size_t nm = fleet != nullptr ? src.num_morsels() : 1;
  std::vector<SpanOut> outs(nm < 2 ? 1 : nm);
  if (nm < 2) {
    MorselMetrics unused;
    kernel(begin, end, &outs[0], &unused);
    return outs;
  }
  std::vector<MorselMetrics> mm(nm);
  fleet->ParallelFor(nm, [&](size_t i, int worker) {
    const Morsel ms = src.morsel(i);
    const bool tr = obs::TraceEnabled() && (i & obs::kMorselSampleMask) == 0;
    const uint64_t tt0 = tr ? obs::TraceTicks() : 0;
    const double t0 = NowNs();
    kernel(ms.begin, ms.end, &outs[i], &mm[i]);
    mm[i].tuples_in = ms.size();
    mm[i].wall_ns = NowNs() - t0;
    mm[i].worker = worker;
    if (tr) {
      obs::EmitSpan(obs::SpanKind::kMorsel, span_name, tt0, obs::TraceTicks(),
                    m->node_id, static_cast<int64_t>(i),
                    static_cast<int64_t>(mm[i].tuples_out));
    }
  });
  m->morsels = std::move(mm);
  return outs;
}

// Sets `dst` to field(out) of every span output, concatenated in input
// order. A lone output (the inline case) is moved, not copied.
template <typename T, typename Field>
void ConcatSpans(std::vector<SpanOut>* outs, Field field,
                 std::vector<T>* dst) {
  if (outs->size() == 1) {
    *dst = std::move(field(outs->front()));
    return;
  }
  size_t total = 0;
  for (SpanOut& o : *outs) total += field(o).size();
  dst->clear();
  dst->reserve(total);
  for (SpanOut& o : *outs) {
    dst->insert(dst->end(), field(o).begin(), field(o).end());
  }
}

// Records the base-row domain of the ascending id span ids[b, e). A span
// reaching outside `range` (a sliced clone's share of a wider candidate list)
// has its tuple counts diluted by clip-only ids, so its domain is reported
// unknown and the operator's tuple-skew signal is withheld rather than
// mistaking clipping for skew. Pairs-fed id lists may be unsorted; the
// skew-aware mutator validates monotonicity before using a domain.
void SetIdDomain(const oid* ids, uint64_t b, uint64_t e, RowRange range,
                 MorselMetrics* mm) {
  if (b == e) return;
  const uint64_t db = ids[b];
  const uint64_t de = ids[e - 1] + 1;
  if (db < range.begin || de > range.end) return;
  mm->domain_begin = db;
  mm->domain_end = de;
}

// The int64 keys of `v`: its own storage, or its float64 values truncated by
// AsInt into `scratch`.
const int64_t* IntKeys(const ValueVec& v, std::vector<int64_t>* scratch) {
  if (!v.is_f64()) return v.i64.data();
  scratch->resize(v.size());
  for (uint64_t i = 0; i < v.size(); ++i) (*scratch)[i] = v.AsInt(i);
  return scratch->data();
}

// One aggregate function, defined once for every fold: its identity, how a
// partial (value, count) merges into an accumulator, and how the
// accumulator finishes. A row is the partial (value, 1). COUNT adds counts;
// AVG weighs each partial's value by its count, then divides by the total.
struct AggFold {
  AggFn fn;

  double Identity() const {
    const double far = 1e300;  // MIN's identity; MAX's is its negation
    return fn == AggFn::kMin ? far : fn == AggFn::kMax ? -far : 0.0;
  }
  void Merge(double* acc, double v, int64_t count) const {
    switch (fn) {
      case AggFn::kSum: *acc += v; break;
      case AggFn::kCount: *acc += static_cast<double>(count); break;
      case AggFn::kAvg: *acc += v * static_cast<double>(count); break;
      case AggFn::kMin: *acc = std::min(*acc, v); break;
      case AggFn::kMax: *acc = std::max(*acc, v); break;
      case AggFn::kNone: break;
    }
  }
  double Finish(double acc, int64_t count) const {
    return fn == AggFn::kAvg && count > 0 ? acc / static_cast<double>(count)
                                          : acc;
  }
};

// Folds the partial (value(i), counts[i]) of each i < n into group gids[i],
// in input order, and finishes result's `ngroups` groups. Null counts make
// every partial a row (count 1).
template <typename Value>
void FoldGroups(const AggFold& fold, const int64_t* gids, uint64_t n,
                size_t ngroups, const Value& value, const int64_t* counts,
                Intermediate* result) {
  result->agg_vals.assign(ngroups, fold.Identity());
  result->agg_counts.assign(ngroups, 0);
  for (uint64_t i = 0; i < n; ++i) {
    const int64_t c = counts != nullptr ? counts[i] : 1;
    fold.Merge(&result->agg_vals[gids[i]], value(i), c);
    result->agg_counts[gids[i]] += c;
  }
  for (size_t g = 0; g < ngroups; ++g) {
    double& acc = result->agg_vals[g];
    acc = fold.Finish(acc, result->agg_counts[g]);
  }
}

}  // namespace

#define APQ_INPUT_OF(ctx, id, out) \
  APQ_RETURN_NOT_OK(InputSlot(*(ctx).slots, *(ctx).done, (id), (out)))

Evaluator::~Evaluator() {
  uint64_t bytes = 0;
  for (const auto& [column, slot] : hash_cache_) {
    if (slot->index != nullptr) bytes += slot->index->byte_size();
  }
  obs::AddHashCacheBytes(-static_cast<int64_t>(bytes));
}

Evaluator::Evaluator(ExecOptions options,
                     std::shared_ptr<MorselScheduler> fleet)
    : options_(options),
      simd_ops_(&simd::Resolve(options.simd_level)),
      fleet_(fleet != nullptr || ForcedEnvMorselRows() == 0
                 ? std::move(fleet)
                 : std::make_shared<MorselScheduler>()) {
  // Observability wiring, once per evaluator. APQ_TRACE / APQ_METRICS are
  // read here so benches and examples that never touch Engine still export
  // at exit; the gauge mirrors the dispatch tier the kernels run with.
  obs::InitFromEnv();
  obs::MetricsRegistry::Global()
      .GetGauge("apq_simd_dispatch_level")
      ->Set(static_cast<int64_t>(simd_ops_->level));
  RegisterBuildInfo(simd_ops_->level);
}

uint64_t Evaluator::EffectiveMorselRows(uint64_t morsel_rows) const {
  const uint64_t forced = ForcedEnvMorselRows();
  if (forced > 1) return forced;
  return morsel_rows > 0 ? morsel_rows : options_.morsel_rows;
}

uint64_t Evaluator::ForcedEnvMorselRows() {
  // CI and stress runs force a fleet onto every evaluator without touching
  // call sites. The cap only catches typos: no table this repository can
  // hold in memory has 2^32 rows.
  static const uint64_t forced =
      EnvInt("APQ_FORCE_MORSELS", 1, 1ull << 32).value_or(0);
  return forced;
}

std::shared_ptr<HashIndex> Evaluator::GetOrBuildHash(const Column& column,
                                                     const ExecContext& ctx) {
  // hash_mu_ only covers the map lookup/insert; the build itself runs under
  // the slot's once_flag. Concurrent first builds of *different* inners
  // therefore proceed in parallel, while clones racing for the *same* inner
  // still share one build (the sharing MonetDB's BAT hash gives), with
  // late-comers blocking in call_once until the winner finishes.
  std::shared_ptr<HashSlot> slot;
  {
    std::lock_guard<std::mutex> lock(hash_mu_);
    auto& entry = hash_cache_[&column];
    if (!entry) entry = std::make_shared<HashSlot>();
    slot = entry;
  }
  std::call_once(slot->built, [&] {
    slot->index = HashIndex::Build(column, column.full_range());
    // The index outlives this query (BAT-style cross-query cache): surface
    // the build in the builder's peak, then park the steady-state bytes in
    // the process-wide cache gauge instead of leaving per-query drift.
    obs::ChargeTransient(slot->index->byte_size());
    obs::AddHashCacheBytes(static_cast<int64_t>(slot->index->byte_size()));
    std::lock_guard<std::mutex> lock(hash_mu_);
    ctx.hash_builds->emplace_back(&column, slot->index->num_keys());
  });
  return slot->index;
}

Status Evaluator::Execute(const QueryPlan& plan, EvalResult* out,
                          const MorselRowsByNode& node_rows,
                          uint64_t morsel_rows) {
  APQ_RETURN_NOT_OK(plan.Validate());
  out->intermediates.clear();
  out->metrics.clear();
  auto order_or = plan.TopologicalOrder();
  if (!order_or.ok()) return order_or.status();
  const std::vector<int>& order = order_or.ValueOrDie();

  std::vector<Intermediate> slots(plan.num_nodes());
  std::vector<uint8_t> done(plan.num_nodes(), 0);
  std::vector<OpMetrics> metrics(order.size());
  HashBuildLog hash_builds;
  const ExecContext ctx{&slots, &done, &node_rows,
                        EffectiveMorselRows(morsel_rows), &hash_builds};
  // One span per plan execution: the nesting parent of every operator span
  // on this thread (query -> [adaptive run ->] execute -> operator).
  // a1 = the engine's query id, correlating this span with
  // /debug/profile/<id> (0 outside an Engine query).
  obs::SpanScope exec_span(obs::SpanKind::kRun, "execute",
                           static_cast<int64_t>(order.size()),
                           static_cast<int64_t>(obs::CurrentQueryId()));
  double t0 = NowNs();
  Status exec_st = RunNodes(plan, order, ctx, &slots, &done, &metrics);
  // Uncharge every materialized slot (ExecNode charged each completed
  // node's output durable) before slots are moved out — on the error path
  // too, so a failed query cannot leave drift behind.
  for (int id : order) {
    if (done[id]) obs::UnchargeBytes(slots[id].ByteSize());
  }
  APQ_RETURN_NOT_OK(exec_st);
  out->wall_ns = NowNs() - t0;

  // Attribute hash-build cost to the topologically-first join over each
  // built inner, independent of which worker actually built it, so
  // hash_build_rows is identical for serial and threaded execution. Every
  // node has finished, so the log needs no lock.
  for (const auto& [col, rows] : hash_builds) {
    for (size_t i = 0; i < order.size(); ++i) {
      const PlanNode& node = plan.node(order[i]);
      if (node.kind == OpKind::kJoin && node.column2 == col) {
        metrics[i].hash_build_rows += rows;
        break;
      }
    }
  }

  out->metrics = std::move(metrics);
  // Tuple-flow accounting: once per run over the finished metrics, never in
  // an operator or morsel loop.
  static obs::Counter* const queries_total =
      obs::MetricsRegistry::Global().GetCounter("apq_queries_total");
  queries_total->Inc();
  for (const OpMetrics& m : out->metrics) {
    const TupleFlow& tf = TupleFlowFor(m.kind);
    tf.in->Inc(m.tuples_in);
    tf.out->Inc(m.tuples_out);
  }
  // The result node hands its input over: the query result is that slot,
  // moved, so neither node is listed in intermediates.
  const int result_input = plan.node(plan.result_id()).inputs[0];
  out->result = std::move(slots[result_input]);
  for (int id : order) {
    if (id != plan.result_id() && id != result_input) {
      out->intermediates.emplace(id, std::move(slots[id]));
    }
  }
  return Status::OK();
}

Status Evaluator::RunNodes(const QueryPlan& plan,
                           const std::vector<int>& order,
                           const ExecContext& ctx,
                           std::vector<Intermediate>* slots,
                           std::vector<uint8_t>* done,
                           std::vector<OpMetrics>* metrics) {
  auto run = [&](size_t i) {
    const PlanNode& node = plan.node(order[i]);
    OpMetrics& m = (*metrics)[i];
    m.node_id = node.id;
    m.kind = node.kind;
    return ExecNode(plan, node, ctx, &(*slots)[node.id], &m);
  };

  // Only exchange clones are worth a fleet job: a plan without a union runs
  // inline, node after node, so serial plans keep their thread use.
  MorselScheduler* fleet = fleet_.get();
  const bool has_union =
      std::any_of(order.begin(), order.end(), [&](int id) {
        return plan.node(id).kind == OpKind::kExchangeUnion;
      });
  if (fleet == nullptr || !has_union) {
    for (size_t i = 0; i < order.size(); ++i) {
      APQ_RETURN_NOT_OK(run(i));
      (*done)[order[i]] = 1;
    }
    return Status::OK();
  }

  // Dataflow levels: a node's level is the length of its longest input path
  // from a leaf, so every input of a level ran in an earlier one. Levels hold
  // topological positions in ascending order.
  std::vector<size_t> level_of(plan.num_nodes(), 0);
  std::vector<std::vector<size_t>> levels;
  for (size_t i = 0; i < order.size(); ++i) {
    size_t lv = 0;
    for (int in : plan.node(order[i]).inputs) {
      lv = std::max(lv, level_of[in] + 1);
    }
    level_of[order[i]] = lv;
    if (levels.size() <= lv) levels.resize(lv + 1);
    levels[lv].push_back(i);
  }
  for (const std::vector<size_t>& level : levels) {
    std::vector<Status> st(level.size());
    if (level.size() == 1) {
      st[0] = run(level[0]);
    } else {
      // Node tasks bill nothing themselves: each operator bills its own time
      // (ExecNode) and morsels, so query cpu_ns stays the operators' sum.
      fleet->ParallelFor(
          level.size(), [&](size_t k, int) { st[k] = run(level[k]); },
          /*bill=*/false);
    }
    Status first = Status::OK();
    for (size_t k = 0; k < level.size(); ++k) {
      if (st[k].ok()) {
        (*done)[order[level[k]]] = 1;
      } else if (first.ok()) {
        first = st[k];  // lowest topological failure of this level
      }
    }
    APQ_RETURN_NOT_OK(first);
  }
  return Status::OK();
}

Status Evaluator::ExecNode(const QueryPlan& plan, const PlanNode& node,
                           const ExecContext& ctx, Intermediate* result,
                           OpMetrics* m) {
  // One span per operator execution; OpKindName returns static-storage
  // strings, as the ring buffer requires. Tuple counts are attached after
  // the operator ran.
  obs::SpanScope span(obs::SpanKind::kOperator, OpKindName(node.kind),
                      node.id);
  // Per-operator resource attribution (obs/resource_tracker.h): charges and
  // task bills made while this node runs — on this thread or on scheduler
  // workers, which re-install the block — land in `acct`. The block lives on
  // this frame; ParallelFor drains every task before returning, so no
  // billing outlives it.
  obs::OpAcct acct;
  obs::OpAcctScope acct_scope(&acct);
  const double t0 = NowNs();
  Status st = ExecNodeInner(plan, node, ctx, result, m);
  const double node_wall = NowNs() - t0;
  if (st.ok()) {
    // The node's materialized output stays live until the Execute-level
    // sweep uncharges every slot after the run.
    obs::ChargeBytes(result->ByteSize());
  }
  m->peak_bytes = acct.peak_bytes.load(std::memory_order_relaxed);
  m->queue_wait_ns = acct.queue_wait_ns.load(std::memory_order_relaxed);
  if (acct.tasks.load(std::memory_order_relaxed) > 0) {
    // Morselized: summed task time, billed to the query by the scheduler.
    m->cpu_ns = acct.cpu_ns.load(std::memory_order_relaxed);
  } else {
    // Whole-column: never went through the scheduler, so the node wall IS
    // the cpu — record it and bill the owning query directly.
    m->cpu_ns = static_cast<uint64_t>(node_wall > 0 ? node_wall : 0);
    obs::BillTask(obs::CurrentQuery(), nullptr,
                  static_cast<double>(m->cpu_ns), 0);
  }
  span.set_args(node.id, static_cast<int64_t>(m->tuples_in),
                static_cast<int64_t>(m->tuples_out));
  return st;
}

Status Evaluator::ExecNodeInner(const QueryPlan& plan, const PlanNode& node,
                                const ExecContext& ctx, Intermediate* result,
                                OpMetrics* m) {
  (void)plan;
  switch (node.kind) {
    case OpKind::kSelect: return ExecSelect(node, ctx, result, m);
    case OpKind::kFetchJoin: return ExecFetchJoin(node, ctx, result, m);
    case OpKind::kJoin: return ExecJoin(node, ctx, result, m);
    case OpKind::kGroupBy: return ExecGroupBy(node, ctx, result, m);
    case OpKind::kAggregate: return ExecAggregate(node, ctx, result, m);
    case OpKind::kAggrMerge: return ExecAggrMerge(node, ctx, result, m);
    case OpKind::kExchangeUnion: return ExecUnion(node, ctx, result, m);
    case OpKind::kMap: return ExecMap(node, ctx, result, m);
    case OpKind::kSort:
    case OpKind::kTopN: return ExecSort(node, ctx, result, m);
    case OpKind::kResult: {
      // Execute moves the input's slot into EvalResult::result; only check
      // that the input ran.
      const Intermediate* in;
      APQ_INPUT_OF(ctx, node.inputs[0], &in);
      return Status::OK();
    }
  }
  return Status::Unsupported("unknown op kind");
}

Status Evaluator::ExecSelect(const PlanNode& node, const ExecContext& ctx,
                             Intermediate* result, OpMetrics* m) {
  const Column& col = *node.column;
  RowRange range = node.EffectiveRange();
  result->kind = Intermediate::Kind::kRowIds;
  result->origin = range;

  std::vector<uint8_t> like_match;
  if (node.pred.kind == Predicate::Kind::kLike) {
    if (col.type() != DataType::kString) {
      return Status::InvalidArgument("LIKE on non-string column '" + col.name() +
                                     "'");
    }
    like_match = BuildLikeMatch(col, node.pred);
  }

  // Candidate-list form (algebra.subselect with candidates). Candidate
  // scanning is sequential; the value lookups are random gathers into this
  // clone's slice.
  const Intermediate* in = nullptr;
  if (!node.inputs.empty()) {
    APQ_INPUT_OF(ctx, node.inputs[0], &in);
    if (in->kind != Intermediate::Kind::kRowIds) {
      return Status::InvalidArgument("select candidates must be rowids");
    }
    m->tuples_in = in->rowids.size();
    m->random_working_set = range.size() * DataTypeWidth(col.type());
  } else {
    m->tuples_in = range.size();
  }

  // SelectDense appends row ids in row order within its span, so the
  // per-morsel outputs concatenated in morsel order reproduce one
  // whole-range call bit-for-bit.
  std::vector<SpanOut> outs;
  if (in) {
    const oid* cand = in->rowids.data();
    outs = RunSpans(
        fleet_.get(), ctx.MorselRows(node.id), 0, in->rowids.size(),
        "morsel-select-cand", m,
        [&](uint64_t b, uint64_t e, SpanOut* o, MorselMetrics* mm) {
          SelectCandidatesSpan(col, range, node.pred, &like_match, cand + b,
                               e - b, &o->rows, &o->accesses, simd_ops_);
          mm->tuples_out = o->rows.size();
          SetIdDomain(cand, b, e, range, mm);
        });
    for (const SpanOut& o : outs) m->random_accesses += o.accesses;
  } else {
    outs = RunSpans(
        fleet_.get(), ctx.MorselRows(node.id), range.begin, range.end,
        "morsel-select", m,
        [&](uint64_t b, uint64_t e, SpanOut* o, MorselMetrics* mm) {
          SelectDense(col, RowRange{b, e}, node.pred, &like_match, &o->rows,
                      simd_ops_);
          mm->tuples_out = o->rows.size();
          mm->domain_begin = b;
          mm->domain_end = e;
        });
  }
  ConcatSpans(&outs, [](SpanOut& o) -> auto& { return o.rows; },
              &result->rowids);
  m->tuples_out = result->rowids.size();
  m->bytes_in = m->tuples_in * DataTypeWidth(col.type());
  m->bytes_out = m->tuples_out * sizeof(oid);
  return Status::OK();
}

Status Evaluator::ExecFetchJoin(const PlanNode& node, const ExecContext& ctx,
                                Intermediate* result, OpMetrics* m) {
  const Column& col = *node.column;
  const Intermediate* in;
  APQ_INPUT_OF(ctx, node.inputs[0], &in);
  RowRange range = node.EffectiveRange();

  const std::vector<oid>* ids = nullptr;
  switch (in->kind) {
    case Intermediate::Kind::kRowIds:
      ids = &in->rowids;
      break;
    case Intermediate::Kind::kPairs:
      ids = (node.fetch_side == FetchSide::kRight) ? &in->rrowids : &in->rowids;
      break;
    default:
      return Status::InvalidArgument("fetchjoin input must be rowids or pairs");
  }

  result->kind = Intermediate::Kind::kValues;
  result->values = MakeVecLike(col);
  result->origin = range;
  m->tuples_in = ids->size();

  // Boundary alignment (paper Figs 9/10): candidate row ids must index into
  // this clone's slice of the fetch target. Under kStrict any out-of-slice id
  // is a misalignment error; under kAdjust the boundaries are clipped and the
  // sibling clones (covering the neighbouring slices) produce the rest.
  const bool sliced = node.has_slice;
  // Without kAdjust clipping every id yields exactly one value, so span
  // [b, e) owns output positions [b, e) and gathers straight into the
  // pre-sized result; clipped spans gather into their own outputs, which
  // are concatenated in input order.
  const bool clip = sliced && node.align == AlignPolicy::kAdjust;
  const oid* idp = ids->data();
  if (!clip) {
    result->head.resize(ids->size());
    if (result->values.is_f64()) {
      result->values.f64.resize(ids->size());
    } else {
      result->values.i64.resize(ids->size());
    }
  }
  std::vector<SpanOut> outs = RunSpans(
      fleet_.get(), ctx.MorselRows(node.id), 0, ids->size(), "morsel-gather",
      m, [&](uint64_t b, uint64_t e, SpanOut* o, MorselMetrics* mm) {
        if (clip) {
          o->values = MakeVecLike(col);
          o->status =
              GatherRowsSpan(col, idp + b, e - b, range, true, node.align,
                             &o->rows, &o->values, simd_ops_);
          mm->tuples_out = o->values.size();
        } else {
          o->status = GatherRowsAt(col, idp + b, e - b, range, sliced,
                                   result->head.data() + b, &result->values,
                                   b, simd_ops_);
          mm->tuples_out = e - b;
        }
        SetIdDomain(idp, b, e, range, mm);
      });
  // The lowest failing span holds the input-order first offender, the
  // same error one whole-list call reports; a partially written result is
  // discarded upstream.
  for (const SpanOut& o : outs) APQ_RETURN_NOT_OK(o.status);
  if (clip) {
    ConcatSpans(&outs, [](SpanOut& o) -> auto& { return o.rows; },
                &result->head);
    if (result->values.is_f64()) {
      ConcatSpans(&outs, [](SpanOut& o) -> auto& { return o.values.f64; },
                  &result->values.f64);
    } else {
      ConcatSpans(&outs, [](SpanOut& o) -> auto& { return o.values.i64; },
                  &result->values.i64);
    }
  }
  m->tuples_out = result->values.size();
  // Scanning the candidate list is sequential (tuples_in); only the in-slice
  // candidates cost a random gather into the slice's working set.
  m->random_accesses = result->values.size();
  m->random_working_set = range.size() * DataTypeWidth(col.type());
  m->bytes_in = ids->size() * sizeof(oid);
  m->bytes_out = result->values.size() * 16;
  return Status::OK();
}

Status Evaluator::ExecJoin(const PlanNode& node, const ExecContext& ctx,
                           Intermediate* result, OpMetrics* m) {
  const Column& inner = *node.column2;
  const std::shared_ptr<HashIndex> hash = GetOrBuildHash(inner, ctx);
  result->kind = Intermediate::Kind::kPairs;

  // Per-probe matches are appended to the right-side vector by the index;
  // the outer row id is then replicated in one batched fill instead of
  // per-match push_backs.
  auto probe_into = [&hash](int64_t key, oid outer_row, std::vector<oid>* l,
                            std::vector<oid>* r) {
    size_t before = r->size();
    hash->Probe(key, r);
    l->insert(l->end(), r->size() - before, outer_row);
  };
  // Each input shape defines its probe loop once, as a span over input
  // positions [b, e). Per-probe match order is the hash chain order of one
  // shared (read-only) build, so the per-morsel pair outputs concatenated in
  // morsel order reproduce one probe over the whole input bit-for-bit.
  auto run_probe = [&](uint64_t n,
                       const std::function<void(uint64_t, uint64_t,
                                                std::vector<oid>*,
                                                std::vector<oid>*)>& span) {
    std::vector<SpanOut> outs = RunSpans(
        fleet_.get(), ctx.MorselRows(node.id), 0, n, "morsel-probe", m,
        [&](uint64_t b, uint64_t e, SpanOut* o, MorselMetrics* mm) {
          o->rows.reserve(e - b);
          o->rrows.reserve(e - b);
          span(b, e, &o->rows, &o->rrows);
          mm->tuples_out = o->rows.size();
        });
    ConcatSpans(&outs, [](SpanOut& o) -> auto& { return o.rows; },
                &result->rowids);
    ConcatSpans(&outs, [](SpanOut& o) -> auto& { return o.rrows; },
                &result->rrowids);
  };

  if (!node.inputs.empty()) {
    const Intermediate* in;
    APQ_INPUT_OF(ctx, node.inputs[0], &in);
    if (in->kind == Intermediate::Kind::kValues) {
      // Probe materialized keys; head gives outer row ids.
      uint64_t n = in->values.size();
      bool has_head = !in->head.empty();
      RowRange range = node.has_slice ? node.slice : in->origin;
      result->origin = range;
      m->tuples_in = n;
      run_probe(n, [&](uint64_t b, uint64_t e, std::vector<oid>* l,
                       std::vector<oid>* r) {
        for (uint64_t i = b; i < e; ++i) {
          oid outer_row = has_head ? in->head[i] : in->origin.begin + i;
          if (node.has_slice && !range.Contains(outer_row)) continue;
          probe_into(in->values.AsInt(i), outer_row, l, r);
        }
      });
    } else if (in->kind == Intermediate::Kind::kRowIds) {
      if (!node.column) {
        return Status::InvalidArgument("join over rowids needs an outer column");
      }
      const Column& outer = *node.column;
      RowRange range = node.has_slice ? node.slice : in->origin;
      result->origin = range;
      m->tuples_in = in->rowids.size();
      const std::vector<oid>& cand = in->rowids;
      run_probe(cand.size(), [&](uint64_t b, uint64_t e, std::vector<oid>* l,
                                 std::vector<oid>* r) {
        for (uint64_t i = b; i < e; ++i) {
          oid row = cand[i];
          if (node.has_slice && !range.Contains(row)) continue;
          probe_into(outer.i64()[row], row, l, r);
        }
      });
    } else {
      return Status::InvalidArgument("join input must be values or rowids");
    }
  } else {
    // Leaf join: dense scan of the outer column slice.
    const Column& outer = *node.column;
    RowRange range = node.EffectiveRange();
    result->origin = range;
    m->tuples_in = range.size();
    run_probe(range.size(), [&](uint64_t b, uint64_t e, std::vector<oid>* l,
                                std::vector<oid>* r) {
      for (uint64_t i = b; i < e; ++i) {
        oid row = range.begin + i;
        probe_into(outer.i64()[row], row, l, r);
      }
    });
  }
  m->tuples_out = result->rowids.size();
  m->random_accesses = m->tuples_in;
  m->random_working_set = hash->byte_size() + inner.byte_size();
  m->bytes_in = m->tuples_in * 8;
  m->bytes_out = m->tuples_out * 2 * sizeof(oid);
  return Status::OK();
}

Status Evaluator::ExecGroupBy(const PlanNode& node, const ExecContext& ctx,
                              Intermediate* result, OpMetrics* m) {
  result->kind = Intermediate::Kind::kGroups;
  const int64_t* keys = nullptr;
  std::vector<int64_t> truncated;  // float64 keys group by AsInt truncation
  if (!node.inputs.empty()) {
    const Intermediate* in;
    APQ_INPUT_OF(ctx, node.inputs[0], &in);
    if (in->kind != Intermediate::Kind::kValues) {
      return Status::InvalidArgument("groupby input must be values");
    }
    result->group_keys.type = in->values.type;
    result->group_keys.dict = in->values.dict;
    result->origin = in->origin;
    result->head = in->head;
    m->tuples_in = in->values.size();
    keys = IntKeys(in->values, &truncated);
    // The truncated keys are int64, and so is the vector that holds them.
    if (in->values.is_f64()) result->group_keys.type = DataType::kInt64;
  } else {
    // Plan validation guarantees an int64-backed column (ints, dates and
    // dictionary codes).
    const Column& col = *node.column;
    RowRange range = node.EffectiveRange();
    result->group_keys = MakeVecLike(col);
    result->group_keys.type = DataType::kInt64;
    result->origin = range;
    m->tuples_in = range.size();
    keys = col.i64().data() + range.begin;
  }
  GroupByIngest(keys, m->tuples_in, fleet_.get(), ctx.MorselRows(node.id),
                &result->group_ids, &result->group_keys.i64, &m->morsels);
  m->tuples_out = result->group_ids.size();
  m->random_accesses = m->tuples_in;
  // One entry per distinct key (group_keys holds int64 keys on every path).
  m->random_working_set = result->group_keys.i64.size() * 32;
  m->bytes_in = m->tuples_in * 8;
  m->bytes_out = m->tuples_out * 8 + result->group_keys.size() * 8;
  return Status::OK();
}

Status Evaluator::ExecAggregate(const PlanNode& node, const ExecContext& ctx,
                                Intermediate* result, OpMetrics* m) {
  const Intermediate* first;
  APQ_INPUT_OF(ctx, node.inputs[0], &first);

  if (first->kind == Intermediate::Kind::kGroups) {
    // Grouped aggregation.
    const Intermediate* vals = nullptr;
    if (node.inputs.size() == 2) {
      APQ_INPUT_OF(ctx, node.inputs[1], &vals);
      if (vals->kind != Intermediate::Kind::kValues) {
        return Status::InvalidArgument("grouped aggregate values input invalid");
      }
      if (vals->values.size() != first->group_ids.size()) {
        return Status::Misaligned(
            "grouped aggregate: groups have " +
            std::to_string(first->group_ids.size()) + " rows, values " +
            std::to_string(vals->values.size()));
      }
    } else if (node.agg_fn != AggFn::kCount) {
      return Status::InvalidArgument("grouped non-count aggregate needs values");
    }
    size_t ngroups = first->group_keys.size();
    result->kind = Intermediate::Kind::kGroupedAgg;
    result->group_keys = first->group_keys;
    uint64_t n = first->group_ids.size();
    m->tuples_in = n;
    // One sequential fold: every group sees its rows in input order, so
    // SUM/AVG do not depend on morsel size or worker count.
    const auto value = [&](uint64_t i) {
      return vals != nullptr ? vals->values.AsDouble(i) : 0.0;  // COUNT
    };
    FoldGroups(AggFold{node.agg_fn}, first->group_ids.data(), n, ngroups,
               value, nullptr, result);
    m->tuples_out = ngroups;
    m->bytes_in = n * 16;
    m->bytes_out = ngroups * 24;
    return Status::OK();
  }

  if (first->kind != Intermediate::Kind::kValues &&
      first->kind != Intermediate::Kind::kRowIds &&
      first->kind != Intermediate::Kind::kPairs) {
    return Status::InvalidArgument("scalar aggregate input must be values/rowids");
  }
  // Scalar aggregation.
  result->kind = Intermediate::Kind::kScalar;
  uint64_t n = first->kind == Intermediate::Kind::kValues ? first->values.size()
                                                          : first->rowids.size();
  m->tuples_in = n;
  const AggFold fold{node.agg_fn};
  double acc = fold.Identity();
  if (first->kind == Intermediate::Kind::kValues) {
    // SIMD ingest reductions, only where the result is provably the scalar
    // fold's: COUNT is (double)n exactly while n <= 2^53 (the repeated +1.0
    // fold is exact there); MIN/MAX are lattice folds (and the int64->double
    // cast is monotonic, so min/max commute with it); int64 SUM/AVG go
    // through the guarded exact path (sum_i64_exact declines when the
    // no-rounding proof fails). float64 SUM/AVG always fold sequentially —
    // reassociation would change last bits.
    bool done = false;
    if (n > 0) {
      const ValueVec& vv = first->values;
      switch (node.agg_fn) {
        case AggFn::kCount:
          if (n <= (1ull << 53)) {
            acc = static_cast<double>(n);
            done = true;
          }
          break;
        case AggFn::kMin:
        case AggFn::kMax:
          if (!vv.is_f64() && simd_ops_->minmax_i64 != nullptr) {
            int64_t mn, mx;
            simd_ops_->minmax_i64(vv.i64.data(), n, &mn, &mx);
            acc = node.agg_fn == AggFn::kMin
                      ? std::min(acc, static_cast<double>(mn))
                      : std::max(acc, static_cast<double>(mx));
            done = true;
          } else if (vv.is_f64() && simd_ops_->minmax_f64 != nullptr) {
            double mn, mx;
            simd_ops_->minmax_f64(vv.f64.data(), n, &mn, &mx);
            acc = node.agg_fn == AggFn::kMin ? std::min(acc, mn)
                                             : std::max(acc, mx);
            done = true;
          }
          break;
        case AggFn::kSum:
        case AggFn::kAvg:
          if (!vv.is_f64() && simd_ops_->sum_i64_exact != nullptr) {
            done = simd_ops_->sum_i64_exact(vv.i64.data(), n, &acc);
          }
          break;
        case AggFn::kNone:
          break;
      }
    }
    if (!done) {
      for (uint64_t i = 0; i < n; ++i) {
        fold.Merge(&acc, first->values.AsDouble(i), 1);
      }
    }
  } else {
    if (node.agg_fn != AggFn::kCount) {
      return Status::InvalidArgument("rowid aggregate supports only count");
    }
    acc = static_cast<double>(n);
  }
  result->scalar = fold.Finish(acc, static_cast<int64_t>(n));
  result->scalar_count = static_cast<int64_t>(n);
  m->tuples_out = 1;
  m->bytes_in = n * 8;
  m->bytes_out = 16;
  return Status::OK();
}

Status Evaluator::ExecAggrMerge(const PlanNode& node, const ExecContext& ctx,
                                Intermediate* result, OpMetrics* m) {
  const Intermediate* in;
  APQ_INPUT_OF(ctx, node.inputs[0], &in);
  if (in->kind != Intermediate::Kind::kGroupedAgg) {
    return Status::InvalidArgument("aggrmerge input must be grouped aggregates");
  }
  result->kind = Intermediate::Kind::kGroupedAgg;
  result->group_keys.type = in->group_keys.type;
  result->group_keys.dict = in->group_keys.dict;
  const uint64_t n = in->agg_vals.size();
  m->tuples_in = n;
  // Partials are numbered by key like a group-by's rows, in first-occurrence
  // order (inline: partials are few), and fold like grouped rows.
  std::vector<int64_t> scratch, gids;
  GroupByIngest(IntKeys(in->group_keys, &scratch), n, nullptr, ctx.base_rows,
                &gids, &result->group_keys.i64, &m->morsels);
  FoldGroups(AggFold{node.agg_fn}, gids.data(), n,
             result->group_keys.i64.size(),
             [&](uint64_t i) { return in->agg_vals[i]; },
             in->agg_counts.empty() ? nullptr : in->agg_counts.data(), result);
  m->tuples_out = result->agg_vals.size();
  m->bytes_in = n * 24;
  m->bytes_out = m->tuples_out * 24;
  return Status::OK();
}

Status Evaluator::ExecUnion(const PlanNode& node, const ExecContext& ctx,
                            Intermediate* result, OpMetrics* m) {
  std::vector<const Intermediate*> ins;
  ins.reserve(node.inputs.size());
  for (int id : node.inputs) {
    const Intermediate* in;
    APQ_INPUT_OF(ctx, id, &in);
    ins.push_back(in);
  }
  Intermediate::Kind kind = ins[0]->kind;
  // Scalar partials and grouped-aggregate partials mix freely: a scalar is a
  // single-group partial with key 0 (arises when an aggregate clone inside a
  // pack was itself parallelized and replaced by a merge).
  auto agg_like = [](Intermediate::Kind k) {
    return k == Intermediate::Kind::kScalar ||
           k == Intermediate::Kind::kGroupedAgg;
  };
  bool all_agg_like = agg_like(kind);
  for (const auto* in : ins) {
    all_agg_like = all_agg_like && agg_like(in->kind);
    if (in->kind != kind && !all_agg_like) {
      return Status::InvalidArgument(
          std::string("exchange union over mixed kinds: ") +
          Intermediate::KindName(kind) + " vs " +
          Intermediate::KindName(in->kind));
    }
  }
  if (all_agg_like) kind = Intermediate::Kind::kScalar;  // unified path below

  // mat.pack: concatenate preserving input order. Because clones are wired in
  // mutation order over ordered range partitions, concatenation preserves the
  // base-table order (paper §2.3 "the exchange union operator must maintain
  // the correct ordering").
  switch (kind) {
    case Intermediate::Kind::kRowIds: {
      result->kind = kind;
      result->origin = ins[0]->origin;
      size_t total = 0;
      for (const auto* in : ins) total += in->rowids.size();
      result->rowids.reserve(total);
      for (const auto* in : ins) {
        result->rowids.insert(result->rowids.end(), in->rowids.begin(),
                              in->rowids.end());
        result->origin.begin = std::min(result->origin.begin, in->origin.begin);
        result->origin.end = std::max(result->origin.end, in->origin.end);
      }
      break;
    }
    case Intermediate::Kind::kPairs: {
      result->kind = kind;
      result->origin = ins[0]->origin;
      size_t total = 0;
      for (const auto* in : ins) total += in->rowids.size();
      result->rowids.reserve(total);
      result->rrowids.reserve(total);
      for (const auto* in : ins) {
        result->rowids.insert(result->rowids.end(), in->rowids.begin(),
                              in->rowids.end());
        result->rrowids.insert(result->rrowids.end(), in->rrowids.begin(),
                               in->rrowids.end());
        result->origin.begin = std::min(result->origin.begin, in->origin.begin);
        result->origin.end = std::max(result->origin.end, in->origin.end);
      }
      break;
    }
    case Intermediate::Kind::kValues: {
      result->kind = kind;
      result->values.type = ins[0]->values.type;
      result->values.dict = ins[0]->values.dict;
      result->origin = ins[0]->origin;
      size_t total = 0, heads = 0;
      for (const auto* in : ins) {
        total += in->values.size();
        heads += in->head.size();
      }
      result->values.Reserve(total);
      result->head.reserve(heads);
      for (const auto* in : ins) {
        result->values.Append(in->values);
        result->head.insert(result->head.end(), in->head.begin(),
                            in->head.end());
        result->origin.begin = std::min(result->origin.begin, in->origin.begin);
        result->origin.end = std::max(result->origin.end, in->origin.end);
      }
      break;
    }
    case Intermediate::Kind::kScalar: {
      // Packing aggregate partials (scalars and/or grouped partials):
      // represent as one grouped aggregate so a downstream aggrmerge can
      // recombine them; a scalar is a single group with key 0.
      result->kind = Intermediate::Kind::kGroupedAgg;
      result->group_keys.type = DataType::kInt64;
      for (const auto* in : ins) {
        if (in->kind == Intermediate::Kind::kScalar) {
          result->group_keys.i64.push_back(0);
          result->agg_vals.push_back(in->scalar);
          result->agg_counts.push_back(in->scalar_count);
        } else {
          result->group_keys.Append(in->group_keys);
          result->agg_vals.insert(result->agg_vals.end(), in->agg_vals.begin(),
                                  in->agg_vals.end());
          if (in->agg_counts.empty()) {
            result->agg_counts.insert(result->agg_counts.end(),
                                      in->agg_vals.size(), 1);
          } else {
            result->agg_counts.insert(result->agg_counts.end(),
                                      in->agg_counts.begin(),
                                      in->agg_counts.end());
          }
        }
      }
      break;
    }
    default:
      return Status::Unsupported("exchange union over kind " +
                                 std::string(Intermediate::KindName(kind)));
  }
  for (const auto* in : ins) m->tuples_in += in->NumRows();
  m->tuples_out = result->NumRows();
  // The union's cost is materialization: it copies all input bytes.
  for (const auto* in : ins) m->bytes_in += in->ByteSize();
  m->bytes_out = result->ByteSize();
  return Status::OK();
}

Status Evaluator::ExecMap(const PlanNode& node, const ExecContext& ctx,
                          Intermediate* result, OpMetrics* m) {
  const Intermediate* a;
  APQ_INPUT_OF(ctx, node.inputs[0], &a);

  // Scalar arithmetic (calc.* over single values, e.g. Q14's final ratio).
  if (a->kind == Intermediate::Kind::kScalar ||
      (a->kind == Intermediate::Kind::kGroupedAgg && a->agg_vals.size() == 1)) {
    double x = a->kind == Intermediate::Kind::kScalar ? a->scalar : a->agg_vals[0];
    double y = node.map_const;
    if (node.inputs.size() == 2) {
      const Intermediate* b2;
      APQ_INPUT_OF(ctx, node.inputs[1], &b2);
      if (b2->kind == Intermediate::Kind::kScalar) y = b2->scalar;
      else if (b2->kind == Intermediate::Kind::kGroupedAgg &&
               b2->agg_vals.size() == 1) y = b2->agg_vals[0];
      else return Status::InvalidArgument("scalar map needs scalar operands");
    }
    result->kind = Intermediate::Kind::kScalar;
    switch (node.map_fn) {
      case MapFn::kAdd: result->scalar = x + y; break;
      case MapFn::kSub: result->scalar = x - y; break;
      case MapFn::kRSub: result->scalar = y - x; break;
      case MapFn::kMul: result->scalar = x * y; break;
      case MapFn::kDiv: result->scalar = y == 0 ? 0 : x / y; break;
      default:
        return Status::InvalidArgument("unsupported scalar map function");
    }
    m->tuples_in = node.inputs.size();
    m->tuples_out = 1;
    return Status::OK();
  }

  if (a->kind != Intermediate::Kind::kValues) {
    return Status::InvalidArgument("map input must be values");
  }
  uint64_t n = a->values.size();
  const Intermediate* b = nullptr;
  if (node.inputs.size() == 2) {
    APQ_INPUT_OF(ctx, node.inputs[1], &b);
    if (b->kind != Intermediate::Kind::kValues || b->values.size() != n) {
      return Status::Misaligned("binary map over misaligned inputs (" +
                                std::to_string(n) + " vs " +
                                std::to_string(b->values.size()) + ")");
    }
  }
  result->kind = Intermediate::Kind::kValues;
  result->values.type = DataType::kFloat64;
  result->values.f64.reserve(n);
  result->head = a->head;
  result->origin = a->origin;
  m->tuples_in = n * (b ? 2 : 1);

  // Flag maps (batstr.like / comparisons folded through ifthenelse).
  std::vector<uint8_t> like_match;
  if (node.map_fn == MapFn::kLikeFlag) {
    if (a->values.dict == nullptr) {
      return Status::InvalidArgument("like-flag map needs dictionary values");
    }
    like_match = BuildLikeMatch(*a->values.dict, node.pred);
  }

  for (uint64_t i = 0; i < n; ++i) {
    double x = a->values.AsDouble(i);
    double y = b ? b->values.AsDouble(i) : node.map_const;
    double r = 0;
    switch (node.map_fn) {
      case MapFn::kAdd: r = x + y; break;
      case MapFn::kSub: r = x - y; break;
      case MapFn::kRSub: r = y - x; break;
      case MapFn::kMul: r = x * y; break;
      case MapFn::kDiv: r = y == 0 ? 0 : x / y; break;
      case MapFn::kLikeFlag:
        r = like_match[a->values.i64[i]] ? 1.0 : 0.0;
        break;
      case MapFn::kEqFlag:
        r = a->values.AsInt(i) == node.pred.lo ? 1.0 : 0.0;
        break;
      case MapFn::kRangeFlag: {
        if (node.pred.kind == Predicate::Kind::kRangeF64) {
          r = (x >= node.pred.flo && x <= node.pred.fhi) ? 1.0 : 0.0;
        } else {
          int64_t v = a->values.AsInt(i);
          r = (v >= node.pred.lo && v <= node.pred.hi) ? 1.0 : 0.0;
        }
        break;
      }
      case MapFn::kNone: break;
    }
    result->values.f64.push_back(r);
  }
  m->tuples_out = n;
  m->bytes_in = m->tuples_in * 8;
  m->bytes_out = n * 8;
  return Status::OK();
}

Status Evaluator::ExecSort(const PlanNode& node, const ExecContext& ctx,
                           Intermediate* result, OpMetrics* m) {
  const Intermediate* in = nullptr;
  if (!node.inputs.empty()) {
    APQ_INPUT_OF(ctx, node.inputs[0], &in);
  }

  // One permutation routine for every input shape (exec/sort/): it emits
  // the unique (value, position) order — std::stable_sort's permutation —
  // inline or on the fleet, so the gather loops below cannot observe which.
  // Its run tasks carry tuples_in summing to n, the operator's sort_rows
  // (equal to its tuples_in except for slice-clipped rowid inputs), and its
  // merge chunks carry tuples_out.
  auto sort_perm = [&](const SortKeys& keys, uint64_t n,
                       std::vector<uint64_t>* perm) {
    const uint64_t limit =
        node.kind == OpKind::kTopN && node.limit > 0 && node.limit < n
            ? node.limit
            : 0;
    SortPerm(keys, n, node.descending, limit, fleet_.get(),
             ctx.MorselRows(node.id), perm, &m->morsels);
  };
  auto keys_of = [](const ValueVec& v) {
    return v.is_f64() ? SortKeys{v.f64.data(), nullptr}
                      : SortKeys{nullptr, v.i64.data()};
  };

  if (in != nullptr && in->kind == Intermediate::Kind::kGroupedAgg) {
    // Order grouped aggregates by aggregate value.
    const uint64_t n = in->agg_vals.size();
    std::vector<uint64_t> perm;
    sort_perm(SortKeys{in->agg_vals.data(), nullptr}, n, &perm);
    result->kind = Intermediate::Kind::kGroupedAgg;
    result->group_keys.type = in->group_keys.type;
    result->group_keys.dict = in->group_keys.dict;
    result->group_keys.Reserve(perm.size());
    result->agg_vals.reserve(perm.size());
    result->agg_counts.reserve(perm.size());
    for (uint64_t i : perm) {
      result->group_keys.i64.push_back(in->group_keys.AsInt(i));
      result->agg_vals.push_back(in->agg_vals[i]);
      result->agg_counts.push_back(in->agg_counts.empty() ? 1
                                                          : in->agg_counts[i]);
    }
    m->tuples_in = n;
    m->tuples_out = perm.size();
    m->sort_rows = n;
    m->bytes_in = n * 24;
    m->bytes_out = perm.size() * 24;
    return Status::OK();
  }

  if (in != nullptr && in->kind == Intermediate::Kind::kValues) {
    const uint64_t n = in->values.size();
    std::vector<uint64_t> perm;
    sort_perm(keys_of(in->values), n, &perm);
    GatherPermuted(in->values, in->head.empty() ? nullptr : &in->head, perm,
                   result);
    result->origin = in->origin;
    m->tuples_in = n;
    m->tuples_out = perm.size();
    m->sort_rows = n;
    m->bytes_in = n * 8;
    m->bytes_out = perm.size() * 8;
    return Status::OK();
  }

  if (in != nullptr && in->kind == Intermediate::Kind::kRowIds) {
    // Order a candidate list by its values in `column`, clipping ids outside
    // this clone's slice like the join probe does (sibling clones covering
    // the neighbouring slices sort the rest).
    if (node.column == nullptr) {
      return Status::InvalidArgument("sort over rowids needs a bound column");
    }
    const Column& col = *node.column;
    const RowRange range = node.has_slice ? node.slice : in->origin;
    ValueVec vals = MakeVecLike(col);
    std::vector<oid> head;
    head.reserve(in->rowids.size());
    vals.Reserve(in->rowids.size());
    for (oid row : in->rowids) {
      if (row >= col.size()) {
        return Status::Misaligned("sort rowid " + std::to_string(row) +
                                  " beyond column '" + col.name() + "' size " +
                                  std::to_string(col.size()));
      }
      if (node.has_slice && !range.Contains(row)) continue;
      head.push_back(row);
      GatherInto(col, row, &vals);
    }
    const uint64_t n = vals.size();
    std::vector<uint64_t> perm;
    sort_perm(keys_of(vals), n, &perm);
    GatherPermuted(vals, &head, perm, result);
    result->origin = range;
    m->tuples_in = in->rowids.size();
    m->tuples_out = perm.size();
    m->sort_rows = n;
    m->random_accesses = n;
    m->random_working_set = range.size() * DataTypeWidth(col.type());
    m->bytes_in = in->rowids.size() * sizeof(oid);
    m->bytes_out = perm.size() * 16;
    return Status::OK();
  }

  if (in == nullptr) {
    // Leaf sort: order a base-column slice directly (ORDER BY without a
    // preceding select). Keys point straight at the column storage; the
    // permutation is slice-relative.
    if (node.column == nullptr) {
      return Status::InvalidArgument("leaf sort needs a bound column");
    }
    const Column& col = *node.column;
    const RowRange range = node.EffectiveRange();
    const uint64_t n = range.size();
    const SortKeys keys =
        col.type() == DataType::kFloat64
            ? SortKeys{col.f64().data() + range.begin, nullptr}
            : SortKeys{nullptr, col.i64().data() + range.begin};
    std::vector<uint64_t> perm;
    sort_perm(keys, n, &perm);
    result->kind = Intermediate::Kind::kValues;
    result->values = MakeVecLike(col);
    result->origin = range;
    result->values.Reserve(perm.size());
    result->head.reserve(perm.size());
    for (uint64_t i : perm) {
      const oid row = range.begin + i;
      GatherInto(col, row, &result->values);
      result->head.push_back(row);
    }
    m->tuples_in = n;
    m->tuples_out = perm.size();
    m->sort_rows = n;
    m->bytes_in = n * DataTypeWidth(col.type());
    m->bytes_out = perm.size() * 16;
    return Status::OK();
  }

  return Status::InvalidArgument(
      "sort input must be values, rowids, or grouped aggs");
}

}  // namespace apq

#include "adaptive/executor.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/resource_tracker.h"
#include "obs/trace.h"

namespace apq {

namespace {

/// Static-storage event name for a mutation action (ring-buffer slots store
/// the name pointer, not a copy).
const char* MutationEventName(const MutationReport& r) {
  if (r.action == "basic") return "mutate-basic";
  if (r.action == "basic-skew") return "mutate-basic-skew";
  if (r.action == "medium") return "mutate-medium";
  if (r.action == "advanced") return "mutate-advanced";
  return "mutate";
}

/// Floor for the runtime skew response: morsels this small are pure
/// scheduling overhead even on the scaled-down datasets.
constexpr uint64_t kMinAdaptiveMorselRows = 256;

/// Caps on the per-run proportional shrink. A run with tuple skew s shrinks
/// an operator's morsels by ~s (more skew -> smaller morsels -> more steal
/// opportunities), but never by more than 8x per run: one pathological
/// histogram should not collapse morsels straight to the floor, because the
/// response must stay reversible when the skew was transient.
constexpr double kMinShrinkFactor = 2.0;
constexpr double kMaxShrinkFactor = 8.0;

/// A copy of `profile` without the raw morsel histograms: only the current
/// run's histograms feed the mutator, and copying them for a kept profile
/// would cost O(ops x morsels). Each histogram is swapped out around the
/// copy.
RunProfile WithoutMorsels(RunProfile& profile) {
  RunProfile kept;
  kept.makespan_ns = profile.makespan_ns;
  kept.utilization = profile.utilization;
  kept.ops.reserve(profile.ops.size());
  for (auto& op : profile.ops) {
    std::vector<MorselMetrics> saved;
    saved.swap(op.morsels);
    kept.ops.push_back(op);
    op.morsels = std::move(saved);
  }
  return kept;
}

}  // namespace

StatusOr<AdaptiveOutcome> AdaptiveExecutor::Run(
    const QueryPlan& serial_plan, const std::vector<SimTask>& background) {
  AdaptiveOutcome out;
  out.query_id = obs::CurrentQueryId();
  ConvergenceController conv(params_.convergence);
  Mutator mutator(params_.mutator);

  QueryPlan plan = serial_plan.Clone();
  int run = 0;
  // The controller only ever moves the GME forward to the run it just
  // observed, and the loop returns either that run or run 0, so only those
  // two runs' plans and profiles are kept (run 0's plan is serial_plan).
  RunProfile serial_profile;
  QueryPlan gme_plan;
  RunProfile gme_profile;
  // Last run's morsel-size hints, keyed by node id: the next run executes
  // with them, and the proportional skew response below shrinks/grows
  // relative to them rather than restarting from the base size every run.
  MorselRowsByNode prev_hints;

  static obs::Counter* const adaptive_runs =
      obs::MetricsRegistry::Global().GetCounter("apq_adaptive_runs_total");
  static obs::Counter* const mutations =
      obs::MetricsRegistry::Global().GetCounter("apq_mutations_total");
  static obs::Counter* const skew_repartitions =
      obs::MetricsRegistry::Global().GetCounter(
          "apq_skew_repartitions_total");

  while (true) {
    // One span per adaptive iteration: execute + profile + (maybe) mutate.
    // Nests under the engine's query span and above the evaluator's execute
    // span on this thread.
    obs::SpanScope run_span(obs::SpanKind::kRun, "adaptive-run", run,
                            static_cast<int64_t>(out.query_id));
    adaptive_runs->Inc();
    EvalResult er;
    APQ_RETURN_NOT_OK(evaluator_->Execute(plan, &er, prev_hints));
    if (run == 0) {
      out.result = std::move(er.result);
    } else if (params_.verify_results) {
      std::string diff = DiffIntermediates(out.result, er.result, 1e-6);
      if (!diff.empty()) {
        return Status::Internal("run " + std::to_string(run) +
                                " result diverged from serial: " + diff);
      }
    }

    // Simulate this run on the virtual machine, alongside any background
    // workload (instance 0 is this query).
    SimulatedRun sim = SimulateRun(plan, er.metrics, cost_model_, simulator_,
                                   background, /*seed_salt=*/run + 1);
    const double time = sim.time_ns;
    RunProfile& profile = sim.profile;

    bool cont = conv.Observe(time);
    if (run == 0) serial_profile = WithoutMorsels(profile);
    if (run > 0 && conv.gme_run() == run) {
      gme_plan = plan.Clone();
      gme_profile = WithoutMorsels(profile);
    }

    AdaptiveRun rec;
    rec.run = run;
    rec.time_ns = time;
    rec.wall_ns = er.wall_ns;
    rec.plan_stats = plan.Stats();
    rec.max_morsel_skew = profile.MaxMorselSkew();
    rec.max_morsel_tuple_skew = profile.MaxMorselTupleSkew();
    out.runs.push_back(rec);
    // The decision that follows this run; filled below once the mutator has
    // spoken, and left "none" when the run ends the process.
    out.lineage.emplace_back();

    // Runtime skew response: operators that ran imbalanced this run get a
    // shrunken morsel size next run, so the work-stealing scheduler
    // rebalances within the operator while the mutator works on the plan.
    // The shrink is proportional to the measured tuple skew (capped at
    // kMaxShrinkFactor per run, floored at kMinAdaptiveMorselRows), and
    // operators whose skew drops back below the threshold grow their morsels
    // back toward the base size (2x per run) — transient skew must not pin
    // an operator at tiny morsels forever. Hints persist across runs while
    // the node survives; mutated clones have fresh node ids, so hints never
    // outlive the nodes they profiled.
    MorselRowsByNode hints;
    const uint64_t base = evaluator_->EffectiveMorselRows();
    for (const auto& op : profile.ops) {
      if (op.num_morsels < 2) continue;
      auto prev = prev_hints.find(op.node_id);
      const uint64_t cur = prev == prev_hints.end() ? base : prev->second;
      const double skew = std::max(op.morsel_skew, op.morsel_tuple_skew);
      if (skew >= params_.mutator.skew_threshold) {
        const double factor =
            std::min(std::max(skew, kMinShrinkFactor), kMaxShrinkFactor);
        const uint64_t shrunk = std::max(
            static_cast<uint64_t>(static_cast<double>(cur) / factor),
            kMinAdaptiveMorselRows);
        if (shrunk < base) hints[op.node_id] = shrunk;
      } else if (cur < base) {
        // Converged below threshold: grow back toward the base size.
        const uint64_t grown = std::min(cur * 2, base);
        if (grown < base) hints[op.node_id] = grown;
      }
    }
    out.runs.back().skew_hint_ops = static_cast<int>(hints.size());
    if (!hints.empty()) {
      // One event per shrunken operator so the trace shows WHICH nodes the
      // runtime skew response squeezed and to what morsel size.
      for (const auto& [node, rows] : hints) {
        obs::EmitInstant(obs::SpanKind::kMutation, "skew-morsel-shrink",
                         node, static_cast<int64_t>(rows));
      }
    }
    prev_hints = std::move(hints);

    if (!cont) break;

    // Morph: parallelize the most expensive operator for the next run.
    MutationReport report;
    auto mutated = mutator.MutateMostExpensive(plan, profile, &report);
    if (!mutated.ok()) return mutated.status();
    out.lineage.back().victim = report.target_node;
    out.lineage.back().action = report.mutated ? report.action : "none";
    out.lineage.back().skew_aware = report.mutated && report.skew_aware;
    out.lineage.back().split_rows = report.split_rows;
    if (report.mutated && report.skew_aware) ++out.skew_mutations;
    if (report.mutated) {
      mutations->Inc();
      if (report.skew_aware) skew_repartitions->Inc();
      obs::EmitInstant(obs::SpanKind::kMutation, MutationEventName(report),
                       report.target_node,
                       static_cast<int64_t>(report.split_rows.size()),
                       report.skew_aware ? 1 : 0);
      // The chosen split points, one event each (a1 = base-row boundary):
      // for a skew-aware re-partition these are the value-balanced
      // boundaries the Fig 12 feedback loop picked.
      for (uint64_t row : report.split_rows) {
        obs::EmitInstant(obs::SpanKind::kMutation,
                         report.skew_aware ? "skew-split-point"
                                           : "split-point",
                         report.target_node, static_cast<int64_t>(row));
      }
    }
    if (!report.mutated) {
      // No operator can be parallelized further; natural convergence.
      break;
    }
    plan = mutated.MoveValueOrDie();
    APQ_RETURN_NOT_OK(plan.Validate());
    ++run;
  }

  out.serial_time_ns = conv.serial_time();
  out.total_runs = conv.runs_observed();
  out.best_run = conv.raw_min_run() < 0 ? 0 : conv.raw_min_run();
  out.best_time_ns = out.best_run == 0 ? conv.serial_time()
                                       : conv.times()[out.best_run];
  if (out.best_time_ns > conv.serial_time()) {
    out.best_run = 0;
    out.best_time_ns = conv.serial_time();
  }
  out.gme_run = conv.gme_run() < 0 ? 0 : conv.gme_run();
  out.gme_time_ns = conv.gme_run() < 0 ? conv.serial_time() : conv.gme();
  if (out.gme_time_ns > out.serial_time_ns) {
    // Parallelization never beat the serial plan (small inputs / contention):
    // converge on the serial plan itself.
    out.gme_run = 0;
    out.gme_time_ns = out.serial_time_ns;
  }
  if (out.gme_run == 0) {
    out.gme_plan = serial_plan.Clone();
    out.gme_profile = std::move(serial_profile);
  } else {
    out.gme_plan = std::move(gme_plan);
    out.gme_profile = std::move(gme_profile);
  }
  return out;
}

}  // namespace apq

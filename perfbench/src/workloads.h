// The two workloads, and the traced-only replay of the bookkeeping that
// Engine::RunPlan does around execution.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "engine/engine.h"
#include "obs/query_log.h"
#include "sched/morsel_scheduler.h"

namespace perfbench {

/// Each runs one workload: sets up kSetupReps times, computes its
/// output-check references outside every timed window, measures for
/// opt.seconds, and adds its metrics to `report`. A traced run
/// (opt.trace) measures half the window untraced and half traced, recording
/// spans into `spans`. Returns false, after printing why, when set-up fails.
bool RunTpch(const Options& opt, Report* report, Tally* tally, SpanLog* spans);
bool RunServe(const Options& opt, Report* report, Tally* tally,
              SpanLog* spans);

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;

/// Durations of repeated set-ups, in seconds.
struct SetupTimes {
  std::vector<double> total_s, gen_s, warm_s;
  void Add(double total_ns, double gen_ns, double warm_ns) {
    total_s.push_back(total_ns / 1e9);
    gen_s.push_back(gen_ns / 1e9);
    warm_s.push_back(warm_ns / 1e9);
  }
};

/// Adds setup_s (end-to-end) and workload.gen_s / workload.warm_s
/// (per-layer), each the median over the set-ups.
void AddSetupMetrics(Report* r, const SetupTimes& t);

/// A direct-Engine workload's data, plans, and warmed engine on an injected
/// morsel fleet. Members are in destruction-safe order: the engine goes
/// before the fleet and the catalog it reads.
struct EngineSetup {
  std::shared_ptr<apq::Catalog> catalog;
  std::map<std::string, apq::QueryPlan> plans;
  std::shared_ptr<apq::MorselScheduler> sched;
  std::unique_ptr<apq::Engine> engine;
};

/// Sets up kSetupReps times, one data set in memory at a time: generates
/// `rows` lineitem rows from `seed`, builds `queries`, starts an engine with
/// EngineConfig defaults plus morsels on a `workers`-worker fleet, and runs
/// every plan twice (the first pass builds every hash index, the second runs
/// warm). Returns the last set-up, or null after printing why one failed.
std::unique_ptr<EngineSetup> SetUpEngines(
    const std::string& workload, uint64_t rows, uint64_t seed,
    const std::vector<std::string>& queries, int workers, SetupTimes* times);

/// Start and end of the two bookkeeping steps RunPlan performs besides
/// execution, replayed by the benchmark on a plan and its operator metrics:
/// the simulation (BuildSimTasks + Simulator::Run) and the profile document
/// (MakeRunProfile + QueryProfileJson).
struct Replay {
  double sim_start = 0, sim_end = 0;
  double doc_start = 0, doc_end = 0;
  double sim_ns() const { return sim_end - sim_start; }
  double doc_ns() const { return doc_end - doc_start; }
};
Replay ReplayBookkeeping(const apq::QueryPlan& plan,
                         const std::vector<apq::OpMetrics>& metrics,
                         const apq::Engine& engine);

/// Operator metrics of one execution of `plan` on `engine`'s evaluator, the
/// input of ReplayBookkeeping. Runs outside every timed span.
bool PlanMetrics(apq::Engine* engine, const apq::QueryPlan& plan,
                 std::vector<apq::OpMetrics>* out);

/// Records a RunPlan call of a traced run: the call's span, a derived child
/// span for the evaluator's wall_ns, then the bookkeeping replay spans after
/// the call. Returns the replay, so callers can split the engine overhead.
Replay TraceRunPlan(SpanLog* spans, const std::string& name,
                    const std::string& exec_name, double t0, double t1,
                    double exec_wall_ns, const apq::QueryPlan& plan,
                    const std::vector<apq::OpMetrics>& metrics,
                    const apq::Engine& engine);

/// Deltas over a traced window of the counters the scheduler metrics need.
struct WindowCounters {
  double wall_ns = 0;
  double queries = 0;
  SchedSnap sched;
  int threads = 0;  // threads that can run morsel tasks (util denominator)
};
/// Prints sched.tasks_per_query, sched.steal_pct, sched.task_us,
/// sched.util_pct and sched.queue_wait_us (the mean of `queue_wait_ns`) for
/// context. They are not in the JSON line: every workload's line carries the
/// same metrics, and `serve`'s fleet runs no tasks (see README.md).
void AddSchedInfo(Report* r, const WindowCounters& w,
                  const std::vector<double>& queue_wait_ns);

/// Adds exec.<kind>.ns_per_row for each operator kind the benchmark declares.
void AddOpKindLayer(Report* r, const OpTotals& ops);

/// The record of query `id` in obs::QueryLog::Global(); false when it has
/// already been evicted from the ring.
bool QueryRecordOf(uint64_t id, apq::obs::QueryRecord* out);

/// ns samples to a median in µs or ms, for per-layer metrics.
void LayerUs(Report* r, const std::string& name,
             const std::vector<double>& ns);
void LayerMs(Report* r, const std::string& name,
             const std::vector<double>& ns);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

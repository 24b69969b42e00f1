// The engine's one thread fleet: a work-stealing task scheduler.
//
// It carries both axes of parallelism. Intra-operator: an operator's input is
// split into fixed-size morsels (~64K rows, see exec/morsel_source.h), each
// morsel is an independent task producing a thread-local result fragment, and
// fragments are concatenated in morsel order so results stay bit-identical to
// whole-column execution (HyPer-style). Inter-operator: the evaluator runs
// each dataflow level of an exchange-parallelized plan (the independent clone
// subtrees the paper's mutations create) as one job whose tasks are plan
// nodes, and those node tasks submit their own morsel jobs.
//
// Scheduling is work-stealing over per-worker deques: a ParallelFor call
// distributes its tasks in contiguous blocks across the workers' deques,
// each worker pops its own deque LIFO (the block it was dealt, cache-warm)
// and steals FIFO from a victim when its own deque runs dry (cold end of the
// victim's block, classic Chase-Lev discipline with a small mutex per deque —
// morsel tasks are tens of microseconds, so lock cost is noise).
//
// The scheduler is *shared*: many queries (and many node tasks inside one
// query) may call ParallelFor concurrently; their tasks interleave on one
// worker fleet instead of each query spawning its own pool. The calling
// thread participates in its own job until no unclaimed tasks of that job
// remain, so a query never fully blocks behind another query's backlog.
#ifndef APQ_SCHED_MORSEL_SCHEDULER_H_
#define APQ_SCHED_MORSEL_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace apq {

/// \brief What one scheduler worker has done over its lifetime (observability
/// for benches and the concurrent-workload example; read when quiescent).
struct MorselWorkerStats {
  uint64_t tasks = 0;   ///< morsel tasks this worker executed
  uint64_t steals = 0;  ///< of those, taken from another worker's deque
  uint64_t steal_fails = 0;  ///< own deque dry AND nothing to steal (went idle)
  /// Wall time spent executing tasks. A task's nested ParallelFor calls
  /// are excluded: the tasks it runs there count as caller work
  /// (caller_busy_ns), and its wait for other workers counts as idle.
  uint64_t busy_ns = 0;
};

/// \brief One flight-recorder sample: a periodic snapshot of scheduler
/// pressure, kept in a small ring so /debug/workers can show the recent
/// load shape, not just lifetime totals.
struct MorselFlightSample {
  double t_ns = 0;        ///< sample time relative to scheduler start
  uint64_t pending = 0;   ///< submitted-but-unclaimed tasks at sample time
  uint64_t tasks = 0;     ///< lifetime tasks completed (workers + caller)
  uint64_t steals = 0;    ///< lifetime successful steals
};

/// \brief Work-stealing morsel scheduler with per-worker deques.
///
/// Thread-safe: ParallelFor may be called from any number of threads
/// concurrently (multi-query sharing), and from inside a task: the
/// evaluator's plan-node tasks submit their operators' morsel jobs. Nesting
/// cannot deadlock because a caller only claims tasks of its own job while
/// it waits (so each task it waits for is either claimable by itself or
/// already running on another thread) and the inner (morsel) tasks never
/// wait.
class MorselScheduler {
 public:
  /// Spawns `num_workers` workers; 0 = DefaultWorkers().
  explicit MorselScheduler(int num_workers = 0);

  /// One worker per hardware thread (1 when the count is unknown).
  static int DefaultWorkers() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }

  /// Joins all workers. All ParallelFor calls must have returned.
  ~MorselScheduler();

  MorselScheduler(const MorselScheduler&) = delete;
  MorselScheduler& operator=(const MorselScheduler&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Runs `fn(task_index, worker)` for every task_index in [0, num_tasks),
  /// potentially in parallel, and returns when all have completed. `worker`
  /// is the executing worker id, or kCallerWorker when the submitting thread
  /// ran the task itself. Task order is unspecified; callers must make
  /// results order-independent (index into a fragment array).
  ///
  /// When the submitting thread has a query context installed, each task's
  /// duration and queue wait are billed to that query and to the thread's
  /// operator block (obs/resource_tracker.h) unless `bill` is false: tasks
  /// that only host billed work (a plan-node task, whose operator bills its
  /// own time and morsels) must not be billed again, or a query's cpu_ns
  /// would exceed the sum of its operators'.
  void ParallelFor(size_t num_tasks,
                   const std::function<void(size_t, int)>& fn,
                   bool bill = true);

  /// Worker id reported for tasks the submitting thread executed.
  static constexpr int kCallerWorker = -1;

  /// Per-worker lifetime counters (tasks run by submitting threads are in
  /// caller_tasks()).
  std::vector<MorselWorkerStats> worker_stats() const;
  uint64_t caller_tasks() const { return caller_tasks_.load(); }
  uint64_t caller_busy_ns() const { return caller_busy_ns_.load(); }
  /// Total morsel tasks completed (workers + callers).
  uint64_t total_tasks() const;
  /// Submitted-but-unclaimed tasks right now (a live fleet-pressure signal;
  /// the query service reports it in /debug/service).
  uint64_t pending() const { return pending_.load(std::memory_order_relaxed); }
  /// Nanoseconds since this scheduler's workers were spawned.
  double uptime_ns() const;

  /// Oldest-first copy of the flight-recorder ring (pressure samples taken
  /// at most every ~50ms while jobs are being submitted).
  std::vector<MorselFlightSample> flight_samples() const;

  /// This scheduler's worker-health document (one entry of /debug/workers).
  std::string DebugJson() const;

  /// The /debug/workers body: every live scheduler's DebugJson under
  /// {"schedulers":[...]}. Each scheduler publishes its document there
  /// (obs::Publish) for its lifetime.
  static std::string WorkersJson();

 private:
  struct Job;
  struct Task {
    Job* job = nullptr;
    size_t index = 0;
  };
  // One worker's deque + counters, padded so neighbours don't false-share.
  struct alignas(64) WorkerSlot {
    std::mutex mu;
    std::deque<Task> dq;
    std::atomic<uint64_t> tasks{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> steal_fails{0};
    std::atomic<uint64_t> busy_ns{0};
  };

  void WorkerLoop(int w);
  bool PopOwn(int w, Task* out);
  /// On success `*victim` (when non-null) is the worker whose deque the task
  /// came from — the steal trace event's a1.
  bool StealAny(int w, Task* out, int* victim = nullptr);
  bool PopForJob(Job* job, Task* out);
  /// Runs the task (with the owning query's context + operator block
  /// installed), bills its duration/queue-wait, and returns the execution
  /// time in ns, less the time spent in the task's own nested ParallelFor
  /// calls, so the claiming side accumulates every task's work exactly once.
  static double RunTask(const Task& t, int worker);
  void MaybeSampleFlight();

  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> caller_tasks_{0};
  std::atomic<uint64_t> caller_busy_ns_{0};
  std::atomic<size_t> next_deal_{0};  // round-robin base for job distribution
  double start_ns_ = 0;               // NowNs() at construction

  // Flight recorder: a small ring of recent pressure samples, written by
  // ParallelFor (rate-limited via flight_last_ns_ CAS) and copied whole by
  // DebugJson. Sized for ~6s of history at the 50ms cadence.
  static constexpr size_t kFlightCapacity = 128;
  static constexpr double kFlightIntervalNs = 50e6;
  mutable std::mutex flight_mu_;
  std::deque<MorselFlightSample> flight_;
  std::atomic<uint64_t> flight_last_ns_{0};

  // Registry instruments, resolved once per scheduler (metrics aggregate
  // across scheduler instances; tests diff before/after a quiescent run).
  // Always-on: one relaxed atomic add per task on top of the slot counters.
  std::vector<obs::Counter*> m_worker_tasks_;   // per worker index
  std::vector<obs::Counter*> m_worker_steals_;  // per worker index
  std::vector<obs::Counter*> m_worker_busy_;    // per worker index, ns
  obs::Counter* m_tasks_ = nullptr;             // all claims (workers+caller)
  obs::Counter* m_steals_ = nullptr;
  obs::Counter* m_steal_fails_ = nullptr;       // went idle with nothing left
  obs::Counter* m_caller_tasks_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;         // submitted-but-unclaimed
  obs::Histogram* m_steal_latency_ = nullptr;   // ns from own-deque-dry to
                                                // successful steal

  // Sleep/wake: workers wait on idle_cv_ when the whole system is out of
  // tasks; pending_ counts submitted-but-unclaimed tasks.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<size_t> pending_{0};
  bool stop_ = false;
};

}  // namespace apq

#endif  // APQ_SCHED_MORSEL_SCHEDULER_H_

// The query-service front-end: serve the engine, don't just bench it.
//
// A QueryService binds a local TCP port (127.0.0.1 only, like the
// introspection endpoint) and accepts the line protocol of
// service/protocol.h from many concurrent client sessions. The shared
// socket loop of util/tcp_server.h multiplexes every session on one thread
// — accepting connections, handing over received bytes, which the service
// splits into request lines and parses there — while a fleet of exactly
// max_concurrent executor threads runs the admitted queries, each on its
// own Engine, all multiplexing ONE shared morsel-scheduler worker fleet
// (the production configuration of examples/concurrent_workload.cpp).
//
// No thread waits on a client: every response block is queued whole on its
// session (TcpServer::Send), and a session is closed once more than 4 MiB of
// its answers wait unsent or its request line passes 4096 bytes. A client
// that closes its sending side still gets every answer it is owed.
//
// Admission control (service/admission.h) sits between the two:
//
//   * at most max_concurrent queries produce morsels at once — the bound is
//     structural (the executor fleet is that size);
//   * overflow queues FIFO with priority aging (short selects age
//     kShortAgingWeight times faster than heavy analytics, so a burst of
//     heavies cannot starve them — admission_limits.h);
//   * beyond max_queue_depth arrivals are shed with the typed ERR SHED
//     response instead of queued, so overload degrades to fast rejection,
//     never to collapse;
//   * under load each admitted query's share of the worker fleet is
//     degraded by the shared Vectorwise grant formula
//     (service::AdmissionGrant, the same constants vwsim simulates): the
//     service multiplies the query's morsel size by the load factor, which
//     caps how many fleet workers its tasks can occupy without touching
//     results (morsel size never changes output — the house invariant).
//
// Observability: apq_service_* metrics in the global registry (scraped via
// /metrics), and /debug/service on the HTTP exporter serves per-service
// admission state (each running service publishes its DebugJson through
// obs::Publish), validated by tools/service_check.py.
#ifndef APQ_SERVICE_QUERY_SERVICE_H_
#define APQ_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/admission.h"
#include "service/protocol.h"
#include "util/status.h"
#include "util/tcp_server.h"
#include "workload/tpch.h"

namespace apq {

class Engine;
class MorselScheduler;

namespace service {

/// \brief Service configuration. Defaults come from admission_limits.h;
/// FromEnv() applies the APQ_SERVICE_* environment knobs on top (each
/// hardened like every other APQ_* knob: an invalid value warns once and
/// keeps the default).
struct ServiceConfig {
  /// TCP port to bind on 127.0.0.1 (0 = kernel-assigned ephemeral port, for
  /// tests and the in-process bench). APQ_SERVICE_PORT overrides.
  int port = 0;
  /// Concurrently executing (morsel-producing) queries; also the executor
  /// thread count. APQ_SERVICE_MAX_CONCURRENT overrides.
  int max_concurrent = kDefaultMaxConcurrent;
  /// Queued queries beyond which arrivals are shed with ERR SHED.
  /// APQ_SERVICE_QUEUE_DEPTH overrides (0 = shed whenever all executors are
  /// busy).
  std::size_t max_queue_depth = kDefaultMaxQueueDepth;
  /// Workers of the shared morsel fleet (0 = one per hardware thread).
  int morsel_workers = 0;
  /// Base rows per morsel for admitted queries. Under load each query's
  /// morsels grow by the admission grant (AdmissionGrant), which caps its
  /// share of the fleet.
  uint64_t morsel_rows = 0;  // 0 = kDefaultMorselRows

  /// Defaults + APQ_SERVICE_PORT / APQ_SERVICE_MAX_CONCURRENT /
  /// APQ_SERVICE_QUEUE_DEPTH.
  static ServiceConfig FromEnv();
};

/// True for the query names the admission queue classes as heavy analytics
/// (multi-join/aggregation shapes: Q4, Q8, Q9, Q19, Q22); Q6 and Q14 are
/// short selects.
bool IsHeavyQuery(const std::string& name);

/// \brief Point-in-time service statistics (tests; /debug/service carries
/// the same numbers).
struct ServiceStats {
  AdmissionStats admission;
  std::size_t sessions = 0;
  uint64_t requests_total = 0;
  uint64_t responses_total = 0;
  uint64_t exec_errors_total = 0;
  uint64_t degraded_total = 0;  ///< admitted queries granted < fleet workers
};

/// \brief The multi-session query server.
class QueryService {
 public:
  QueryService();
  ~QueryService();
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Builds the workload plans against `catalog`, binds 127.0.0.1:
  /// config.port, then spawns the fleet and executor threads and publishes
  /// on /debug/service. On failure nothing is running and the Status says
  /// why.
  Status Start(std::shared_ptr<Catalog> catalog, ServiceConfig config);

  /// Drains and stops: sheds new arrivals, answers every queued query,
  /// then closes every session. Safe to call twice.
  void Stop();

  bool running() const { return server_.running(); }
  /// The bound port (resolved for ephemeral requests); 0 when not running.
  int port() const { return server_.port(); }
  const ServiceConfig& config() const { return config_; }
  /// Workers in the shared morsel fleet this service dispatches onto.
  int fleet_workers() const;

  ServiceStats Stats() const;

  /// This service's admission document (one entry of /debug/service).
  std::string DebugJson() const;

  /// The /debug/service body: every running service's DebugJson under
  /// {"services":[...]}.
  static std::string ServiceJson();

 private:
  struct Pending;

  void ExecutorLoop();
  /// Parses and admits one request line from session `conn` (answers
  /// parse/plan/shed failures directly).
  void HandleLine(uint64_t conn, const std::string& line);
  /// Runs one claimed request on `engine` and answers it.
  void Execute(Engine& engine, const Pending& p, double queue_wait_ns);
  /// Queues one response block on `conn` and counts it. `owed` releases
  /// the session hold HandleLine took for an admitted request.
  void Answer(uint64_t conn, const std::string& block, bool owed);

  ServiceConfig config_;
  std::shared_ptr<Catalog> catalog_;
  std::shared_ptr<MorselScheduler> scheduler_;
  std::map<std::string, QueryPlan> plans_;  // workload queries by name
  std::unique_ptr<AdmissionController> admission_;

  std::vector<std::thread> executors_;
  std::atomic<size_t> open_sessions_{0};  // set by the socket loop

  mutable std::mutex mu_;  // pending_, counters below
  std::map<uint64_t, std::shared_ptr<Pending>> pending_;  // by admission id
  uint64_t next_request_id_ = 1;
  uint64_t requests_total_ = 0;
  uint64_t responses_total_ = 0;
  uint64_t exec_errors_total_ = 0;
  uint64_t degraded_total_ = 0;

  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_responses_ = nullptr;
  obs::Counter* m_exec_errors_ = nullptr;
  obs::Counter* m_degraded_ = nullptr;
  obs::Gauge* m_sessions_ = nullptr;
  obs::Histogram* m_latency_ = nullptr;     // arrival -> response queued
  obs::Histogram* m_queue_wait_ = nullptr;  // same instrument the controller
                                            // observes; read for percentiles

  TcpServer server_;  // last: its loop thread calls into the members above
};

}  // namespace service
}  // namespace apq

#endif  // APQ_SERVICE_QUERY_SERVICE_H_

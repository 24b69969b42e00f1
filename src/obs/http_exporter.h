// Live introspection endpoint: a tiny embedded single-threaded HTTP/1.1
// server (plain POSIX sockets, no dependencies) that lets you ask a RUNNING
// process what it is doing — the pull-side counterpart of the push-side
// span/metrics substrate in obs/trace.h and obs/metrics.h.
//
//   GET /metrics              Prometheus text exposition (MetricsRegistry)
//   GET /metrics.json         the same registry as one JSON object
//   GET /healthz              "ok" + uptime (liveness probe)
//   GET /debug/queries        recent-query ring: id, kind, status, wall,
//                             rows, run and mutation counts (obs/query_log.h)
//   GET /debug/profile/<id>   one query's full profile document: per-op
//                             wall/tuples/morsel skew plus the adaptive
//                             lineage (profile/profile_json.h schema)
//   GET /debug/workers        scheduler worker health: per-worker busy/idle
//                             occupancy, steal success/failure counts, and
//                             the flight-recorder pressure ring (provided by
//                             sched/morsel_scheduler.h via
//                             SetWorkersProvider)
//   GET /debug/service        query-service admission state: sessions,
//                             active/queued queries, shed and promotion
//                             totals, queue-wait and latency percentiles
//                             (provided by service/query_service.h via
//                             SetServiceProvider)
//
// Design constraints, in order:
//   1. Zero cost when off (the default): nothing is constructed, no thread,
//      no socket. Queries never wait on the exporter — every handler reads
//      relaxed-atomic snapshots or copies strings under short mutexes.
//   2. Hardened like APQ_TRACE: an invalid APQ_HTTP value or a failing
//      bind/listen warns once on stderr and introspection stays off. It
//      never aborts or fails a query.
//   3. Deliberately single-threaded and sequential: one scrape at a time is
//      plenty for a Prometheus poller plus a human with curl, and a serial
//      accept loop cannot amplify load on the engine. Binds 127.0.0.1 only —
//      this is an introspection port, not a public API.
#ifndef APQ_OBS_HTTP_EXPORTER_H_
#define APQ_OBS_HTTP_EXPORTER_H_

#include <atomic>
#include <string>
#include <thread>

#include "util/status.h"

namespace apq {
namespace obs {

/// \brief The embedded introspection server. Instantiable for tests (an
/// ephemeral port via Start(0)); production use goes through Global(),
/// started by APQ_HTTP=<port> or a direct Global().Start(port).
class HttpExporter {
 public:
  HttpExporter() = default;
  ~HttpExporter() { Stop(); }
  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// The process-wide exporter.
  static HttpExporter& Global();

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port, for tests)
  /// and starts the serve thread. Idempotent while running: a second Start
  /// keeps the original port (and warns when a different one was asked
  /// for). On failure the server stays off and the Status says why.
  Status Start(int port);

  /// Stops the serve thread and closes the socket. Safe to call when not
  /// running.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (resolved for ephemeral requests); 0 when not running.
  int port() const { return port_; }

  /// Routes one request path to (http status, content type, body). Exposed
  /// so unit tests can exercise the routing table without sockets; the
  /// serve loop calls exactly this.
  static void Handle(const std::string& path, int* http_status,
                     std::string* content_type, std::string* body);

 private:
  void Serve();

  std::thread thread_;
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  int port_ = 0;
};

/// Installs the /debug/workers body provider. The scheduler layer sits
/// above obs in the dependency order, so it injects its renderer here (a
/// plain function pointer swapped atomically) instead of obs calling into
/// sched. nullptr (the default) serves an empty scheduler list.
void SetWorkersProvider(std::string (*provider)());

/// Installs the /debug/service body provider, same pattern as
/// SetWorkersProvider: the service layer injects QueryService::ServiceJson.
/// nullptr (the default) serves an empty service list.
void SetServiceProvider(std::string (*provider)());

/// Reads APQ_HTTP once and starts Global() on that port when valid.
/// Idempotent and cheap after the first call; obs::InitFromEnv calls this.
void InitHttpFromEnv();

}  // namespace obs
}  // namespace apq

#endif  // APQ_OBS_HTTP_EXPORTER_H_

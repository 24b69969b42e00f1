// Live introspection endpoint: a tiny embedded HTTP/1.1 server (no
// dependencies, on the shared socket loop of util/tcp_server.h) that lets
// you ask a RUNNING process what it is doing — the pull-side counterpart of
// the push-side span/metrics substrate in obs/trace.h and obs/metrics.h.
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
//                             the flight-recorder pressure ring (published
//                             by each live sched/morsel_scheduler.h)
//   GET /debug/service        query-service admission state: sessions,
//                             active/queued queries, shed and promotion
//                             totals, queue-wait and latency percentiles
//                             (published by each running
//                             service/query_service.h)
//
// Design constraints, in order:
//   1. Zero cost when off (the default): nothing is constructed, no thread,
//      no socket. Queries never wait on the exporter — every handler reads
//      relaxed-atomic snapshots or copies strings under short mutexes.
//   2. Hardened like APQ_TRACE: an invalid APQ_HTTP value or a failing
//      bind/listen warns once on stderr and introspection stays off. It
//      never aborts or fails a query.
//   3. One loop thread multiplexes every connection, so an idle or slow
//      client cannot stall another, and answers requests one at a time, so
//      a scrape cannot amplify load on the engine. A request ends at its
//      blank line or the client's EOF; one that passes 4096 bytes without
//      it is closed unanswered. Every answer is sent whole, then the
//      connection closes. Binds 127.0.0.1 only — this is an introspection
//      port, not a public API.
#ifndef APQ_OBS_HTTP_EXPORTER_H_
#define APQ_OBS_HTTP_EXPORTER_H_

#include <functional>
#include <string>

#include "util/status.h"
#include "util/tcp_server.h"

namespace apq {
namespace obs {

/// \brief The embedded introspection server. Instantiable for tests (an
/// ephemeral port via Start(0)); production use goes through Global(),
/// started by APQ_HTTP=<port> or a direct Global().Start(port).
class HttpExporter {
 public:
  HttpExporter();
  ~HttpExporter() { Stop(); }
  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// The process-wide exporter.
  static HttpExporter& Global();

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port, for tests)
  /// and starts serving. Idempotent while running: a second Start
  /// keeps the original port (and warns when a different one was asked
  /// for). On failure the server stays off and the Status says why.
  Status Start(int port);

  /// Stops serving and closes every socket. Safe to call when not running.
  void Stop() { server_.Stop(); }

  bool running() const { return server_.running(); }
  /// The bound port (resolved for ephemeral requests); 0 when not running.
  int port() const { return server_.port(); }

  /// Routes one request path to (http status, content type, body). Exposed
  /// so unit tests can exercise the routing table without sockets.
  static void Handle(const std::string& path, int* http_status,
                     std::string* content_type, std::string* body);

  /// One complete request in, the framed response out: GET and HEAD go
  /// through Handle, any other method gets 405. The serve loop sends this.
  static std::string Respond(const std::string& request);

 private:
  TcpServer server_;
};

/// Adds `render`'s document to the list served at `route` (/debug/workers
/// or /debug/service) until Unpublish(owner). Upper tiers publish through
/// this, so src/obs never depends on them. Renders run under the registry
/// mutex: once Unpublish returns, no render of `owner` runs.
void Publish(const std::string& route, const void* owner,
             std::function<std::string()> render);
void Unpublish(const void* owner);

/// The body served at /debug/workers ({"schedulers":[...]}) or
/// /debug/service ({"services":[...]}): the live documents in publication
/// order.
std::string PublishedJson(const std::string& route);

/// Reads APQ_HTTP once and starts Global() on that port when valid.
/// Idempotent and cheap after the first call; obs::InitFromEnv calls this.
void InitHttpFromEnv();

}  // namespace obs
}  // namespace apq

#endif  // APQ_OBS_HTTP_EXPORTER_H_

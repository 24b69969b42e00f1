#include "obs/http_exporter.h"

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <mutex>
#include <sstream>

#include "obs/metrics.h"
#include "obs/query_log.h"
#include "util/env.h"
#include "util/hash_clock.h"

namespace apq {
namespace obs {

namespace {

// Per-route request counters: apq_http_requests_total{route="..."}. The
// route label is drawn from a fixed vocabulary (id-suffixed paths collapse
// to "/debug/profile", everything unrecognized to "unknown") so a scanner
// walking random paths cannot grow the registry without bound.
Counter* RouteCounter(const char* route) {
  return MetricsRegistry::Global().GetCounter(
      std::string("apq_http_requests_total{route=\"") + route + "\"}");
}

struct Published {
  const void* owner;
  std::function<std::string()> render;
};
std::mutex g_published_mu;  // guards PublishedDocs() and spans every render
std::multimap<std::string, Published>& PublishedDocs() {  // by route
  static auto* m = new std::multimap<std::string, Published>();  // leaked
  return *m;
}

std::string StatusLine(int code) {
  switch (code) {
    case 200: return "HTTP/1.1 200 OK";
    case 404: return "HTTP/1.1 404 Not Found";
    case 405: return "HTTP/1.1 405 Method Not Allowed";
    default: return "HTTP/1.1 500 Internal Server Error";
  }
}

// Process start anchor for /healthz uptime.
const double g_start_ns = NowNs();

}  // namespace

HttpExporter::HttpExporter()
    : server_([this](uint64_t conn, std::string* in, bool eof) {
        // A request is complete at its blank line or at the client's EOF;
        // false closes the connection once the answer is sent.
        if (!eof && in->find("\r\n\r\n") == std::string::npos &&
            in->find("\n\n") == std::string::npos) {
          return true;
        }
        server_.Send(conn, Respond(*in));
        in->clear();
        return false;
      }) {}

HttpExporter& HttpExporter::Global() {
  static HttpExporter* g = new HttpExporter();  // leaked: atexit-stop only
  return *g;
}

void HttpExporter::Handle(const std::string& raw_path, int* http_status,
                          std::string* content_type, std::string* body) {
  // Strip any query string: /metrics?x=y routes like /metrics.
  const size_t q = raw_path.find('?');
  const std::string path =
      q == std::string::npos ? raw_path : raw_path.substr(0, q);

  *http_status = 200;
  *content_type = "application/json";
  if (path == "/metrics") {
    RouteCounter("/metrics")->Inc();
    *content_type = "text/plain; version=0.0.4; charset=utf-8";
    *body = MetricsRegistry::Global().ToPrometheus();
    return;
  }
  if (path == "/metrics.json") {
    RouteCounter("/metrics.json")->Inc();
    *body = MetricsRegistry::Global().ToJson();
    return;
  }
  if (path == "/healthz") {
    RouteCounter("/healthz")->Inc();
    std::ostringstream os;
    os.precision(15);
    os << "ok uptime_s=" << (NowNs() - g_start_ns) / 1e9 << "\n";
    *content_type = "text/plain; charset=utf-8";
    *body = os.str();
    return;
  }
  if (path == "/debug/queries") {
    RouteCounter("/debug/queries")->Inc();
    *body = QueryLog::Global().SummaryJson();
    return;
  }
  if (path == "/debug/workers" || path == "/debug/service") {
    RouteCounter(path.c_str())->Inc();
    *body = PublishedJson(path);
    return;
  }
  const std::string profile_prefix = "/debug/profile/";
  if (path.rfind(profile_prefix, 0) == 0) {
    RouteCounter("/debug/profile")->Inc();
    const std::string id_str = path.substr(profile_prefix.size());
    uint64_t id = 0;
    if (!ParseDecimal(id_str.c_str(), 1, UINT64_MAX, &id) ||
        !QueryLog::Global().FindProfile(id, body)) {
      *http_status = 404;
      std::ostringstream os;
      os << "{\"error\":\"no profile for query id '";
      JsonEscapeInto(os, id_str);
      os << "'\"}";
      *body = os.str();
    }
    return;
  }
  RouteCounter("unknown")->Inc();
  *http_status = 404;
  *body = "{\"error\":\"not found\",\"endpoints\":[\"/metrics\","
          "\"/metrics.json\",\"/healthz\",\"/debug/queries\","
          "\"/debug/profile/<id>\",\"/debug/workers\",\"/debug/service\"]}";
}

std::string HttpExporter::Respond(const std::string& request) {
  // Parse "GET <path> HTTP/1.x".
  std::string method, path;
  const size_t sp1 = request.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : request.find(' ', sp1 + 1);
  if (sp2 != std::string::npos) {
    method = request.substr(0, sp1);
    path = request.substr(sp1 + 1, sp2 - sp1 - 1);
  }

  int http_status = 405;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body = "method not allowed\n";
  if (method == "GET" || method == "HEAD") {
    Handle(path, &http_status, &content_type, &body);
  }

  std::ostringstream os;
  os << StatusLine(http_status) << "\r\nContent-Type: " << content_type
     << "\r\nContent-Length: " << body.size()
     << "\r\nConnection: close\r\n\r\n";
  if (method != "HEAD") os << body;
  return os.str();
}

Status HttpExporter::Start(int port) {
  if (running()) {
    if (port != 0 && port != this->port()) {
      std::fprintf(stderr,
                   "apq: introspection endpoint already on port %d; "
                   "ignoring request for port %d\n",
                   this->port(), port);
    }
    return Status::OK();
  }
  return server_.Start(port);
}

void Publish(const std::string& route, const void* owner,
             std::function<std::string()> render) {
  std::lock_guard<std::mutex> lock(g_published_mu);
  PublishedDocs().emplace(route, Published{owner, std::move(render)});
}

void Unpublish(const void* owner) {
  std::lock_guard<std::mutex> lock(g_published_mu);
  auto& m = PublishedDocs();
  for (auto it = m.begin(); it != m.end();) {
    it = it->second.owner == owner ? m.erase(it) : std::next(it);
  }
}

std::string PublishedJson(const std::string& route) {
  std::string out = route == "/debug/workers" ? "{\"schedulers\":["
                                              : "{\"services\":[";
  std::lock_guard<std::mutex> lock(g_published_mu);
  const auto [first, last] = PublishedDocs().equal_range(route);
  for (auto it = first; it != last; ++it) {
    out += (it == first ? "" : ",") + it->second.render();
  }
  return out + "]}";
}

void InitHttpFromEnv() {
  static const bool once = [] {
    const uint64_t port = EnvInt("APQ_HTTP", 1, 65535).value_or(0);
    if (port > 0) {
      Status st = HttpExporter::Global().Start(static_cast<int>(port));
      if (!st.ok()) {
        std::fprintf(stderr,
                     "apq: APQ_HTTP introspection endpoint failed to start: "
                     "%s; introspection stays off\n",
                     st.ToString().c_str());
      } else {
        std::atexit([] { HttpExporter::Global().Stop(); });
      }
    }
    return true;
  }();
  (void)once;
}

}  // namespace obs
}  // namespace apq

#include "obs/http_exporter.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/query_log.h"
#include "util/env.h"
#include "util/hash_clock.h"

namespace apq {
namespace obs {

namespace {

// Serve-loop poll period: the stop flag is observed within this bound.
constexpr int kPollMs = 100;
// A request line longer than this is garbage; drop the connection.
constexpr size_t kMaxRequestBytes = 4096;

// Per-route request counters: apq_http_requests_total{route="..."}. The
// route label is drawn from a fixed vocabulary (id-suffixed paths collapse
// to "/debug/profile", everything unrecognized to "unknown") so a scanner
// walking random paths cannot grow the registry without bound.
Counter* RouteCounter(const char* route) {
  return MetricsRegistry::Global().GetCounter(
      std::string("apq_http_requests_total{route=\"") + route + "\"}");
}

std::atomic<std::string (*)()> g_workers_provider{nullptr};
std::atomic<std::string (*)()> g_service_provider{nullptr};

std::string StatusLine(int code) {
  switch (code) {
    case 200: return "HTTP/1.1 200 OK";
    case 404: return "HTTP/1.1 404 Not Found";
    case 405: return "HTTP/1.1 405 Method Not Allowed";
    default: return "HTTP/1.1 500 Internal Server Error";
  }
}

void WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;  // client went away; nothing to salvage
    off += static_cast<size_t>(n);
  }
}

// Process start anchor for /healthz uptime.
const double g_start_ns = NowNs();

}  // namespace

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
  if (path == "/debug/workers") {
    RouteCounter("/debug/workers")->Inc();
    std::string (*provider)() = g_workers_provider.load();
    *body = provider != nullptr ? provider() : "{\"schedulers\":[]}";
    return;
  }
  if (path == "/debug/service") {
    RouteCounter("/debug/service")->Inc();
    std::string (*provider)() = g_service_provider.load();
    *body = provider != nullptr ? provider() : "{\"services\":[]}";
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
      *body = "{\"error\":\"no profile for query id '" + id_str + "'\"}";
    }
    return;
  }
  RouteCounter("unknown")->Inc();
  *http_status = 404;
  *body = "{\"error\":\"not found\",\"endpoints\":[\"/metrics\","
          "\"/metrics.json\",\"/healthz\",\"/debug/queries\","
          "\"/debug/profile/<id>\",\"/debug/workers\",\"/debug/service\"]}";
}

Status HttpExporter::Start(int port) {
  if (running()) {
    if (port != 0 && port != port_) {
      std::fprintf(stderr,
                   "apq: introspection endpoint already on port %d; "
                   "ignoring request for port %d\n",
                   port_, port);
    }
    return Status::OK();
  }

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    Status st = Status::Internal("bind/listen on 127.0.0.1:" +
                                 std::to_string(port) + ": " +
                                 std::strerror(errno));
    ::close(fd);
    return st;
  }
  // Resolve the kernel-assigned port for ephemeral (port 0) requests.
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = port;
  }

  listen_fd_ = fd;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Serve(); });
  return Status::OK();
}

void HttpExporter::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // The serve loop polls with a timeout, so flipping the flag is enough; the
  // shutdown just hurries a blocked accept along.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

void HttpExporter::Serve() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, kPollMs);
    if (pr <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;

    // Bound the read so a stalled client cannot wedge the (single) serve
    // thread; introspection clients send one short GET line.
    timeval tv{2, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

    std::string req;
    char buf[1024];
    while (req.size() < kMaxRequestBytes &&
           req.find("\r\n\r\n") == std::string::npos) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      req.append(buf, static_cast<size_t>(n));
    }

    // Parse "GET <path> HTTP/1.x".
    std::string method, path;
    {
      const size_t sp1 = req.find(' ');
      const size_t sp2 =
          sp1 == std::string::npos ? std::string::npos : req.find(' ', sp1 + 1);
      if (sp1 != std::string::npos && sp2 != std::string::npos) {
        method = req.substr(0, sp1);
        path = req.substr(sp1 + 1, sp2 - sp1 - 1);
      }
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
    WriteAll(fd, os.str());
    ::shutdown(fd, SHUT_WR);
    ::close(fd);
  }
}

void SetWorkersProvider(std::string (*provider)()) {
  g_workers_provider.store(provider);
}

void SetServiceProvider(std::string (*provider)()) {
  g_service_provider.store(provider);
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

#include "service/query_service.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "engine/engine.h"
#include "obs/http_exporter.h"
#include "sched/morsel_scheduler.h"
#include "util/env.h"
#include "util/hash_clock.h"

namespace apq {
namespace service {

namespace {

// Reader-loop poll period: the stop flag is observed within this bound
// (mirrors the HTTP exporter's serve loop).
constexpr int kPollMs = 100;
// A request line longer than this is garbage; drop the connection.
constexpr size_t kMaxLineBytes = 4096;

// Live services, for the /debug/service provider (same pattern as
// MorselScheduler::WorkersJson).
std::mutex& ServicesMu() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}
std::vector<QueryService*>& Services() {
  static std::vector<QueryService*>* v = new std::vector<QueryService*>();
  return *v;
}

void SockWriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;  // client went away; nothing to salvage
    off += static_cast<size_t>(n);
  }
}

}  // namespace

// ---- config / env knobs -----------------------------------------------------

ServiceConfig ServiceConfig::FromEnv() {
  static const int port =
      static_cast<int>(EnvInt("APQ_SERVICE_PORT", 1, 65535).value_or(0));
  static const int max_concurrent = static_cast<int>(
      EnvInt("APQ_SERVICE_MAX_CONCURRENT", 1, 256)
          .value_or(kDefaultMaxConcurrent));
  static const size_t queue_depth =
      EnvInt("APQ_SERVICE_QUEUE_DEPTH", 0, 1048576)
          .value_or(kDefaultMaxQueueDepth);
  ServiceConfig cfg;
  cfg.port = port;
  cfg.max_concurrent = max_concurrent;
  cfg.max_queue_depth = queue_depth;
  return cfg;
}

bool IsHeavyQuery(const std::string& name) {
  // The paper's Table 4 split: Q6/Q14 are the simple (select-dominated)
  // queries; the multi-join/aggregation shapes are heavy analytics.
  return !(name == "Q6" || name == "Q14");
}

// ---- session / pending request ---------------------------------------------

struct QueryService::Session {
  explicit Session(int fd_in) : fd(fd_in) {}
  ~Session() {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  void Write(const std::string& data) {
    std::lock_guard<std::mutex> lock(write_mu);
    SockWriteAll(fd, data);
  }

  const int fd;
  std::string inbuf;     // reader thread only
  std::mutex write_mu;   // whole response blocks are written under this
};

struct QueryService::Pending {
  uint64_t id = 0;
  std::shared_ptr<Session> session;
  Request req;
  double arrival_ns = 0;
};

// ---- lifecycle --------------------------------------------------------------

QueryService::~QueryService() { Stop(); }

int QueryService::fleet_workers() const {
  return scheduler_ ? scheduler_->num_workers() : 0;
}

Status QueryService::Start(std::shared_ptr<Catalog> catalog,
                           ServiceConfig config) {
  if (running()) {
    return Status::AlreadyExists("service already running on 127.0.0.1:" +
                                 std::to_string(port_));
  }
  if (catalog == nullptr) {
    return Status::InvalidArgument("service needs a catalog");
  }
  if (config.max_concurrent < 1) {
    return Status::InvalidArgument("max_concurrent must be >= 1");
  }
  config_ = config;
  catalog_ = std::move(catalog);

  // Build every workload plan once; requests reference them read-only.
  plans_.clear();
  for (const std::string& name : Tpch::QueryNames()) {
    auto plan = Tpch::Query(*catalog_, name);
    if (!plan.ok()) {
      return Status::Internal("building " + name + ": " +
                              plan.status().ToString());
    }
    plans_.emplace(name, plan.MoveValueOrDie());
  }

  scheduler_ = std::make_shared<MorselScheduler>(config_.morsel_workers);
  AdmissionConfig acfg;
  acfg.max_concurrent = config_.max_concurrent;
  acfg.max_queue_depth = config_.max_queue_depth;
  admission_ = std::make_unique<AdmissionController>(acfg);

  auto& reg = obs::MetricsRegistry::Global();
  m_requests_ = reg.GetCounter("apq_service_requests_total");
  m_responses_ = reg.GetCounter("apq_service_responses_total");
  m_exec_errors_ = reg.GetCounter("apq_service_exec_errors_total");
  m_degraded_ = reg.GetCounter("apq_service_degraded_total");
  m_sessions_ = reg.GetGauge("apq_service_sessions");
  m_latency_ = reg.GetHistogram("apq_service_latency_ns",
                                obs::Histogram::LatencyBoundsNs());
  m_queue_wait_ = reg.GetHistogram("apq_service_queue_wait_ns",
                                   obs::Histogram::LatencyBoundsNs());

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
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    Status st = Status::Internal("bind/listen on 127.0.0.1:" +
                                 std::to_string(config_.port) + ": " +
                                 std::strerror(errno));
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = config_.port;
  }
  listen_fd_ = fd;

  running_.store(true, std::memory_order_release);
  reader_ = std::thread([this] { ReaderLoop(); });
  executors_.reserve(static_cast<size_t>(config_.max_concurrent));
  for (int i = 0; i < config_.max_concurrent; ++i) {
    executors_.emplace_back([this] { ExecutorLoop(); });
  }

  {
    std::lock_guard<std::mutex> lock(ServicesMu());
    Services().push_back(this);
  }
  obs::SetServiceProvider(&QueryService::ServiceJson);
  return Status::OK();
}

void QueryService::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(ServicesMu());
    auto& v = Services();
    for (auto it = v.begin(); it != v.end(); ++it) {
      if (*it == this) {
        v.erase(it);
        break;
      }
    }
  }
  // New arrivals shed from here on; executors drain what is already queued,
  // then exit.
  admission_->Shutdown();
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (reader_.joinable()) reader_.join();
  for (auto& t : executors_) {
    if (t.joinable()) t.join();
  }
  executors_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.clear();  // destructors close the fds
  pending_.clear();
  if (m_sessions_ != nullptr) m_sessions_->Set(0);
}

// ---- reader -----------------------------------------------------------------

void QueryService::ReaderLoop() {
  while (running_.load(std::memory_order_acquire)) {
    std::vector<pollfd> pfds;
    std::vector<std::shared_ptr<Session>> polled;
    {
      std::lock_guard<std::mutex> lock(mu_);
      pfds.reserve(sessions_.size() + 1);
      polled.reserve(sessions_.size());
      pfds.push_back({listen_fd_, POLLIN, 0});
      for (const auto& [fd, session] : sessions_) {
        pfds.push_back({fd, POLLIN, 0});
        polled.push_back(session);
      }
    }
    const int pr = ::poll(pfds.data(), pfds.size(), kPollMs);
    if (pr <= 0) continue;

    if ((pfds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        // Bound both directions so a stalled client can neither wedge the
        // reader nor an executor writing a response.
        timeval tv{5, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        std::lock_guard<std::mutex> lock(mu_);
        sessions_.emplace(fd, std::make_shared<Session>(fd));
        m_sessions_->Set(static_cast<int64_t>(sessions_.size()));
      }
    }

    for (size_t i = 1; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const std::shared_ptr<Session>& session = polled[i - 1];
      char buf[4096];
      const ssize_t n = ::recv(session->fd, buf, sizeof(buf), 0);
      bool drop = n <= 0;
      if (n > 0) {
        session->inbuf.append(buf, static_cast<size_t>(n));
        size_t nl;
        while ((nl = session->inbuf.find('\n')) != std::string::npos) {
          std::string line = session->inbuf.substr(0, nl);
          session->inbuf.erase(0, nl + 1);
          if (!line.empty() && line.back() == '\r') line.pop_back();
          if (!line.empty()) HandleLine(session, line);
        }
        if (session->inbuf.size() > kMaxLineBytes) drop = true;  // garbage
      }
      if (drop) {
        std::lock_guard<std::mutex> lock(mu_);
        sessions_.erase(session->fd);  // in-flight requests keep it alive
        m_sessions_->Set(static_cast<int64_t>(sessions_.size()));
      }
    }
  }
}

void QueryService::HandleLine(const std::shared_ptr<Session>& session,
                              const std::string& line) {
  m_requests_->Inc();
  Request req;
  const Status st = ParseRequest(line, &req);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++requests_total_;
  }
  if (!st.ok()) {
    session->Write(ErrResponse(ErrType::kParse, req.tag, st.message()));
    std::lock_guard<std::mutex> lock(mu_);
    ++responses_total_;
    m_responses_->Inc();
    return;
  }
  const bool known = plans_.count(req.query) > 0;
  if (!known || (req.sel >= 0.0 && req.query != "Q6")) {
    std::string names;
    for (const std::string& n : Tpch::QueryNames()) {
      names += (names.empty() ? "" : "|") + n;
    }
    session->Write(ErrResponse(
        ErrType::kPlan, req.tag,
        !known ? "unknown query '" + req.query + "' (expected " + names + ")"
               : "sel= is only valid for Q6"));
    std::lock_guard<std::mutex> lock(mu_);
    ++responses_total_;
    m_responses_->Inc();
    return;
  }

  auto p = std::make_shared<Pending>();
  p->session = session;
  p->req = req;
  p->arrival_ns = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    p->id = next_request_id_++;
    pending_.emplace(p->id, p);
  }
  const AdmitResult admit =
      admission_->Enqueue(p->id, IsHeavyQuery(req.query), p->arrival_ns);
  if (admit == AdmitResult::kShed) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.erase(p->id);
    }
    session->Write(ErrResponse(
        ErrType::kShed, req.tag,
        "admission queue full (max_queue_depth=" +
            std::to_string(config_.max_queue_depth) +
            ", max_concurrent=" + std::to_string(config_.max_concurrent) +
            "); retry later"));
    std::lock_guard<std::mutex> lock(mu_);
    ++responses_total_;
    m_responses_->Inc();
  }
}

// ---- executors --------------------------------------------------------------

void QueryService::ExecutorLoop() {
  // One engine per executor, all multiplexing the one shared fleet. The sim
  // config is irrelevant to served queries; wall_ns is hardware truth.
  EngineConfig cfg;
  cfg.use_morsels = true;
  cfg.morsel_scheduler = scheduler_;
  if (config_.morsel_rows > 0) cfg.morsel_rows = config_.morsel_rows;
  Engine engine(cfg);

  uint64_t id = 0;
  double queue_wait_ns = 0;
  while (admission_->WaitClaim(&id, &queue_wait_ns)) {
    std::shared_ptr<Pending> p;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = pending_.find(id);
      if (it != pending_.end()) {
        p = it->second;
        pending_.erase(it);
      }
    }
    if (p != nullptr) Execute(engine, *p, queue_wait_ns);
    admission_->Release();
  }
}

void QueryService::Execute(Engine& engine, const Pending& p,
                           double queue_wait_ns) {
  // Degrade this query's fleet share under load: the shared Vectorwise
  // grant over the morsel fleet, applied as a morsel-size multiplier —
  // `active` times larger morsels means this query's operator splits into
  // ~1/active as many tasks, so it can occupy at most its granted share of
  // the workers. Morsel size never changes results (the house invariant),
  // so degradation is invisible to correctness.
  const int fleet = fleet_workers();
  const int granted =
      admission_->GrantedWorkers(fleet, admission_->Stats().active);
  if (granted < fleet) {
    std::lock_guard<std::mutex> lock(mu_);
    ++degraded_total_;
    m_degraded_->Inc();
  }
  const uint64_t base_rows =
      config_.morsel_rows > 0 ? config_.morsel_rows : kDefaultMorselRows;
  const uint64_t eff_rows =
      granted > 0 ? base_rows * static_cast<uint64_t>(
                                    std::max(1, fleet / granted))
                  : base_rows;
  if (engine.evaluator()->options().morsel_rows != eff_rows) {
    ExecOptions o = engine.evaluator()->options();
    o.morsel_rows = eff_rows;
    engine.evaluator()->set_options(o);
  }

  // Resolve the plan: a cached workload plan, or the selectivity-controlled
  // Q6 variant built per request.
  const QueryPlan* plan = nullptr;
  QueryPlan sel_plan;
  if (p.req.sel >= 0.0) {
    auto sp = Tpch::Q6Selectivity(*catalog_, p.req.sel);
    if (!sp.ok()) {
      p.session->Write(
          ErrResponse(ErrType::kPlan, p.req.tag, sp.status().ToString()));
      std::lock_guard<std::mutex> lock(mu_);
      ++responses_total_;
      m_responses_->Inc();
      return;
    }
    sel_plan = sp.MoveValueOrDie();
    plan = &sel_plan;
  } else {
    plan = &plans_.at(p.req.query);
  }

  auto run = engine.RunPlan(*plan);
  std::string response;
  bool failed = false;
  if (run.ok()) {
    const QueryRunResult& r = run.ValueOrDie();
    response = OkResponse(r.query_id, p.req.tag, granted, r.wall_ns,
                          queue_wait_ns, r.result);
  } else {
    response =
        ErrResponse(ErrType::kExec, p.req.tag, run.status().ToString());
    failed = true;
  }
  p.session->Write(response);
  m_latency_->Observe(NowNs() - p.arrival_ns);
  std::lock_guard<std::mutex> lock(mu_);
  ++responses_total_;
  m_responses_->Inc();
  if (failed) {
    ++exec_errors_total_;
    m_exec_errors_->Inc();
  }
}

// ---- stats / debug ----------------------------------------------------------

ServiceStats QueryService::Stats() const {
  ServiceStats s;
  s.admission = admission_ ? admission_->Stats() : AdmissionStats();
  std::lock_guard<std::mutex> lock(mu_);
  s.sessions = sessions_.size();
  s.requests_total = requests_total_;
  s.responses_total = responses_total_;
  s.exec_errors_total = exec_errors_total_;
  s.degraded_total = degraded_total_;
  return s;
}

std::string QueryService::DebugJson() const {
  const ServiceStats s = Stats();
  std::ostringstream os;
  os.precision(15);
  os << "{\"port\":" << port_ << ",\"sessions\":" << s.sessions
     << ",\"fleet_workers\":" << fleet_workers()
     << ",\"sched_pending\":" << (scheduler_ ? scheduler_->pending() : 0)
     << ",\"max_concurrent\":" << config_.max_concurrent
     << ",\"max_queue_depth\":" << config_.max_queue_depth
     << ",\"active\":" << s.admission.active
     << ",\"queued\":" << s.admission.queued
     << ",\"queue_depth_peak\":" << s.admission.queue_depth_peak
     << ",\"admitted_total\":" << s.admission.admitted_total
     << ",\"waited_total\":" << s.admission.waited_total
     << ",\"shed_total\":" << s.admission.shed_total
     << ",\"promoted_total\":" << s.admission.promoted_total
     << ",\"completed_total\":" << s.admission.completed_total
     << ",\"requests_total\":" << s.requests_total
     << ",\"responses_total\":" << s.responses_total
     << ",\"exec_errors_total\":" << s.exec_errors_total
     << ",\"degraded_total\":" << s.degraded_total;
  if (m_queue_wait_ != nullptr && m_latency_ != nullptr) {
    os << ",\"queue_wait_p50_ns\":" << m_queue_wait_->Percentile(0.50)
       << ",\"queue_wait_p99_ns\":" << m_queue_wait_->Percentile(0.99)
       << ",\"latency_p50_ns\":" << m_latency_->Percentile(0.50)
       << ",\"latency_p99_ns\":" << m_latency_->Percentile(0.99);
  }
  os << "}";
  return os.str();
}

std::string QueryService::ServiceJson() {
  std::ostringstream os;
  os << "{\"services\":[";
  {
    std::lock_guard<std::mutex> lock(ServicesMu());
    bool first = true;
    for (QueryService* svc : Services()) {
      if (!first) os << ",";
      first = false;
      os << svc->DebugJson();
    }
  }
  os << "]}";
  return os.str();
}

}  // namespace service
}  // namespace apq

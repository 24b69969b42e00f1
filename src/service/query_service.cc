#include "service/query_service.h"

#include <algorithm>
#include <sstream>

#include "engine/engine.h"
#include "obs/http_exporter.h"
#include "sched/morsel_scheduler.h"
#include "util/env.h"
#include "util/hash_clock.h"

namespace apq {
namespace service {

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

// ---- pending request / lifecycle -------------------------------------------

struct QueryService::Pending {
  uint64_t id = 0;
  uint64_t conn = 0;
  Request req;
  double arrival_ns = 0;
};

QueryService::QueryService()
    : server_(
          [this](uint64_t conn, std::string* in, bool) {
            // The line splitter: every complete line is one request; a
            // trailing partial line waits for more input.
            size_t start = 0, nl;
            while ((nl = in->find('\n', start)) != std::string::npos) {
              std::string line = in->substr(start, nl - start);
              start = nl + 1;
              if (!line.empty() && line.back() == '\r') line.pop_back();
              if (!line.empty()) HandleLine(conn, line);
            }
            in->erase(0, start);
            return true;
          },
          [this](size_t open) {
            open_sessions_ = open;
            m_sessions_->Set(static_cast<int64_t>(open));
          }) {}

QueryService::~QueryService() { Stop(); }

int QueryService::fleet_workers() const {
  return scheduler_ ? scheduler_->num_workers() : 0;
}

Status QueryService::Start(std::shared_ptr<Catalog> catalog,
                           ServiceConfig config) {
  if (running()) {
    return Status::AlreadyExists("service already running on 127.0.0.1:" +
                                 std::to_string(port()));
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

  // Bind before the fleet and the executors exist, so a taken port leaves
  // nothing running. The loop may hand over requests at once; they queue
  // until the executors below start claiming.
  APQ_RETURN_NOT_OK(server_.Start(config_.port));
  scheduler_ = std::make_shared<MorselScheduler>(config_.morsel_workers);
  executors_.reserve(static_cast<size_t>(config_.max_concurrent));
  for (int i = 0; i < config_.max_concurrent; ++i) {
    executors_.emplace_back([this] { ExecutorLoop(); });
  }
  obs::Publish("/debug/service", this, [this] { return DebugJson(); });
  return Status::OK();
}

void QueryService::Stop() {
  if (!running()) return;
  obs::Unpublish(this);
  // New arrivals shed from here on; executors drain what is already queued,
  // answer it, then exit. Only then do the sessions close.
  admission_->Shutdown();
  for (auto& t : executors_) t.join();
  executors_.clear();
  server_.Stop();
  std::lock_guard<std::mutex> lock(mu_);
  pending_.clear();
}

void QueryService::Answer(uint64_t conn, const std::string& block,
                          bool owed) {
  server_.Send(conn, block);
  if (owed) server_.Hold(conn, -1);
  std::lock_guard<std::mutex> lock(mu_);
  ++responses_total_;
  m_responses_->Inc();
}

void QueryService::HandleLine(uint64_t conn, const std::string& line) {
  m_requests_->Inc();
  Request req;
  const Status st = ParseRequest(line, &req);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++requests_total_;
  }
  if (!st.ok()) {
    Answer(conn, ErrResponse(ErrType::kParse, req.tag, st.message()), false);
    return;
  }
  const bool known = plans_.count(req.query) > 0;
  if (!known || (req.sel >= 0.0 && req.query != "Q6")) {
    std::string names;
    for (const std::string& n : Tpch::QueryNames()) {
      names += (names.empty() ? "" : "|") + n;
    }
    Answer(conn,
           ErrResponse(ErrType::kPlan, req.tag,
                       !known ? "unknown query '" + req.query +
                                    "' (expected " + names + ")"
                              : "sel= is only valid for Q6"),
           false);
    return;
  }

  auto p = std::make_shared<Pending>();
  p->conn = conn;
  p->req = req;
  p->arrival_ns = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    p->id = next_request_id_++;
    pending_.emplace(p->id, p);
  }
  server_.Hold(conn, 1);  // owed even if the client closes its side first
  const AdmitResult admit =
      admission_->Enqueue(p->id, IsHeavyQuery(req.query), p->arrival_ns);
  if (admit == AdmitResult::kShed) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.erase(p->id);
    }
    Answer(conn,
           ErrResponse(ErrType::kShed, req.tag,
                       "admission queue full (max_queue_depth=" +
                           std::to_string(config_.max_queue_depth) +
                           ", max_concurrent=" +
                           std::to_string(config_.max_concurrent) +
                           "); retry later"),
           true);
  }
}

// ---- executors --------------------------------------------------------------

void QueryService::ExecutorLoop() {
  // One engine per executor, all multiplexing the one shared fleet. The sim
  // config is irrelevant to served queries; wall_ns is hardware truth.
  EngineConfig cfg;
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

  // Resolve the plan: a cached workload plan, or the selectivity-controlled
  // Q6 variant built per request.
  const QueryPlan* plan = nullptr;
  QueryPlan sel_plan;
  if (p.req.sel >= 0.0) {
    auto sp = Tpch::Q6Selectivity(*catalog_, p.req.sel);
    if (!sp.ok()) {
      Answer(p.conn,
             ErrResponse(ErrType::kPlan, p.req.tag, sp.status().ToString()),
             true);
      return;
    }
    sel_plan = sp.MoveValueOrDie();
    plan = &sel_plan;
  } else {
    plan = &plans_.at(p.req.query);
  }

  auto run = engine.RunPlan(*plan, {}, /*seed_salt=*/0, eff_rows);
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
  Answer(p.conn, response, true);
  m_latency_->Observe(NowNs() - p.arrival_ns);
  if (failed) {
    std::lock_guard<std::mutex> lock(mu_);
    ++exec_errors_total_;
    m_exec_errors_->Inc();
  }
}

// ---- stats / debug ----------------------------------------------------------

ServiceStats QueryService::Stats() const {
  ServiceStats s;
  s.admission = admission_ ? admission_->Stats() : AdmissionStats();
  s.sessions = open_sessions_;
  std::lock_guard<std::mutex> lock(mu_);
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
  os << "{\"port\":" << port() << ",\"sessions\":" << s.sessions
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
  return obs::PublishedJson("/debug/service");
}

}  // namespace service
}  // namespace apq

// `serve`: an in-process QueryService on an ephemeral loopback port, driven
// closed loop by four connections, one thread each, over the line protocol.
// Service, admission and per-query bookkeeping changes show here.
#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "sched/morsel_scheduler.h"
#include "service/query_service.h"
#include "workload/tpch.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint64_t kLineitemRows = 60'000;  // ~13 MB: fits in L3
constexpr int kClients = 4;
constexpr int kMaxConcurrent = 2;
constexpr int kFleetWorkers = 2;  // executors + workers = 4 busy threads
constexpr int kCycleLength = 1000;
// Mix requests each client sends during warm-up.
constexpr size_t kWarmRequests = 30;
// A traced request replays the engine bookkeeping and reads the query log
// once every this many requests per client, to keep the replay's own CPU
// time from crowding the service.
constexpr uint64_t kSampleEvery = 32;

// The mix's queries and its latency classes, the service's own admission
// classes.
const std::vector<std::string> kLight = {"Q6", "Q14"};
const std::vector<std::string> kHeavy = {"Q9", "Q19"};
const std::vector<std::string> kQueries = {"Q6", "Q14", "Q9", "Q19"};

bool IsLight(const std::string& q) { return !apq::service::IsHeavyQuery(q); }

// One persistent client connection speaking the line protocol.
class Conn {
 public:
  explicit Conn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ok_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0;
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool ok() const { return ok_; }

  bool Send(const std::string& line) {
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + off, line.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads one END-terminated response block; false when the connection is
  // lost first.
  bool ReadBlock(std::string* block) {
    size_t pos;
    while ((pos = buf_.find("\nEND\n")) == std::string::npos) {
      char tmp[16384];
      const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
      if (n <= 0) return false;
      buf_.append(tmp, static_cast<size_t>(n));
    }
    *block = buf_.substr(0, pos + 5);
    buf_.erase(0, pos + 5);
    return true;
  }

 private:
  int fd_ = -1;
  bool ok_ = false;
  std::string buf_;
};

// Members in destruction-safe order: connections close before the service
// stops, and the service stops before the catalog goes.
struct Setup {
  std::shared_ptr<apq::Catalog> catalog;
  std::unique_ptr<apq::service::QueryService> svc;
  std::vector<std::unique_ptr<Conn>> conns;
};

// Per-client measurements, merged after the clients join.
struct ClientResult {
  Tally tally;
  ByQuery lat;
  // Traced window only.
  std::vector<double> queue_wait_ns, exec_ns;  // light requests
  std::vector<double> heavy_exec_ns;
  std::vector<double> sim_ns, doc_ns, residual_ns, sched_wait_ns;
  std::vector<double> engine_light_ns, engine_heavy_ns;
  OpTotals ops;
  double peak_bytes = 0;
  double heavy = 0;
};


// What a traced client needs besides its connection.
struct TraceCtx {
  SpanLog* spans = nullptr;
  const apq::Engine* engine = nullptr;  // cost model + simulator
  const std::map<std::string, apq::QueryPlan>* plans = nullptr;
  const std::map<std::string, std::vector<apq::OpMetrics>>* metrics = nullptr;
};

void RecordTraced(const TraceCtx& tc, const std::string& q, uint64_t n,
                  double t0, double t1, const OkHeader& h, ClientResult* out) {
  const bool light = IsLight(q);
  const std::string cls = light ? "light" : "heavy";
  const uint64_t req = tc.spans->NewRequest();
  const uint64_t root = tc.spans->Add("serve.request." + cls, 0, req, t0, t1);
  const double exec0 = t0 + h.queue_wait_ns;
  tc.spans->Add("service.queue_wait", root, req, t0, exec0, true);
  tc.spans->Add("exec." + cls, root, req, exec0, exec0 + h.wall_ns, true);
  if (light) {
    out->queue_wait_ns.push_back(h.queue_wait_ns);
    out->exec_ns.push_back(h.wall_ns);
  } else {
    out->heavy_exec_ns.push_back(h.wall_ns);
    ++out->heavy;
  }
  if (n % kSampleEvery != 0) return;

  apq::obs::QueryRecord rec;
  if (QueryRecordOf(h.id, &rec)) {
    (light ? out->engine_light_ns : out->engine_heavy_ns)
        .push_back(rec.wall_ns - h.wall_ns);
    out->peak_bytes =
        std::max(out->peak_bytes, static_cast<double>(rec.peak_bytes));
    if (light) out->sched_wait_ns.push_back(rec.queue_wait_ns);
    AddProfileOps(rec.profile_json, &out->ops);
  }
  const Replay r =
      ReplayBookkeeping(tc.plans->at(q), tc.metrics->at(q), *tc.engine);
  tc.spans->Add("sched.sim", root, req, r.sim_start, r.sim_end);
  tc.spans->Add("profile.doc", root, req, r.doc_start, r.doc_end);
  out->sim_ns.push_back(r.sim_ns());
  out->doc_ns.push_back(r.doc_ns());
  if (light) {
    const double overhead = (t1 - t0) - h.queue_wait_ns - h.wall_ns;
    out->residual_ns.push_back(overhead - r.sim_ns() - r.doc_ns());
  }
}

// One closed-loop client: walks the mix cycle from `offset`, sending the
// next RUN only after the previous END, until `end_ns`.
void Client(Conn* conn, const std::vector<std::string>& cycle, size_t offset,
            double end_ns, const std::map<std::string, std::string>& expected,
            const TraceCtx* trace, ClientResult* out) {
  uint64_t n = 0;
  std::string block;
  while (NowNs() < end_ns) {
    const std::string& q = cycle[(offset + n) % cycle.size()];
    ++n;
    const std::string line = "RUN " + q + " tag=" + std::to_string(n) + "\n";
    const double t0 = NowNs();
    const bool io = conn->Send(line) && conn->ReadBlock(&block);
    const double t1 = NowNs();
    if (!io) {
      out->tally.Fail("lost-connection");
      return;  // nothing more can be sent on this connection
    }
    OkHeader h;
    std::string why = CheckResponse(block, expected.at(q), &h);
    if (why.empty() && h.tag != n) why = "malformed";
    if (!why.empty()) {
      out->tally.Fail(why);
      continue;
    }
    out->tally.Ok();
    out->lat[q].push_back(t1 - t0);
    if (trace != nullptr) RecordTraced(*trace, q, n, t0, t1, h, out);
  }
}

// Runs every client for `seconds`; returns the merged result and the window
// length in `wall_ns`.
ClientResult Measure(Setup* s, const std::vector<std::string>& cycle,
                     double seconds,
                     const std::map<std::string, std::string>& expected,
                     const TraceCtx* trace, double* wall_ns) {
  std::vector<ClientResult> per(kClients);
  std::vector<std::thread> threads;
  const double start = NowNs();
  const double end = start + seconds * 1e9;
  for (int c = 0; c < kClients; ++c) {
    const size_t offset = cycle.size() * static_cast<size_t>(c) / kClients;
    threads.emplace_back(Client, s->conns[c].get(), std::cref(cycle), offset,
                         end, std::cref(expected), trace, &per[c]);
  }
  for (auto& t : threads) t.join();
  *wall_ns = NowNs() - start;
  auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  ClientResult all;
  for (const ClientResult& r : per) {
    all.tally.Merge(r.tally);
    for (const auto& [q, samples] : r.lat) cat(&all.lat[q], samples);
    cat(&all.queue_wait_ns, r.queue_wait_ns);
    cat(&all.exec_ns, r.exec_ns);
    cat(&all.heavy_exec_ns, r.heavy_exec_ns);
    for (const auto& [kind, t] : r.ops.by_kind) {
      all.ops.Add(kind, t.first, t.second);
    }
    cat(&all.sim_ns, r.sim_ns);
    cat(&all.doc_ns, r.doc_ns);
    cat(&all.residual_ns, r.residual_ns);
    cat(&all.sched_wait_ns, r.sched_wait_ns);
    cat(&all.engine_light_ns, r.engine_light_ns);
    cat(&all.engine_heavy_ns, r.engine_heavy_ns);
    all.peak_bytes = std::max(all.peak_bytes, r.peak_bytes);
    all.heavy += r.heavy;
  }
  return all;
}

bool SetUp(uint64_t seed, const std::vector<std::string>& cycle, Setup* s,
           SetupTimes* times) {
  const double t0 = NowNs();
  apq::TpchConfig tc;
  tc.lineitem_rows = kLineitemRows;
  tc.seed = seed;
  s->catalog = apq::Tpch::Generate(tc);
  const double t1 = NowNs();
  apq::service::ServiceConfig cfg;
  cfg.max_concurrent = kMaxConcurrent;
  cfg.morsel_workers = kFleetWorkers;
  s->svc = std::make_unique<apq::service::QueryService>();
  const apq::Status st = s->svc->Start(s->catalog, cfg);
  if (!st.ok()) {
    std::fprintf(stderr, "serve: start: %s\n", st.ToString().c_str());
    return false;
  }
  for (int c = 0; c < kClients; ++c) {
    s->conns.push_back(std::make_unique<Conn>(s->svc->port()));
    if (!s->conns.back()->ok()) {
      std::fprintf(stderr, "serve: connect to port %d failed\n",
                   s->svc->port());
      return false;
    }
  }
  const double t2 = NowNs();
  // All clients first send each query at once, so both executors' engines
  // run every query and build their hash indexes; then each runs the start
  // of the mix from its own offset.
  std::vector<std::thread> threads;
  std::vector<int> ok(kClients, 1);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::string> warm = {"Q14", "Q9", "Q19", "Q6"};
      const size_t offset = cycle.size() * static_cast<size_t>(c) / kClients;
      for (size_t i = 0; i < kWarmRequests; ++i) {
        warm.push_back(cycle[(offset + i) % cycle.size()]);
      }
      std::string block;
      for (const std::string& q : warm) {
        if (!s->conns[c]->Send("RUN " + q + "\n") ||
            !s->conns[c]->ReadBlock(&block) || block.rfind("OK ", 0) != 0) {
          ok[c] = 0;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  if (std::count(ok.begin(), ok.end(), 0) > 0) {
    std::fprintf(stderr, "serve: warm-up request failed\n");
    return false;
  }
  const double t3 = NowNs();
  times->Add(t3 - t0, t1 - t0, t3 - t2);
  return true;
}

}  // namespace

bool RunServe(const Options& opt, Report* report, Tally* tally,
              SpanLog* spans) {
  report->Fact("lineitem_rows", std::to_string(kLineitemRows));
  report->Fact("clients", std::to_string(kClients));
  report->Fact("max_concurrent", std::to_string(kMaxConcurrent));
  report->Fact("morsel_workers", std::to_string(kFleetWorkers));
  report->Fact("executors", std::to_string(kMaxConcurrent));

  // 80% short queries, 20% heavy, in a seed-shuffled fixed cycle. The cycle
  // is long so that the four clients, which start a quarter of it apart,
  // do not lock into one recurring pattern of heavy-query overlaps.
  std::vector<std::string> cycle;
  for (int i = 0; i < kCycleLength / 10; ++i) {
    for (const char* q : {"Q6", "Q6", "Q6", "Q6", "Q14", "Q14", "Q14", "Q14",
                          "Q9", "Q19"}) {
      cycle.push_back(q);
    }
  }
  apq::Rng rng(opt.seed);
  Shuffle(&cycle, &rng);
  report->Fact("mix", "80% Q6/Q14, 20% Q9/Q19; cycle of " +
                          std::to_string(kCycleLength));

  SetupTimes times;
  std::unique_ptr<Setup> s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();  // one data set in memory at a time
    s = std::make_unique<Setup>();
    if (!SetUp(opt.seed, cycle, s.get(), &times)) return false;
  }

  // Output-check references: the ROW lines OkResponse gives for a direct
  // default-config RunPlan of each query, outside any timing.
  apq::Engine reference;
  std::map<std::string, apq::QueryPlan> plans;
  std::map<std::string, std::string> expected;
  for (const std::string& q : kQueries) {
    auto plan = apq::Tpch::Query(*s->catalog, q);
    if (!plan.ok()) return false;
    auto run = reference.RunPlan(plan.ValueOrDie());
    if (!run.ok()) {
      std::fprintf(stderr, "serve: reference %s: %s\n", q.c_str(),
                   run.status().ToString().c_str());
      return false;
    }
    const std::string ok =
        apq::service::OkResponse(0, 0, 0, 0, 0, run.ValueOrDie().result);
    const size_t nl = ok.find('\n');
    expected[q] = ok.substr(nl + 1, ok.size() - nl - 1 - 4);  // minus "END\n"
    plans.emplace(q, plan.MoveValueOrDie());
  }

  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  double wall_ns = 0;
  const ClientResult u =
      Measure(s.get(), cycle, untraced_s, expected, nullptr, &wall_ns);
  tally->Merge(u.tally);

  AddSetupMetrics(report, times);
  report->EndToEnd("rss_mb", "MB", PeakRssMb());
  EndToEndClassMs(report, "geomean_ms", u.lat, kQueries);
  EndToEndClassMs(report, "light_p50_ms", u.lat, kLight);
  EndToEndClassMs(report, "heavy_p50_ms", u.lat, kHeavy);
  report->EndToEnd("qps", "requests/s",
                   Pooled(u.lat, kQueries).size() / (wall_ns / 1e9));
  // The short-class tail under queueing, printed for context: every
  // workload's JSON line carries the same metrics, and only this one queues.
  const std::vector<double> light = Pooled(u.lat, kLight);
  if (SamplesBeyond(light.size(), 0.99) < kMinBeyond) {
    std::fprintf(stderr, "serve: fewer than %zu samples beyond p99\n",
                 kMinBeyond);
  }
  InfoMs(report, "light_p99_ms", light, 0.99);
  for (const auto& [q, samples] : u.lat) {
    InfoMs(report, "p50_ms." + q, samples);
  }
  if (!opt.trace) return true;

  // Traced window: operator metrics for the replays come from an engine
  // configured like the service's executors, before the window starts.
  apq::EngineConfig cfg;
  cfg.morsel_scheduler = std::make_shared<apq::MorselScheduler>(kFleetWorkers);
  apq::Engine replay_engine(cfg);
  std::map<std::string, std::vector<apq::OpMetrics>> metrics;
  for (const auto& [q, plan] : plans) {
    if (!PlanMetrics(&replay_engine, plan, &metrics[q])) return false;
  }
  TraceCtx tc;
  tc.spans = spans;
  tc.engine = &replay_engine;
  tc.plans = &plans;
  tc.metrics = &metrics;

  const apq::service::ServiceStats st0 = s->svc->Stats();
  const Usage usage0 = ReadUsage();
  const SchedSnap sched0 = ReadSchedRegistry(kFleetWorkers);
  double traced_wall_ns = 0;
  const ClientResult t = Measure(s.get(), cycle, opt.seconds - untraced_s,
                                 expected, &tc, &traced_wall_ns);
  const SchedSnap dsched = ReadSchedRegistry(kFleetWorkers) - sched0;
  const Usage du = ReadUsage() - usage0;
  const apq::service::ServiceStats st1 = s->svc->Stats();
  tally->Merge(t.tally);

  auto self = spans->SelfTimes();
  const double requests = Pooled(t.lat, kQueries).size();
  LayerMs(report, "engine.overhead_ms.light", t.engine_light_ns);
  LayerMs(report, "engine.overhead_ms.heavy", t.engine_heavy_ns);
  LayerUs(report, "sched.sim_us", t.sim_ns);
  LayerUs(report, "profile.doc_us", t.doc_ns);
  LayerUs(report, "engine.residual_us", t.residual_ns);
  LayerMs(report, "exec.wall_ms.light", t.exec_ns);
  LayerMs(report, "exec.wall_ms.heavy", t.heavy_exec_ns);
  AddOpKindLayer(report, t.ops);
  report->Layer("exec.faults_per_query.heavy", "count",
                t.heavy > 0 ? du.minflt / t.heavy : 0);
  const double cpu = du.utime_ns + du.stime_ns;
  report->Layer("exec.sys_pct", "%", cpu > 0 ? 100.0 * du.stime_ns / cpu : 0);
  report->Layer("exec.peak_mb", "MB", t.peak_bytes / (1024.0 * 1024.0));
  report->Layer("sched.csw_per_query", "count",
                requests > 0 ? du.nvcsw / requests : 0);
  const double untraced = GeoMeanOfMedians(u.lat, kLight);
  report->Layer("trace.overhead_pct", "%",
                100.0 * (GeoMeanOfMedians(t.lat, kLight) - untraced) /
                    untraced);

  WindowCounters w;
  w.wall_ns = traced_wall_ns;
  w.queries = requests;
  w.sched = dsched;
  w.threads = kFleetWorkers;
  AddSchedInfo(report, w, t.sched_wait_ns);
  // Service-layer readings, printed for context: every workload's JSON line
  // carries the same metrics, and only this one has a service.
  std::vector<double> qw_ms;
  for (double ns : t.queue_wait_ns) qw_ms.push_back(ns / 1e6);
  report->Info("service.queue_wait_ms.p50", "ms", Median(qw_ms), &qw_ms);
  report->Info("service.queue_wait_ms.p99", "ms", Percentile(qw_ms, 0.99),
               &qw_ms);
  InfoMs(report, "service.overhead_ms", self["serve.request.light"]);
  const double admitted = static_cast<double>(st1.admission.admitted_total -
                                              st0.admission.admitted_total);
  auto pct = [&](uint64_t a, uint64_t b) {
    return admitted > 0 ? 100.0 * static_cast<double>(a - b) / admitted : 0;
  };
  report->Info("service.queued_pct", "%",
               pct(st1.admission.waited_total, st0.admission.waited_total));
  report->Info("service.promoted_pct", "%",
               pct(st1.admission.promoted_total,
                   st0.admission.promoted_total));
  report->Info("service.degraded_pct", "%",
               pct(st1.degraded_total, st0.degraded_total));
  return true;
}

}  // namespace perfbench

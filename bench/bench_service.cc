// Query-service load bench: replay an open-loop arrival trace (mixed short
// selects + heavy aggregations) against an in-process QueryService over real
// sockets, at 0.5x / 1x / 2x of estimated capacity, and report achieved qps
// and p50/p99 response latency per phase.
//
// Open loop means arrivals are scheduled on a fixed clock, NOT gated on
// responses — exactly the regime where an unprotected server collapses
// (queues grow without bound, p99 goes unbounded). The admission controller
// converts that collapse into bounded queueing plus fast typed rejection:
// the acceptance shape is p99 at 2x staying within the same order of
// magnitude as at 0.5x while the shed count absorbs the overflow.
//
//   ./bench_service [--json out.json] [--rows N] [--seconds S]
//
// --json writes a google-benchmark-shaped document so tools/bench_trend.py
// can gate the serving trajectory against the committed BENCH_service.json
// seed (items_per_second = completed-OK qps per phase).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "engine/engine.h"
#include "service/query_service.h"
#include "util/hash_clock.h"
#include "workload/tpch.h"

using namespace apq;

namespace {

// 70% short selects, 30% heavy analytics, deterministically interleaved.
const char* MixQuery(uint64_t i) {
  switch (i % 10) {
    case 3: return "Q9";
    case 6: return "Q4";
    case 9: return "Q19";
    case 5: return "Q14";
    default: return "Q6";
  }
}

struct PhaseResult {
  std::string name;
  double load = 0;        // fraction of estimated capacity
  double offered_qps = 0; // arrival rate
  double ok_qps = 0;      // completed queries per wall second
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t err = 0;
  double p50_ns = 0;      // OK-response latency from *scheduled* arrival
  double p99_ns = 0;
  double shed_p99_ns = 0; // rejection latency (the fast-fail contract)
};

double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  return v[idx];
}

// One persistent client connection speaking the line protocol.
class Conn {
 public:
  explicit Conn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ok_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0;
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return ok_; }

  bool Send(const std::string& line) {
    return ::send(fd_, line.data(), line.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(line.size());
  }

  // Closes the sending side: the server still answers every request sent
  // before, then closes the session.
  void CloseSend() { ::shutdown(fd_, SHUT_WR); }

  // Reads one END-terminated block; returns its first line.
  std::string ReadHeader() {
    size_t pos;
    while ((pos = buf_.find("END\n")) == std::string::npos) {
      char tmp[4096];
      const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
      if (n <= 0) return "";
      buf_.append(tmp, static_cast<size_t>(n));
    }
    const std::string block = buf_.substr(0, pos + 4);
    buf_.erase(0, pos + 4);
    return block.substr(0, block.find('\n'));
  }

 private:
  int fd_ = -1;
  bool ok_ = false;
  std::string buf_;
};

PhaseResult RunPhase(int port, const std::string& name, double load,
                     double capacity_qps, double seconds, int fleet) {
  PhaseResult r;
  r.name = name;
  r.load = load;
  r.offered_qps = capacity_qps * load;
  const double spacing_ns = 1e9 / r.offered_qps;
  const uint64_t n = static_cast<uint64_t>(r.offered_qps * seconds);

  std::atomic<uint64_t> next{0};
  std::mutex agg_mu;
  std::vector<double> ok_lat, shed_lat;
  std::atomic<uint64_t> ok{0}, shed{0}, err{0};

  // True open loop: every connection has a sender thread pacing arrivals on
  // the schedule and a separate receiver thread draining responses, so a
  // slow (queued) response never delays the next arrival. tag= correlates
  // a response back to its scheduled arrival time.
  const double t0 = NowNs() + 10e6;  // arrivals start 10ms out
  std::vector<std::thread> threads;
  for (int c = 0; c < fleet; ++c) {
    threads.emplace_back([&] {
      auto conn = std::make_shared<Conn>(port);
      if (!conn->ok()) return;
      auto targets = std::make_shared<std::map<uint64_t, double>>();
      auto targets_mu = std::make_shared<std::mutex>();

      // Reads until the server closes the session, which it does once it
      // has answered everything sent before the sender's CloseSend.
      std::thread receiver([&, conn, targets, targets_mu] {
        std::vector<double> my_ok, my_shed;
        while (true) {
          const std::string header = conn->ReadHeader();
          if (header.empty()) break;  // session closed
          const size_t tp = header.find(" tag=");
          if (tp == std::string::npos) {
            err.fetch_add(1);
            continue;
          }
          const uint64_t tag = std::stoull(header.substr(tp + 5));
          double target = 0;
          {
            std::lock_guard<std::mutex> lock(*targets_mu);
            auto it = targets->find(tag);
            if (it != targets->end()) {
              target = it->second;
              targets->erase(it);
            }
          }
          const double lat = NowNs() - target;
          if (header.rfind("OK ", 0) == 0) {
            ok.fetch_add(1);
            my_ok.push_back(lat);
          } else if (header.rfind("ERR SHED", 0) == 0) {
            shed.fetch_add(1);
            my_shed.push_back(lat);
          } else {
            err.fetch_add(1);
          }
        }
        std::lock_guard<std::mutex> lock(agg_mu);
        ok_lat.insert(ok_lat.end(), my_ok.begin(), my_ok.end());
        shed_lat.insert(shed_lat.end(), my_shed.begin(), my_shed.end());
      });

      uint64_t i;
      while ((i = next.fetch_add(1)) < n) {
        const double target = t0 + static_cast<double>(i) * spacing_ns;
        const double now = NowNs();
        if (target > now) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(
              static_cast<int64_t>(target - now)));
        }
        {
          std::lock_guard<std::mutex> lock(*targets_mu);
          (*targets)[i + 1] = target;
        }
        if (!conn->Send(std::string("RUN ") + MixQuery(i) + " tag=" +
                        std::to_string(i + 1) + "\n")) {
          err.fetch_add(1);
        }
      }
      conn->CloseSend();
      receiver.join();
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = (NowNs() - t0) / 1e9;

  r.ok = ok.load();
  r.shed = shed.load();
  r.err = err.load();
  r.ok_qps = wall_s > 0 ? static_cast<double>(r.ok) / wall_s : 0;
  r.p50_ns = Percentile(ok_lat, 0.50);
  r.p99_ns = Percentile(ok_lat, 0.99);
  r.shed_p99_ns = Percentile(shed_lat, 0.99);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  uint64_t rows = 60'000;
  double seconds = 2.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
    else if (arg == "--rows" && i + 1 < argc) rows = std::stoull(argv[++i]);
    else if (arg == "--seconds" && i + 1 < argc) seconds = std::stod(argv[++i]);
  }

  TpchConfig tcfg;
  tcfg.lineitem_rows = rows;
  auto catalog = Tpch::Generate(tcfg);

  service::ServiceConfig scfg = service::ServiceConfig::FromEnv();
  scfg.port = 0;  // ephemeral; this bench is its own client
  service::QueryService svc;
  {
    Status st = svc.Start(catalog, scfg);
    if (!st.ok()) {
      std::fprintf(stderr, "service start failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  // Estimate capacity from the mix's mean direct service time: with
  // max_concurrent executors, capacity ~= max_concurrent / t_mean.
  double t_mean_ns;
  {
    EngineConfig ecfg;
    ecfg.use_morsels = true;
    Engine engine(ecfg);
    double total = 0;
    int runs = 0;
    for (uint64_t i = 0; i < 10; ++i) {
      auto plan = Tpch::Query(*catalog, MixQuery(i));
      if (!plan.ok()) continue;
      auto run = engine.RunPlan(plan.ValueOrDie());
      if (!run.ok()) continue;
      total += run.ValueOrDie().wall_ns;
      ++runs;
    }
    t_mean_ns = runs > 0 ? total / runs : 1e6;
  }
  const double capacity_qps =
      static_cast<double>(scfg.max_concurrent) * 1e9 / t_mean_ns;

  std::printf("service bench: %" PRIu64 " lineitem rows, mean service time "
              "%.3f ms, max_concurrent=%d, queue_depth=%zu, fleet=%d, "
              "estimated capacity %.0f qps\n",
              rows, t_mean_ns / 1e6, scfg.max_concurrent,
              scfg.max_queue_depth, svc.fleet_workers(), capacity_qps);

  const int client_fleet = 32;
  std::vector<PhaseResult> phases;
  for (const double load : {0.5, 1.0, 2.0}) {
    char name[64];
    std::snprintf(name, sizeof(name), "BM_ServiceOpenLoop/load_%.1fx", load);
    phases.push_back(
        RunPhase(svc.port(), name, load, capacity_qps, seconds, client_fleet));
    const PhaseResult& r = phases.back();
    std::printf("%-32s offered %7.0f qps  completed %7.0f qps  "
                "ok %6" PRIu64 "  shed %5" PRIu64 "  err %3" PRIu64
                "  p50 %8.2f ms  p99 %8.2f ms  shed-p99 %.2f ms\n",
                r.name.c_str(), r.offered_qps, r.ok_qps, r.ok, r.shed, r.err,
                r.p50_ns / 1e6, r.p99_ns / 1e6, r.shed_p99_ns / 1e6);
  }
  svc.Stop();

  // The overload contract: at 2x the server sheds instead of collapsing, so
  // OK-p99 stays bounded (queue depth caps the wait) and rejections are
  // orders of magnitude faster than service.
  const PhaseResult& low = phases.front();
  const PhaseResult& over = phases.back();
  const double p99_ratio =
      low.p99_ns > 0 ? over.p99_ns / low.p99_ns : 0;
  std::printf("\noverload p99 / light-load p99 = %.1fx  (shed absorbed "
              "%" PRIu64 " of %" PRIu64 " offered)\n",
              p99_ratio, over.shed, over.ok + over.shed + over.err);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"context\":{\"executable\":\"bench_service\"},"
        << "\"benchmarks\":[";
    out.precision(15);
    for (size_t i = 0; i < phases.size(); ++i) {
      const PhaseResult& r = phases[i];
      if (i > 0) out << ",";
      out << "{\"name\":\"" << r.name << "\",\"run_type\":\"iteration\","
          << "\"iterations\":" << (r.ok + r.shed)
          << ",\"real_time\":" << r.p99_ns << ",\"time_unit\":\"ns\","
          << "\"items_per_second\":" << r.ok_qps
          << ",\"ok\":" << r.ok << ",\"shed\":" << r.shed
          << ",\"p50_ns\":" << r.p50_ns << ",\"p99_ns\":" << r.p99_ns
          << ",\"shed_p99_ns\":" << r.shed_p99_ns << "}";
    }
    out << "]}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

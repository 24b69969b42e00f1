// Standalone query server: bind the service front-end on a port and serve
// the TPC-H workload queries to any number of concurrent sessions until
// killed.
//
//   $ APQ_HTTP=9417 ./example_service_server 9500
//
// then from another terminal (netcat is a complete client):
//
//   $ printf 'RUN Q6 tag=1\nRUN Q9 tag=2\n' | nc 127.0.0.1 9500
//   $ curl -s http://127.0.0.1:9417/debug/service
//
// The port comes from argv[1], or APQ_SERVICE_PORT when absent. Admission
// limits come from APQ_SERVICE_MAX_CONCURRENT / APQ_SERVICE_QUEUE_DEPTH
// (docs/reference.md has the full knob inventory).
#include <csignal>
#include <cstdio>

#include <unistd.h>

#include "obs/trace.h"
#include "service/query_service.h"
#include "util/env.h"
#include "workload/tpch.h"

using namespace apq;

namespace {
volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  obs::InitFromEnv();

  service::ServiceConfig cfg = service::ServiceConfig::FromEnv();
  uint64_t port = static_cast<uint64_t>(cfg.port);
  if (argc > 1 && !ParseDecimal(argv[1], 1, 65535, &port)) port = 0;
  cfg.port = static_cast<int>(port);
  if (cfg.port == 0) {
    std::fprintf(stderr,
                 "usage: %s <port>   (or set APQ_SERVICE_PORT)\n", argv[0]);
    return 2;
  }

  TpchConfig tpch;
  tpch.lineitem_rows = 600'000;
  auto catalog = Tpch::Generate(tpch);

  service::QueryService svc;
  Status st = svc.Start(catalog, cfg);
  if (!st.ok()) {
    std::fprintf(stderr, "service failed to start: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf("apq query service on 127.0.0.1:%d  "
              "(fleet=%d workers, max_concurrent=%d, queue_depth=%zu)\n",
              svc.port(), svc.fleet_workers(), cfg.max_concurrent,
              cfg.max_queue_depth);
  std::printf("try:  printf 'RUN Q6 tag=1\\n' | nc 127.0.0.1 %d\n",
              svc.port());
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_stop == 0) ::usleep(100 * 1000);

  svc.Stop();
  const service::ServiceStats s = svc.Stats();
  std::printf("served %llu responses (%llu admitted, %llu shed, "
              "%llu promoted)\n",
              static_cast<unsigned long long>(s.responses_total),
              static_cast<unsigned long long>(s.admission.admitted_total),
              static_cast<unsigned long long>(s.admission.shed_total),
              static_cast<unsigned long long>(s.admission.promoted_total));
  return 0;
}
